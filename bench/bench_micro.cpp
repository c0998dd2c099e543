// Micro-benchmarks (google-benchmark) for the algorithmic kernels: arc-set
// operations, footprint computation, expected-coverage evaluation (exact
// breakpoint integration vs literal 2^m enumeration vs Monte Carlo), the
// CELF greedy selector and its engine, photo store churn, PROPHET updates,
// and the provenance and Chrome-trace serializers. An ad-hoc tool: end-to-end performance is
// measured by perfbench/ (BENCHMARK.json).
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "dtn/photo_store.h"
#include "geometry/arc_set.h"
#include "obs/chrome_trace.h"
#include "routing/prophet.h"
#include "selection/expected_coverage.h"
#include "selection/greedy_selector.h"
#include "selection/selection_env.h"
#include "sim/result_io.h"
#include "util/rng.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"

namespace photodtn {
namespace {

// ---------------------------------------------------------------- geometry

void BM_ArcSetAdd(benchmark::State& state) {
  Rng rng(1);
  std::vector<Arc> arcs;
  for (int i = 0; i < 64; ++i)
    arcs.push_back({rng.uniform(0.0, kTwoPi), rng.uniform(0.1, 1.0)});
  for (auto _ : state) {
    ArcSet s;
    for (const Arc& a : arcs) s.add(a);
    benchmark::DoNotOptimize(s.measure());
  }
}
BENCHMARK(BM_ArcSetAdd);

void BM_ArcSetGain(benchmark::State& state) {
  Rng rng(2);
  ArcSet s;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
    s.add({rng.uniform(0.0, kTwoPi), rng.uniform(0.05, 0.3)});
  const Arc probe{1.0, 0.8};
  for (auto _ : state) benchmark::DoNotOptimize(s.gain(probe));
}
BENCHMARK(BM_ArcSetGain)->Arg(4)->Arg(16)->Arg(64);

// ---------------------------------------------------------------- coverage

struct Workbench {
  Workbench(std::size_t pois, std::size_t photos, std::uint64_t seed = 42)
      : rng(seed),
        poi_list(generate_uniform_pois(pois, 6300.0, rng)),
        model(poi_list, deg_to_rad(30.0)) {
    ScenarioConfig cfg = ScenarioConfig::mit(seed);
    PhotoGenerator gen(cfg, poi_list);
    for (std::size_t i = 0; i < photos; ++i)
      pool.push_back(gen.generate_one(0.0, 1, rng).photo);
  }

  Rng rng;
  PoiList poi_list;
  CoverageModel model;
  std::vector<PhotoMeta> pool;
};

void BM_Footprint(benchmark::State& state) {
  Workbench wb(250, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wb.model.footprint(wb.pool[i % wb.pool.size()]));
    ++i;
  }
}
BENCHMARK(BM_Footprint);

// -------------------------------------------------------- expected coverage

std::vector<NodeCollection> make_collections(const Workbench& wb, std::size_t nodes,
                                             std::size_t photos_per_node) {
  std::vector<NodeCollection> out;
  std::size_t next = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    NodeCollection nc;
    nc.node = static_cast<NodeId>(n + 1);
    nc.delivery_prob = 0.2 + 0.6 * static_cast<double>(n) / static_cast<double>(nodes);
    for (std::size_t k = 0; k < photos_per_node && next < wb.pool.size(); ++k, ++next)
      nc.footprints.push_back(&wb.model.footprint_cached(wb.pool[next]));
    out.push_back(std::move(nc));
  }
  return out;
}

void BM_ExpectedCoverageExact(benchmark::State& state) {
  Workbench wb(250, 200);
  const auto nodes =
      make_collections(wb, static_cast<std::size_t>(state.range(0)), 20);
  for (auto _ : state)
    benchmark::DoNotOptimize(expected_coverage_exact(wb.model, nodes));
}
BENCHMARK(BM_ExpectedCoverageExact)->Arg(2)->Arg(6)->Arg(10);

void BM_ExpectedCoverageEnumerate(benchmark::State& state) {
  Workbench wb(50, 60);
  const auto nodes =
      make_collections(wb, static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state)
    benchmark::DoNotOptimize(expected_coverage_enumerate(wb.model, nodes));
}
BENCHMARK(BM_ExpectedCoverageEnumerate)->Arg(2)->Arg(6)->Arg(10);

void BM_ExpectedCoverageMonteCarlo(benchmark::State& state) {
  Workbench wb(50, 60);
  const auto nodes = make_collections(wb, 6, 6);
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(expected_coverage_monte_carlo(
        wb.model, nodes, rng, static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ExpectedCoverageMonteCarlo)->Arg(100)->Arg(1000);

// ------------------------------------------------------------------ greedy

void BM_GreedySelect(benchmark::State& state) {
  Workbench wb(250, static_cast<std::size_t>(state.range(0)));
  const GreedySelector sel;
  for (auto _ : state) {
    SelectionEnvironment env(wb.model, {});
    GreedyPhase phase(env, 0.7);
    benchmark::DoNotOptimize(
        sel.select(wb.model, wb.pool, 150ULL * 4'000'000, phase));
  }
}
BENCHMARK(BM_GreedySelect)->Arg(50)->Arg(200)->Arg(400);

void BM_Reallocate(benchmark::State& state) {
  Workbench wb(250, 300);
  const GreedySelector sel;
  const auto others = make_collections(wb, 4, 30);  // nodes 1..4
  for (auto _ : state) {
    SelectionEnvironment env(wb.model, others);
    benchmark::DoNotOptimize(sel.reallocate(wb.model, wb.pool, 5, 0.6,
                                            150ULL * 4'000'000, 6, 0.3,
                                            150ULL * 4'000'000, env));
  }
}
BENCHMARK(BM_Reallocate);

// ------------------------------------------------------ incremental engine

/// Dense setting for the engine benches: PoIs packed into a small region so
/// every PoI is covered by many environment arcs, giving its miss function
/// many segments.
struct DenseBench {
  DenseBench(std::size_t pois, std::size_t candidates, std::uint64_t seed = 42)
      : rng(seed),
        poi_list(generate_uniform_pois(pois, 300.0, rng)),
        model(poi_list, deg_to_rad(30.0)) {
    ScenarioConfig cfg = ScenarioConfig::mit(seed);
    cfg.region_m = 300.0;
    PhotoGenerator gen(cfg, poi_list);
    // Many small collections over a packed region: segment counts grow with
    // the number of *distinct-p collections* covering a PoI (each node's own
    // arcs merge inside its ArcSet), so a wide participant base — not a few
    // bulk uploaders — is what drives every PoI's miss function to O(100)
    // breakpoints, the regime the prefix-sum engine is built for.
    const std::size_t kNodes = 320, kPerNode = 8;
    for (std::size_t i = 0; i < kNodes * kPerNode + candidates; ++i)
      pool.push_back(gen.generate_one(0.0, 1, rng).photo);
    std::size_t next = 0;
    for (std::size_t n = 0; n < kNodes; ++n) {
      NodeCollection nc;
      nc.node = static_cast<NodeId>(n + 1);
      nc.delivery_prob =
          0.1 + 0.8 * static_cast<double>(n) / static_cast<double>(kNodes);
      for (std::size_t k = 0; k < kPerNode; ++k, ++next)
        nc.footprints.push_back(&model.footprint_cached(pool[next]));
      collections.push_back(std::move(nc));
    }
    for (std::size_t i = 0; i < candidates; ++i, ++next)
      cands.push_back(&model.footprint_cached(pool[next]));
  }

  Rng rng;
  PoiList poi_list;
  CoverageModel model;
  std::vector<PhotoMeta> pool;
  std::vector<NodeCollection> collections;
  std::vector<const PhotoFootprint*> cands;
};

/// One marginal-gain sweep over every candidate against a committed
/// selection — the greedy inner loop. range = {pois, candidates}.
void BM_GreedyGain(benchmark::State& state) {
  DenseBench db(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  SelectionEnvironment env(db.model, db.collections);
  GreedyPhase phase(env, 0.7);
  for (std::size_t i = 0; i < 8 && i < db.cands.size(); ++i)
    phase.commit(*db.cands[i]);
  for (auto _ : state) {
    CoverageValue sum;
    for (const PhotoFootprint* fp : db.cands) sum += phase.gain(*fp);
    benchmark::DoNotOptimize(sum);
  }
  // Density of the setting, so regressions in the workload generator that
  // would hollow out the bench show up in its counters.
  std::size_t segs = 0, arcs = 0;
  for (std::size_t p = 0; p < db.model.pois().size(); ++p)
    segs += env.aspect_miss(p).segment_count();
  for (const PhotoFootprint* fp : db.cands) arcs += fp->arcs.size();
  state.counters["segs_per_poi"] =
      static_cast<double>(segs) / static_cast<double>(db.model.pois().size());
  state.counters["arcs_per_cand"] =
      db.cands.empty() ? 0.0
                       : static_cast<double>(arcs) / static_cast<double>(db.cands.size());
}
BENCHMARK(BM_GreedyGain)->Args({64, 256})->Args({250, 256});

/// A fresh environment and greedy phase per selection, built (and the old
/// ones destroyed) with the clock paused, so a selection bench times the
/// selection alone: building the dense environment costs more than the
/// CELF run over it (BM_SelectionEnvBuild).
class SelectionRun {
 public:
  explicit SelectionRun(const DenseBench& db) : db_(db) {}

  GreedyPhase& fresh_phase(benchmark::State& state) {
    state.PauseTiming();
    phase_.reset();
    env_.emplace(db_.model, db_.collections);
    benchmark::DoNotOptimize(env_->total());  // every PoI's first rebuild
    GreedyPhase& phase = phase_.emplace(*env_, 0.7);
    state.ResumeTiming();
    return phase;
  }

 private:
  const DenseBench& db_;
  std::optional<SelectionEnvironment> env_;
  std::optional<GreedyPhase> phase_;
};

/// Selections per selection bench. Each one waits for a paused build of
/// several milliseconds, so the count is fixed: left to google-benchmark,
/// it would add selections until their own time reached its minimum, and
/// the two benches took 51 s of wall time instead of 4.
constexpr benchmark::IterationCount kSelectionRuns = 50;

/// Full CELF selection against the dense environment, reporting the lazy
/// re-evaluation rate (reevals / gain_evals) — the fraction of heap pops
/// that had to be refreshed. Low is the whole point of CELF.
void BM_GreedyGainCelf(benchmark::State& state) {
  DenseBench db(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  std::vector<PhotoMeta> pool(db.pool.end() - static_cast<std::ptrdiff_t>(db.cands.size()),
                              db.pool.end());
  const GreedySelector sel;
  SelectionRun run(db);
  for (auto _ : state) {
    GreedyPhase& phase = run.fresh_phase(state);
    benchmark::DoNotOptimize(sel.select(db.model, pool, 40ULL * 4'000'000, phase));
  }
  const SelectionStats& st = sel.last_stats();
  state.counters["reeval_rate"] =
      st.gain_evals == 0
          ? 0.0
          : static_cast<double>(st.reevals) / static_cast<double>(st.gain_evals);
  state.counters["commits"] = static_cast<double>(st.commits);
}
BENCHMARK(BM_GreedyGainCelf)
    ->Args({64, 256})
    ->Args({250, 256})
    ->Iterations(kSelectionRuns);

/// Cold build of the engine from a full collection list (what a throwaway
/// per-contact environment costs).
void BM_SelectionEnvBuild(benchmark::State& state) {
  DenseBench db(64, 0);
  for (auto _ : state) {
    SelectionEnvironment env(db.model, db.collections);
    benchmark::DoNotOptimize(env.total());
  }
}
BENCHMARK(BM_SelectionEnvBuild);

/// Persistent-engine reconcile: one collection churns (removed, re-added)
/// and the value is re-queried — only the touched PoIs rebuild.
void BM_SelectionEnvReconcile(benchmark::State& state) {
  DenseBench db(64, 0);
  SelectionEnvironment env(db.model, db.collections);
  benchmark::DoNotOptimize(env.total());
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeCollection& nc = db.collections[i % db.collections.size()];
    env.remove_collection(nc.node);
    env.add_collection(nc);
    benchmark::DoNotOptimize(env.total());
    ++i;
  }
}
BENCHMARK(BM_SelectionEnvReconcile);

/// Full greedy selection against a dense environment (the per-contact hot
/// path of the scheme, minus simulator bookkeeping).
void BM_GreedySelectEnv(benchmark::State& state) {
  DenseBench db(64, static_cast<std::size_t>(state.range(0)));
  std::vector<PhotoMeta> pool(db.pool.end() - static_cast<std::ptrdiff_t>(db.cands.size()),
                              db.pool.end());
  const GreedySelector sel;
  SelectionRun run(db);
  for (auto _ : state) {
    GreedyPhase& phase = run.fresh_phase(state);
    benchmark::DoNotOptimize(sel.select(db.model, pool, 40ULL * 4'000'000, phase));
  }
}
BENCHMARK(BM_GreedySelectEnv)->Arg(64)->Arg(256)->Iterations(kSelectionRuns);

// --------------------------------------------------------------------- dtn

/// A full buffer's steady state: each iteration drops the oldest photo,
/// takes a new one, and probes for a photo the store holds and one it does
/// not. The arguments are the photos a full buffer holds in `mit-photonet`
/// (18), in `cam-flood` (67) and at full scale (150); 0 is an unlimited
/// store of 5,000 photos, as BestPossible's grow to.
void BM_PhotoStoreChurn(benchmark::State& state) {
  const bool unlimited = state.range(0) == 0;
  const auto held = static_cast<PhotoId>(unlimited ? 5000 : state.range(0));
  constexpr std::uint64_t kPhotoBytes = 4'000'000;
  PhotoStore store(unlimited ? PhotoStore::kUnlimited : held * kPhotoBytes);
  Rng rng(5);
  PhotoMeta p;
  p.size_bytes = kPhotoBytes;
  PhotoId next = 1;
  for (; next <= held; ++next) {
    p.id = next;
    p.taken_at = rng.uniform(0.0, 3600.0);
    store.add(p);
  }
  for (auto _ : state) {
    store.remove(next - held);
    p.id = next;
    p.taken_at = rng.uniform(0.0, 3600.0);
    benchmark::DoNotOptimize(store.add(p));
    benchmark::DoNotOptimize(store.contains(next - held / 2));
    benchmark::DoNotOptimize(store.contains(next + 1));
    ++next;
  }
}
BENCHMARK(BM_PhotoStoreChurn)->Arg(18)->Arg(67)->Arg(150)->Arg(0);

// ----------------------------------------------------------------- routing

void BM_ProphetEncounter(benchmark::State& state) {
  ProphetConfig cfg;
  std::vector<ProphetTable> tables;
  for (NodeId i = 0; i < 50; ++i) tables.emplace_back(cfg, i);
  Rng rng(3);
  // Warm the tables so transitivity has entries to propagate.
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 49));
    auto b = static_cast<std::size_t>(rng.uniform_int(0, 49));
    if (a == b) b = (b + 1) % 50;
    ProphetTable::encounter(tables[a], tables[b], t);
    t += 10.0;
  }
  for (auto _ : state) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 49));
    auto b = static_cast<std::size_t>(rng.uniform_int(0, 49));
    if (a == b) b = (b + 1) % 50;
    ProphetTable::encounter(tables[a], tables[b], t);
    t += 10.0;
  }
}
BENCHMARK(BM_ProphetEncounter);

// --------------------------------------------------------------- obs sinks

/// A seeded event log with the event mix of one `cam-ourscheme-durable` job.
/// The weights are the per-kind counts of a faulted Cambridge-like run at
/// that workload's scale (`photodtn_cli simulate --trace cambridge --scale
/// 0.35 --runs 1 --seed 1 --scheme OurScheme --fault-interrupt 0.2
/// --fault-crash-rate 0.02 --fault-gossip-loss 0.1`). As there, events sit
/// at whole-second contact times except captures, and about 64% of the
/// provenance doubles are 0 or whole numbers.
std::vector<obs::Event> durable_event_log(std::size_t n) {
  using Kind = obs::Event::Kind;
  struct Share {
    Kind kind;
    std::int64_t count;
  };
  constexpr Share kMix[] = {
      {Kind::kSelectCommit, 93081}, {Kind::kDrop, 14190},   {Kind::kTransfer, 10969},
      {Kind::kCapture, 5844},       {Kind::kGossip, 3623},  {Kind::kContact, 2011},
      {Kind::kReallocate, 1974},    {Kind::kDelivery, 411}, {Kind::kSelect, 29},
      {Kind::kCrashWipe, 25},       {Kind::kReboot, 23},    {Kind::kLinkCut, 22},
      {Kind::kSample, 21}};
  std::int64_t total = 0;
  for (const Share& s : kMix) total += s.count;
  Rng rng(2016);
  std::vector<obs::Event> log;
  log.reserve(n);
  double contact_ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t pick = rng.uniform_int(0, total - 1);
    const Share* share = kMix;
    while (pick >= share->count) pick -= (share++)->count;
    obs::Event ev;
    ev.kind = share->kind;
    if (rng.bernoulli(0.05)) contact_ts += 240.0;
    ev.ts_s = contact_ts;
    ev.photo = static_cast<std::uint64_t>(rng.uniform_int(1, 6000));
    ev.node = static_cast<std::int32_t>(rng.uniform_int(1, 19));
    ev.peer = static_cast<std::int32_t>(rng.uniform_int(1, 19));
    switch (ev.kind) {
      case Kind::kCapture:
        ev.ts_s = contact_ts + rng.uniform(0.0, 240.0);
        ev.peer = -1;
        ev.bytes = 4'000'000;
        break;
      case Kind::kSelectCommit:
        ev.value = rng.bernoulli(0.59) ? 0.0 : rng.uniform(0.0, 0.01);
        ev.aux = rng.uniform(0.0, 0.01);
        break;
      case Kind::kTransfer:
        if (rng.bernoulli(0.02)) ev.outcome = obs::Event::Outcome::kMissing;
        ev.bytes = ev.outcome == obs::Event::Outcome::kOk ? 4'000'000 : 0;
        break;
      case Kind::kDelivery:
        ev.bytes = 4'000'000;
        break;
      case Kind::kGossip:
      case Kind::kCrashWipe:
        ev.value = static_cast<double>(rng.uniform_int(0, 40));
        break;
      case Kind::kContact:
        ev.value = static_cast<double>(rng.uniform_int(0, 1'500'000'000));
        ev.aux = rng.uniform(0.0, 1200.0);
        ev.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 40)) * 4'000'000;
        break;
      case Kind::kSample:
        ev.value = rng.uniform();
        ev.aux = rng.uniform();
        ev.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000));
        break;
      case Kind::kSelect:
      case Kind::kReallocate:
        ev.value = static_cast<double>(rng.uniform_int(0, 60));
        ev.aux = static_cast<double>(rng.uniform_int(0, 60));
        break;
      default:
        ev.peer = -1;
        break;
    }
    log.push_back(ev);
  }
  return log;
}

/// Events per serialized document: about one durable job's provenance view.
constexpr std::size_t kSinkBenchEvents = 100'000;

void BM_ProvenanceJsonl(benchmark::State& state) {
  ExperimentResult result;
  result.scheme = "OurScheme";
  for (const obs::Event& ev : durable_event_log(kSinkBenchEvents))
    if (obs::shows(obs::View::kProvenance, ev)) result.prov_events.push_back(ev);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = provenance_to_jsonl(result);
    bytes += static_cast<std::int64_t>(doc.size());
    benchmark::DoNotOptimize(doc.data());
  }
  state.SetBytesProcessed(bytes);
  state.counters["events"] = static_cast<double>(result.prov_events.size());
}
BENCHMARK(BM_ProvenanceJsonl)->Unit(benchmark::kMillisecond);

void BM_ChromeTraceJson(benchmark::State& state) {
  std::vector<obs::Event> events;
  for (const obs::Event& ev : durable_event_log(kSinkBenchEvents))
    if (obs::shows(obs::View::kTrace, ev)) events.push_back(ev);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = obs::chrome_trace_json(events);
    bytes += static_cast<std::int64_t>(doc.size());
    benchmark::DoNotOptimize(doc.data());
  }
  state.SetBytesProcessed(bytes);
  state.counters["events"] = static_cast<double>(events.size());
}
BENCHMARK(BM_ChromeTraceJson)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace photodtn

BENCHMARK_MAIN();
