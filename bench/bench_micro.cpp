// Micro-benchmarks (google-benchmark) for the algorithmic kernels: arc-set
// operations, footprint computation, expected-coverage evaluation (exact
// breakpoint integration vs literal 2^m enumeration vs Monte Carlo), the
// greedy selector (lazy vs plain), and PROPHET updates.
#include <benchmark/benchmark.h>

#include <optional>

#include "geometry/arc_set.h"
#include "routing/prophet.h"
#include "selection/exact_solver.h"
#include "selection/expected_coverage.h"
#include "selection/greedy_selector.h"
#include "selection/selection_env.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "util/thread_pool.h"
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

// ------------------------------------------------------- exact vs greedy

void BM_ExactReallocate(benchmark::State& state) {
  Workbench wb(10, static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_reallocate(wb.model, wb.pool, 1, 0.7,
                                              4ULL * 4'000'000, 2, 0.3,
                                              4ULL * 4'000'000, {}));
  }
}
BENCHMARK(BM_ExactReallocate)->Arg(4)->Arg(6)->Arg(8);

void BM_GreedyReallocateTiny(benchmark::State& state) {
  Workbench wb(10, static_cast<std::size_t>(state.range(0)), 7);
  const GreedySelector sel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.reallocate(wb.model, wb.pool, 1, 0.7,
                                            4ULL * 4'000'000, 2, 0.3,
                                            4ULL * 4'000'000, {}));
  }
}
BENCHMARK(BM_GreedyReallocateTiny)->Arg(4)->Arg(6)->Arg(8);

// ------------------------------------------------------------------ greedy

void BM_GreedySelect(benchmark::State& state) {
  const bool lazy = state.range(1) != 0;
  Workbench wb(250, static_cast<std::size_t>(state.range(0)));
  GreedyParams params;
  params.lazy = lazy;
  const GreedySelector sel(params);
  for (auto _ : state) {
    SelectionEnvironment env(wb.model, {});
    GreedyPhase phase(env, 0.7);
    benchmark::DoNotOptimize(
        sel.select(wb.model, wb.pool, 150ULL * 4'000'000, phase));
  }
}
BENCHMARK(BM_GreedySelect)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({400, 1});

void BM_Reallocate(benchmark::State& state) {
  Workbench wb(250, 300);
  const GreedySelector sel;
  const auto env = make_collections(wb, 4, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.reallocate(wb.model, wb.pool, 1, 0.6,
                                            150ULL * 4'000'000, 2, 0.3,
                                            150ULL * 4'000'000, env));
  }
}
BENCHMARK(BM_Reallocate);

// ------------------------------------------------- incremental engine (perf
// pipeline: tools/bench/bench_report.py consumes these by name)

/// Dense setting for the engine benches: PoIs packed into a small region so
/// every PoI is covered by many environment arcs — the regime where the
/// prefix-sum integration pays off over the per-segment scan.
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

/// GreedyPhase::gain with a switchable integral routine: the production
/// prefix-sum path or the legacy per-segment scan kept as the recorded
/// baseline. Mirrors GreedyPhase::gain exactly (audited by the differential
/// tests via PiecewiseMiss::integrate_excluding_scan).
CoverageValue gain_via(const SelectionEnvironment& env, const GreedyPhase& phase,
                       const PhotoFootprint& fp, double p, bool scan) {
  CoverageValue g;
  for (const PoiArc& pa : fp.arcs) {
    const PointOfInterest& poi = env.model().pois()[pa.poi_index];
    const ArcSet& own = phase.own_arcs(pa.poi_index);
    if (own.empty()) g.point += poi.weight * env.point_miss(pa.poi_index) * p;
    const double start = normalize_angle(pa.arc.start);
    const double end = start + std::min(pa.arc.length, kTwoPi);
    const PiecewiseMiss& pm = env.aspect_miss(pa.poi_index);
    auto integ = [&](double lo, double hi) {
      return scan ? pm.integrate_excluding_scan(lo, hi, own)
                  : pm.integrate_excluding(lo, hi, own);
    };
    double integral = 0.0;
    if (end <= kTwoPi) {
      integral = integ(start, end);
    } else {
      integral = integ(start, kTwoPi) + integ(0.0, end - kTwoPi);
    }
    g.aspect += poi.weight * p * integral;
  }
  return g;
}

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
  // would hollow out the bench show up in the report.
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

/// The same sweep through the legacy full-scan integration — the perf
/// baseline the JSON report derives the speedup against.
void BM_GreedyGainScan(benchmark::State& state) {
  DenseBench db(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  SelectionEnvironment env(db.model, db.collections);
  GreedyPhase phase(env, 0.7);
  for (std::size_t i = 0; i < 8 && i < db.cands.size(); ++i)
    phase.commit(*db.cands[i]);
  for (auto _ : state) {
    CoverageValue sum;
    for (const PhotoFootprint* fp : db.cands)
      sum += gain_via(env, phase, *fp, 0.7, /*scan=*/true);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GreedyGainScan)->Args({64, 256})->Args({250, 256});

/// The batched SoA sweep (GreedyPhase::gains_batch): all candidates in one
/// PoI-major pass. range = {pois, candidates}. Bit-identical to the
/// per-candidate loop of BM_GreedyGain.
void BM_GainsBatch(benchmark::State& state) {
  DenseBench db(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  SelectionEnvironment env(db.model, db.collections);
  GreedyPhase phase(env, 0.7);
  for (std::size_t i = 0; i < 8 && i < db.cands.size(); ++i)
    phase.commit(*db.cands[i]);
  std::vector<CoverageValue> gains(db.cands.size());
  for (auto _ : state) {
    phase.gains_batch(db.cands, gains);
    benchmark::DoNotOptimize(gains.data());
  }
}
BENCHMARK(BM_GainsBatch)->Args({64, 256})->Args({250, 256});

/// Full CELF selection against the dense environment, reporting the lazy
/// re-evaluation rate (reevals / gain_evals) — the fraction of heap pops
/// that had to be refreshed. Low is the whole point of CELF.
void BM_GreedyGainCelf(benchmark::State& state) {
  DenseBench db(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  std::vector<PhotoMeta> pool(db.pool.end() - static_cast<std::ptrdiff_t>(db.cands.size()),
                              db.pool.end());
  GreedyParams params;
  params.lazy = true;
  const GreedySelector sel(params);
  for (auto _ : state) {
    SelectionEnvironment env(db.model, db.collections);
    GreedyPhase phase(env, 0.7);
    benchmark::DoNotOptimize(sel.select(db.model, pool, 40ULL * 4'000'000, phase));
  }
  const SelectionStats& st = sel.last_stats();
  state.counters["reeval_rate"] =
      st.gain_evals == 0
          ? 0.0
          : static_cast<double>(st.reevals) / static_cast<double>(st.gain_evals);
  state.counters["commits"] = static_cast<double>(st.commits);
}
BENCHMARK(BM_GreedyGainCelf)->Args({64, 256})->Args({250, 256});

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
  for (auto _ : state) {
    SelectionEnvironment env(db.model, db.collections);
    GreedyPhase phase(env, 0.7);
    benchmark::DoNotOptimize(sel.select(db.model, pool, 40ULL * 4'000'000, phase));
  }
}
BENCHMARK(BM_GreedySelectEnv)->Arg(64)->Arg(256);

/// The fixed-seed tiny scenario shared by the e2e benches.
ExperimentSpec e2e_spec() {
  ExperimentSpec spec;
  spec.scenario = ScenarioConfig::mit(1);
  spec.scenario.num_pois = 40;
  spec.scenario.photo_rate_per_hour = 60.0;
  spec.scenario.trace.num_participants = 12;
  spec.scenario.trace.duration_s = 20.0 * 3600.0;
  spec.scenario.trace.base_pair_rate_per_hour = 0.3;
  spec.scenario.sim.node_storage_bytes = 40'000'000;
  spec.scheme = "OurScheme";
  return spec;
}

/// End-to-end: one tiny fixed-seed OurScheme run through the full simulator
/// (trace, workload, contacts, persistent engines). Tracked in
/// BENCH_e2e.json for trend regressions. With default (inert) faults this is
/// also the baseline for the fault-layer overhead check in BENCH_faults.json.
void BM_OurSchemeE2E(benchmark::State& state) {
  const ExperimentSpec spec = e2e_spec();
  for (auto _ : state) benchmark::DoNotOptimize(run_single(spec, 42));
}
BENCHMARK(BM_OurSchemeE2E);

/// The same scenario under an active fault plan (every class on:
/// interruptions, churn, jitter, gossip loss). The faulted/clean pair in
/// BENCH_faults.json separates "what disruption costs the mission" from
/// "what the fault layer costs the simulator".
void BM_OurSchemeE2E_Faults(benchmark::State& state) {
  ExperimentSpec spec = e2e_spec();
  FaultConfig& f = spec.scenario.sim.faults;
  f.contact_interrupt_prob = 0.25;
  f.interrupt_fraction_min = 0.2;
  f.interrupt_fraction_max = 0.9;
  f.crash_rate_per_hour = 0.05;
  f.mean_downtime_s = 2.0 * 3600.0;
  f.bandwidth_jitter = 0.3;
  f.gossip_loss_prob = 0.15;
  for (auto _ : state) benchmark::DoNotOptimize(run_single(spec, 42));
}
BENCHMARK(BM_OurSchemeE2E_Faults);

/// The same clean scenario with the obs layer fully on (metrics registry +
/// span recording). Paired with BM_OurSchemeE2E in BENCH_obs.json: the
/// enabled cost is advisory; the *disabled* cost is the gate — with obs off
/// (the plain BM_OurSchemeE2E, every record site a null/branch test),
/// BENCH_obs.json tracks the clean e2e median against its pre-obs prior.
void BM_OurSchemeE2E_Obs(benchmark::State& state) {
  ExperimentSpec spec = e2e_spec();
  spec.scenario.sim.obs.metrics = true;
  spec.scenario.sim.obs.trace = true;
  for (auto _ : state) benchmark::DoNotOptimize(run_single(spec, 42));
}
BENCHMARK(BM_OurSchemeE2E_Obs);

/// The same clean scenario with only the provenance tier on (per-photo
/// causal event log, no metrics/trace). Paired with BM_OurSchemeE2E in
/// BENCH_obs.json: the enabled cost is advisory (every capture, transfer
/// attempt, drop, and delivery appends one POD event); the *disabled* cost
/// rides the same clean-run gate as the obs pair — provenance off is one
/// null test of the recorder pointer per hook site.
void BM_OurSchemeE2E_Prov(benchmark::State& state) {
  ExperimentSpec spec = e2e_spec();
  spec.scenario.sim.obs.provenance = true;
  for (auto _ : state) benchmark::DoNotOptimize(run_single(spec, 42));
}
BENCHMARK(BM_OurSchemeE2E_Prov);

/// The same clean scenario with checkpointing enabled (a crash-safe
/// snapshot to disk every 500 events). Paired with BM_OurSchemeE2E in
/// BENCH_persist.json: the enabled cost is advisory (serialization + an
/// atomic file replace per checkpoint); the *disabled* cost — the plain
/// BM_OurSchemeE2E, where persistence is one unset-hook test per event —
/// is the gate against the pre-persist clean median.
void BM_OurSchemeE2E_Ckpt(benchmark::State& state) {
  const ExperimentSpec spec = e2e_spec();
  RunPersistence persistence;
  persistence.checkpoint_every = 500;
  persistence.checkpoint_path = "bench_ckpt.snap";
  for (auto _ : state)
    benchmark::DoNotOptimize(run_single(spec, 42, persistence));
}
BENCHMARK(BM_OurSchemeE2E_Ckpt);

/// Multi-seed experiment sweep on an explicit pool — the run_experiment hot
/// path that used to spawn one std::async thread per seed. range = pool
/// threads (0 = the shared pool). The aggregate is byte-identical across
/// thread counts; only wall-clock time moves.
void BM_ExperimentSweep(benchmark::State& state) {
  ExperimentSpec spec = e2e_spec();
  spec.runs = 4;
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::optional<ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  for (auto _ : state)
    benchmark::DoNotOptimize(run_experiment(spec, pool ? &*pool : nullptr));
}
BENCHMARK(BM_ExperimentSweep)->Arg(1)->Arg(4);

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

}  // namespace
}  // namespace photodtn

BENCHMARK_MAIN();
