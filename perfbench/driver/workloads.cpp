#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>

#include "obs/chrome_trace.h"
#include "persist/file_io.h"
#include "persist/snapshot.h"
#include "schemes/factory.h"
#include "sim/result_io.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"
#include "workload/poi_gen.h"

namespace perfbench {

using namespace photodtn;

namespace {

/// The repository's scale convention (the CLI's and the figure benches'
/// --scale): participants, horizon, photo rate, storage and the sampling
/// interval shrink together, so storage contention stays at Table I's ratio.
ScenarioConfig scaled(ScenarioConfig cfg, double s) {
  cfg.trace.num_participants = std::max<NodeId>(
      10, static_cast<NodeId>(std::lround(cfg.trace.num_participants * s)));
  cfg.trace.duration_s *= s;
  cfg.photo_rate_per_hour *= s;
  cfg.sim.node_storage_bytes =
      static_cast<std::uint64_t>(static_cast<double>(cfg.sim.node_storage_bytes) * s);
  cfg.sim.sample_interval_s = std::max(3600.0, cfg.sim.sample_interval_s * s);
  return cfg;
}

struct Recipe {
  const char* name;
  bool cambridge;
  std::vector<std::string> schemes;
  double bench_scale;
  double tiny_scale;
  bool durable;
};

const std::vector<Recipe>& recipes() {
  static const std::vector<Recipe> r = {
      {"mit-ourscheme", false, {"OurScheme"}, 0.3, 0.2, false},
      {"cam-flood",
       true,
       {"BestPossible", "Epidemic", "Spray&Wait", "ModifiedSpray", "PROPHET"},
       0.45,
       0.3,
       false},
      {"cam-ourscheme-durable", true, {"OurScheme"}, 0.35, 0.3, true},
      {"mit-photonet", false, {"PhotoNet"}, 0.12, 0.06, false},
  };
  return r;
}

// Seeds (or durable jobs) per scheme. Eight runs on the pool's four lanes
// average one execution over the per-core speed swings of a shared VM;
// two keep the tiny tier's fan-out exercised.
constexpr std::size_t kBenchRuns = 8;
constexpr std::size_t kTinyRuns = 2;

/// Seed of the one synthetic trace each workload replays.
constexpr std::uint64_t kTraceSeed = 1;

SyntheticTraceConfig recorded_trace_config(const ExperimentSpec& spec) {
  SyntheticTraceConfig cfg = spec.scenario.trace;
  cfg.seed = kTraceSeed;
  return cfg;
}

std::string fnv1a_hex(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Sinks {
  std::string metrics, trace, provenance;
};

Sinks serialize_sinks(const ExperimentResult& r) {
  const std::span<const ExperimentResult> one(&r, 1);
  return Sinks{metrics_to_json(one), obs::chrome_trace_json(r.trace_events, &r.metrics),
               provenance_to_jsonl(r)};
}

/// Digests and sizes. Scheme digests cover comparison_to_json with the
/// metrics block removed, so a run with obs on must match one with obs off.
/// The durable workload's sinks are digested whole, per job.
void finish(const Workload& w, Outputs& out, const std::vector<Sinks>& sinks,
            const std::vector<std::string>& snapshots) {
  const auto job_tag = [&](std::size_t k) {
    return w.durable ? "#" + std::to_string(k) : std::string();
  };
  for (std::size_t k = 0; k < out.results.size(); ++k) {
    ExperimentResult& r = out.results[k];
    obs::MetricsSnapshot metrics = std::move(r.metrics);
    r.metrics = obs::MetricsSnapshot{};
    out.digests.emplace_back("scheme:" + r.scheme + job_tag(k),
                             fnv1a_hex(comparison_to_json(std::span(&r, 1))));
    r.metrics = std::move(metrics);
  }
  if (!w.durable) return;
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    const Sinks& s = sinks[k];
    out.sink_bytes += s.metrics.size() + s.trace.size() + s.provenance.size();
    if (s.metrics.empty()) continue;
    out.digests.emplace_back("sink:metrics" + job_tag(k), fnv1a_hex(s.metrics));
    out.digests.emplace_back("sink:trace" + job_tag(k), fnv1a_hex(s.trace));
    out.digests.emplace_back("sink:provenance" + job_tag(k), fnv1a_hex(s.provenance));
  }
  // The snapshot is sized, not digested: its format is internal and may
  // change (resume equality is what the self-test checks).
  for (const std::string& snapshot : snapshots) {
    std::error_code ec;
    out.checkpoint_bytes += std::filesystem::file_size(snapshot, ec);
    if (ec) throw std::runtime_error("durable workload left no checkpoint at " + snapshot);
  }
}

/// One durable job: the spec a `--runs 1 --seed <seed_base + job>` call sees.
ExperimentSpec durable_job_spec(const Workload& w, const ExperimentSpec& base, std::size_t job) {
  ExperimentSpec spec = base;
  spec.scheme = w.schemes.front();
  spec.runs = 1;
  spec.seed_base = base.seed_base + job;
  return spec;
}

/// Fresh snapshot paths, one per durable job (none for other workloads).
std::vector<std::string> fresh_snapshots(const std::string& dir, const Workload& w,
                                         bool replica) {
  std::vector<std::string> paths;
  if (!w.durable) return paths;
  for (std::size_t k = 0; k < w.spec.runs; ++k) {
    paths.push_back(snapshot_path(dir, w, replica, k));
    std::filesystem::remove(paths.back());
  }
  return paths;
}

/// The traced replica of run_single (sim/experiment.cpp): the same calls in
/// the same order, each wrapped in a span.
SimResult traced_run_single(const ExperimentSpec& spec, std::uint64_t seed,
                            const RunPersistence& persistence, RunTrace& rt,
                            ReplicaRun& stats, std::uint64_t& checkpoints) {
  RunTrace::Scope run_span(&rt, Layer::kSimRun);
  RunInputs in;
  build_inputs(spec, seed, in, &rt);
  stats.contacts_in_trace = in.trace.size();
  stats.photo_events = in.events.size();

  SchemeOptions scheme_opts;
  scheme_opts.p_thld = spec.scenario.p_thld;
  TracingScheme scheme(make_scheme(spec.scheme, scheme_opts), &rt);
  SimConfig sim_cfg = spec.scenario.sim;
  sim_cfg.seed = seed ^ 0x51eedbeefULL;
  if (scheme.wants_unlimited_storage()) sim_cfg.unlimited_storage = true;
  if (scheme.wants_unlimited_bandwidth()) sim_cfg.unlimited_bandwidth = true;

  RunTrace::Scope dtn_span(&rt, Layer::kDtnRun);
  Simulator sim(*in.model, in.trace, std::move(in.events), sim_cfg);
  if (!persistence.restore_path.empty()) {
    RunTrace::Scope s(&rt, Layer::kCheckpoint);
    std::string snapshot;
    if (!persist::read_file(persistence.restore_path, snapshot))
      throw std::runtime_error("cannot read snapshot " + persistence.restore_path);
    persist::restore(sim, scheme, snapshot);
  }
  if (persistence.checkpoint_every > 0) {
    sim.set_checkpoint_hook([&](std::uint64_t event) {
      if (event == 0 || event % persistence.checkpoint_every != 0) return;
      RunTrace::Scope s(&rt, Layer::kCheckpoint);
      const std::string data = persist::checkpoint(sim, scheme);
      if (!persist::atomic_write_file(persistence.checkpoint_path, data))
        throw std::runtime_error("cannot write checkpoint " +
                                 persistence.checkpoint_path);
      ++checkpoints;
    });
  }
  SimResult result = sim.run(scheme);
  stats.counters = result.counters;
  return result;
}

}  // namespace

std::string snapshot_path(const std::string& scratch_dir, const Workload& w, bool replica,
                          std::size_t job) {
  return scratch_dir + "/" + w.name + (replica ? ".replica." : ".") + std::to_string(job) +
         ".snap";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Recipe& r : recipes()) n.emplace_back(r.name);
    return n;
  }();
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, Tier tier,
                       const std::string& scratch_dir) {
  const auto it = std::find_if(recipes().begin(), recipes().end(),
                               [&](const Recipe& r) { return name == r.name; });
  if (it == recipes().end()) throw std::invalid_argument("unknown workload '" + name + "'");
  const bool bench = tier == Tier::kBench;
  Workload w;
  w.name = it->name;
  w.schemes = it->schemes;
  w.spec.scenario =
      scaled(it->cambridge ? ScenarioConfig::cambridge(seed) : ScenarioConfig::mit(seed),
             bench ? it->bench_scale : it->tiny_scale);
  w.spec.scheme = it->schemes.front();
  w.spec.runs = bench ? kBenchRuns : kTinyRuns;
  w.spec.seed_base = seed;
  if (it->durable) {
    w.durable = true;
    FaultConfig& f = w.spec.scenario.sim.faults;
    f.contact_interrupt_prob = 0.2;
    f.gossip_loss_prob = 0.1;
    obs::ObsConfig& o = w.spec.scenario.sim.obs;
    o.metrics = o.trace = o.provenance = true;
    w.checkpoint_every = bench ? 5000 : 2000;
  }
  // The contact trace plays the part of the paper's recorded MIT and
  // Cambridge traces: one fixed trace per workload and tier, replayed from a
  // file, while the workload seed draws PoIs, photos and scheme randomness.
  const ContactTrace trace = generate_synthetic_trace(recorded_trace_config(w.spec));
  w.spec.trace_file = scratch_dir + "/" + w.name + (bench ? ".bench" : ".tiny") + ".trace.csv";
  if (!write_trace_file(w.spec.trace_file, trace))
    throw std::runtime_error("cannot write " + w.spec.trace_file);
  // Device crashes (0.02/h per participant, storage wiped) belong to the
  // recorded environment too: sampled once from the trace seed and replayed
  // as scripted outages.
  if (w.durable) {
    FaultConfig churn;
    churn.crash_rate_per_hour = 0.02;
    const FaultInjector plan(churn, trace.num_nodes(), trace.horizon(), kTraceSeed);
    std::vector<Downtime>& outages = w.spec.scenario.sim.faults.scripted_downtime;
    for (const ChurnTransition& t : plan.transitions()) {
      if (!t.up) {
        outages.push_back({t.node, t.time, trace.horizon()});
      } else {
        for (auto o = outages.rbegin(); o != outages.rend(); ++o)
          if (o->node == t.node) {
            o->end = t.time;
            break;
          }
      }
    }
  }
  return w;
}

void build_inputs(const ExperimentSpec& spec, std::uint64_t seed, RunInputs& out,
                  RunTrace* trace, bool generate_trace) {
  const ScenarioConfig& sc = spec.scenario;
  PHOTODTN_CHECK_MSG(!spec.trace_file.empty() && !spec.max_contact_duration_s,
                     "benchmark runs replay a trace file, uncapped");
  Rng root(seed);
  Rng poi_rng = root.split("pois");
  Rng photo_rng = root.split("photos");
  {
    RunTrace::Scope s(trace, Layer::kWorkloadGen);
    out.pois = generate_uniform_pois(sc.num_pois, sc.region_m, poi_rng);
  }
  {
    RunTrace::Scope s(trace, Layer::kCoverageModel);
    out.model = std::make_unique<CoverageModel>(out.pois, sc.effective_angle);
    out.model->set_quality_threshold(sc.quality_threshold);
  }
  {
    RunTrace::Scope s(trace, Layer::kTraceLoad);
    out.trace = generate_trace ? generate_synthetic_trace(recorded_trace_config(spec))
                               : read_trace_file(spec.trace_file);
  }
  {
    RunTrace::Scope s(trace, Layer::kWorkloadGen);
    PhotoGenerator gen(sc, out.pois, spec.photo_options);
    out.events = gen.generate(out.trace.horizon(), out.trace.num_nodes() - 1, photo_rng);
  }
}

std::uint64_t count_events(const Workload& w) {
  std::uint64_t per_scheme = 0;
  for (std::size_t k = 0; k < w.spec.runs; ++k) {
    RunInputs in;
    build_inputs(w.spec, w.spec.seed_base + k, in, nullptr);
    per_scheme += in.trace.size() + in.events.size();
  }
  return per_scheme * w.schemes.size();
}

Outputs run_entry(const Workload& w, const std::string& scratch_dir, double& wall_s) {
  Outputs out;
  std::vector<Sinks> sinks;
  const std::vector<std::string> snaps = fresh_snapshots(scratch_dir, w, /*replica=*/false);
  const std::int64_t t0 = now_ns();
  if (!w.durable) {
    out.results = run_comparison(w.spec, w.schemes);
  } else {
    out.results.resize(w.spec.runs);
    sinks.resize(w.spec.runs);
    ThreadPool::shared().parallel_chunks(w.spec.runs, [&](std::size_t k) {
      const ExperimentSpec spec = durable_job_spec(w, w.spec, k);
      RunPersistence persistence;
      persistence.checkpoint_every = w.checkpoint_every;
      persistence.checkpoint_path = snaps[k];
      std::vector<SimResult> runs;
      runs.push_back(run_single(spec, spec.seed_base, persistence));
      out.results[k] = aggregate_results(spec, std::move(runs));
      sinks[k] = serialize_sinks(out.results[k]);
    });
  }
  wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  finish(w, out, sinks, snaps);
  return out;
}

Replica run_replica(const Workload& w, const std::string& scratch_dir, bool obs_metrics,
                    bool obs_sinks, const std::string& restore_path) {
  Replica rep;
  ExperimentSpec base = w.spec;
  if (!obs_sinks) base.scenario.sim.obs = obs::ObsConfig{};
  base.scenario.sim.obs.metrics = base.scenario.sim.obs.metrics || obs_metrics;
  const std::size_t runs = base.runs;
  PHOTODTN_CHECK_MSG(restore_path.empty() || (w.durable && runs == 1),
                     "only a one-job durable workload resumes from a snapshot");
  const std::vector<std::string> snaps = fresh_snapshots(scratch_dir, w, /*replica=*/true);
  for (std::size_t i = 0; i < w.schemes.size() * runs; ++i)
    rep.traces.push_back(std::make_unique<RunTrace>(static_cast<std::uint32_t>(i)));
  rep.traces.push_back(std::make_unique<RunTrace>(static_cast<std::uint32_t>(rep.traces.size())));
  RunTrace& main_trace = *rep.traces.back();
  rep.runs.resize(w.schemes.size() * runs);

  std::vector<Sinks> sinks;
  std::vector<std::uint64_t> checkpoints(rep.runs.size(), 0);
  const std::int64_t t0 = now_ns();
  if (w.durable) {
    // Each job aggregates and serializes on its own lane, inside its trace.
    rep.outputs.results.resize(runs);
    sinks.resize(runs);
    ThreadPool::shared().parallel_chunks(runs, [&](std::size_t k) {
      const ExperimentSpec spec = durable_job_spec(w, base, k);
      RunTrace& rt = *rep.traces[k];
      RunPersistence persistence;
      persistence.checkpoint_every = w.checkpoint_every;
      persistence.checkpoint_path = snaps[k];
      persistence.restore_path = restore_path;
      std::vector<SimResult> results;
      results.push_back(
          traced_run_single(spec, spec.seed_base, persistence, rt, rep.runs[k], checkpoints[k]));
      {
        RunTrace::Scope s(&rt, Layer::kSimAggregate);
        rep.outputs.results[k] = aggregate_results(spec, std::move(results));
      }
      if (obs_sinks) {
        RunTrace::Scope s(&rt, Layer::kObsSerialize);
        sinks[k] = serialize_sinks(rep.outputs.results[k]);
      }
    });
  } else {
    for (std::size_t si = 0; si < w.schemes.size(); ++si) {
      ExperimentSpec spec = base;
      spec.scheme = w.schemes[si];
      std::vector<SimResult> results(runs);
      ThreadPool::shared().parallel_chunks(runs, [&](std::size_t k) {
        const std::size_t slot = si * runs + k;
        results[k] = traced_run_single(spec, spec.seed_base + k, RunPersistence{},
                                       *rep.traces[slot], rep.runs[slot], checkpoints[slot]);
      });
      RunTrace::Scope s(&main_trace, Layer::kSimAggregate);
      rep.outputs.results.push_back(aggregate_results(spec, std::move(results)));
    }
  }
  rep.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const std::uint64_t c : checkpoints) rep.outputs.checkpoints += c;
  finish(w, rep.outputs, sinks, snaps);
  return rep;
}

}  // namespace perfbench
