#include "sim/experiment.h"

#include <iterator>
#include <stdexcept>
#include <string>

#include "persist/file_io.h"
#include "persist/snapshot.h"
#include "schemes/factory.h"
#include "trace/trace_io.h"
#include "util/check.h"
#include "workload/poi_gen.h"

namespace photodtn {

SimResult run_single(const ExperimentSpec& spec, std::uint64_t seed) {
  return run_single(spec, seed, RunPersistence{});
}

SimResult run_single(const ExperimentSpec& spec, std::uint64_t seed,
                     const RunPersistence& persistence) {
  const ScenarioConfig& sc = spec.scenario;
  // Before anything is allocated. A trace file's own horizon is checked
  // once the file is read, before the workload is generated over it.
  sc.validate(sc.trace.duration_s);

  Rng root(seed);
  Rng poi_rng = root.split("pois");
  Rng photo_rng = root.split("photos");

  const PoiList pois = generate_uniform_pois(sc.num_pois, sc.region_m, poi_rng);
  CoverageModel model(pois, sc.effective_angle);
  model.set_quality_threshold(sc.quality_threshold);

  SyntheticTraceConfig trace_cfg = sc.trace;
  trace_cfg.seed = seed ^ 0x7ace5eedULL;
  ContactTrace trace = spec.trace_file.empty() ? generate_synthetic_trace(trace_cfg)
                                               : read_trace_file(spec.trace_file);
  if (!spec.trace_file.empty()) sc.validate(trace.horizon());
  if (spec.max_contact_duration_s)
    trace = trace.with_max_duration(*spec.max_contact_duration_s);

  PhotoGenerator gen(sc, pois, spec.photo_options);
  std::vector<PhotoEvent> events =
      gen.generate(trace.horizon(), trace.num_nodes() - 1, photo_rng);

  SchemeOptions scheme_opts;
  scheme_opts.p_thld = sc.p_thld;
  std::unique_ptr<Scheme> scheme = make_scheme(spec.scheme, scheme_opts);
  SimConfig sim_cfg = sc.sim;
  sim_cfg.seed = seed ^ 0x51eedbeefULL;
  if (scheme->wants_unlimited_storage()) sim_cfg.unlimited_storage = true;
  if (scheme->wants_unlimited_bandwidth()) sim_cfg.unlimited_bandwidth = true;

  Simulator sim(model, trace, std::move(events), sim_cfg);

  if (!persistence.restore_path.empty()) {
    std::string snapshot;
    if (!persist::read_file(persistence.restore_path, snapshot)) {
      throw persist::SnapshotError("cannot read snapshot file '" +
                                   persistence.restore_path + "'");
    }
    persist::restore(sim, *scheme, snapshot);
  }
  if (persistence.checkpoint_every > 0) {
    PHOTODTN_CHECK_MSG(!persistence.checkpoint_path.empty(),
                       "checkpoint_every needs a checkpoint_path");
    sim.set_checkpoint_hook([&](std::uint64_t event) {
      if (event == 0 || event % persistence.checkpoint_every != 0) return;
      const std::string data = persist::checkpoint(sim, *scheme);
      if (!persist::atomic_write_file(persistence.checkpoint_path, data)) {
        // Continuing would mean the run silently loses its recovery points.
        throw persist::SnapshotError("cannot write checkpoint '" +
                                     persistence.checkpoint_path + "'");
      }
    });
  }
  return sim.run(*scheme);
}

namespace {

/// Runs seeds seed_base .. seed_base + runs - 1 of every spec on `pool`,
/// one chunk per (spec, seed) pair, and aggregates each spec's runs in seed
/// order. Each chunk writes its own slot, so the results do not depend on
/// the pool size or on which chunk finishes first.
std::vector<ExperimentResult> run_specs(const std::vector<ExperimentSpec>& specs,
                                        std::size_t runs, ThreadPool& pool) {
  if (runs < 1 || runs > kMaxExperimentRuns) {
    throw std::invalid_argument("runs must be in [1, " +
                                std::to_string(kMaxExperimentRuns) + "], got " +
                                std::to_string(runs));
  }
  std::vector<SimResult> results(specs.size() * runs);
  pool.parallel_chunks(results.size(), [&](std::size_t k) {
    const std::size_t seed = k % runs;
    SimResult r = run_single(specs[k / runs], specs[k / runs].seed_base + seed);
    if (seed != 0) {
      // aggregate_results keeps only run 0's events; dropping the rest as
      // each run finishes keeps the held results small.
      r.obs.trace_events = {};
      r.obs.prov_events = {};
    }
    results[k] = std::move(r);
  });
  std::vector<ExperimentResult> out;
  out.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto first = results.begin() + static_cast<std::ptrdiff_t>(s * runs);
    out.push_back(aggregate_results(
        specs[s], std::vector<SimResult>(std::make_move_iterator(first),
                                         std::make_move_iterator(first + runs))));
  }
  return out;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec, ThreadPool* pool) {
  ThreadPool& lanes = pool != nullptr ? *pool : ThreadPool::shared();
  return std::move(run_specs({spec}, spec.runs, lanes).front());
}

ExperimentResult aggregate_results(const ExperimentSpec& spec,
                                   std::vector<SimResult> results) {
  PHOTODTN_CHECK(!results.empty());
  ExperimentResult out;
  out.scheme = spec.scheme;
  for (const SimResult& r : results) {
    if (out.sample_times.empty()) {
      out.sample_times.reserve(r.samples.size());
      for (const SimSample& s : r.samples) out.sample_times.push_back(s.time);
    }
    std::vector<double> point, aspect, delivered;
    point.reserve(r.samples.size());
    for (const SimSample& s : r.samples) {
      point.push_back(s.point_coverage);
      aspect.push_back(s.aspect_coverage);
      delivered.push_back(static_cast<double>(s.delivered_photos));
    }
    out.point.add_series(point);
    out.aspect.add_series(aspect);
    out.delivered.add_series(delivered);
    out.final_point.add(r.final_point_norm);
    out.final_aspect.add(r.final_aspect_norm);
    if (!r.samples.empty()) out.final_full_view.add(r.samples.back().full_view_coverage);
    out.final_delivered.add(static_cast<double>(r.delivered_photos));
    out.total_transfers.add(static_cast<double>(r.counters.transfers));
    out.total_drops.add(static_cast<double>(r.counters.drops));
    out.total_interrupted_contacts.add(
        static_cast<double>(r.counters.interrupted_contacts));
    out.total_missed_contacts.add(static_cast<double>(r.counters.missed_contacts));
    out.total_node_crashes.add(static_cast<double>(r.counters.node_crashes));
    out.total_gossip_losses.add(static_cast<double>(r.counters.gossip_losses));
    if (!r.obs.metrics.empty()) out.metrics.merge(r.obs.metrics);
  }
  if (!results.front().obs.trace_events.empty())
    out.trace_events = std::move(results.front().obs.trace_events);
  if (!results.front().obs.prov_events.empty())
    out.prov_events = std::move(results.front().obs.prov_events);
  return out;
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  return run_experiment(spec, nullptr);
}

std::vector<ExperimentResult> run_comparison(const ExperimentSpec& base,
                                             const std::vector<std::string>& schemes) {
  std::vector<ExperimentSpec> specs(schemes.size(), base);
  for (std::size_t s = 0; s < schemes.size(); ++s) specs[s].scheme = schemes[s];
  return run_specs(specs, base.runs, ThreadPool::shared());
}

}  // namespace photodtn
