// Experiment runner: (scenario x scheme x seeds) -> averaged metric curves.
// Each run builds its own PoI list, trace, workload, and simulator from the
// run seed, so runs are independent and reproducible; runs fan out over the
// shared pool's lanes (util/thread_pool.h) — at most PHOTODTN_THREADS at
// once instead of one OS thread per seed — and merge in seed order, so the
// aggregate is byte-identical for any lane count (PHOTODTN_THREADS=1
// included).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dtn/simulator.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/photo_gen.h"
#include "workload/scenario.h"

namespace photodtn {

struct ExperimentSpec {
  ScenarioConfig scenario;
  /// Scheme factory name (see schemes/factory.h).
  std::string scheme = "OurScheme";
  /// Number of independent runs (the paper averages 50; benches default
  /// lower and honour PHOTODTN_BENCH_RUNS).
  std::size_t runs = 5;
  std::uint64_t seed_base = 1;
  /// Cap on contact duration (Fig. 6); nullopt = use the trace as-is.
  std::optional<double> max_contact_duration_s;
  /// Options forwarded to the photo generator.
  PhotoGenOptions photo_options;
  /// When non-empty, replay this trace file (trace/trace_io.h format)
  /// instead of generating a synthetic trace. Runs then differ only in PoI
  /// placement, the photo workload, and scheme randomness — exactly the
  /// paper's "trace-driven" methodology with a real imported trace.
  std::string trace_file;
};

/// Checkpoint/restore policy for a single run (persist/snapshot.h).
struct RunPersistence {
  /// Snapshot every N event-loop iterations (0 = never checkpoint).
  std::uint64_t checkpoint_every = 0;
  /// Where periodic snapshots land, written crash-safely (write-to-temp,
  /// rename) so a SIGKILL mid-write leaves the previous snapshot intact.
  /// Required when checkpoint_every > 0.
  std::string checkpoint_path;
  /// When non-empty, restore this snapshot before running; the run resumes
  /// from the checkpointed event and finishes byte-identically to an
  /// uninterrupted run of the same spec and seed.
  std::string restore_path;

  bool enabled() const {
    return checkpoint_every > 0 || !restore_path.empty();
  }
};

struct ExperimentResult {
  std::string scheme;
  std::vector<double> sample_times;
  SeriesStats point;      // normalized point coverage over time
  SeriesStats aspect;     // normalized aspect coverage (radians) over time
  SeriesStats delivered;  // photos delivered over time
  RunningStats final_point;
  RunningStats final_aspect;
  RunningStats final_full_view;
  RunningStats final_delivered;
  RunningStats total_transfers;
  RunningStats total_drops;
  // Fault-layer observability (all zero when the scenario runs clean);
  // lets the disruption ablations plot coverage against realized fault
  // intensity rather than only against the configured rates.
  RunningStats total_interrupted_contacts;
  RunningStats total_missed_contacts;
  RunningStats total_node_crashes;
  RunningStats total_gossip_losses;
  // Observability payloads (empty unless spec.scenario.sim.obs enables
  // that tier). Metrics are the per-run
  // snapshots merged in seed order (integer-valued, so byte-identical for
  // any pool size); trace_events are run 0's, the run a trace file depicts.
  obs::MetricsSnapshot metrics;
  std::vector<obs::Event> trace_events;
  // Provenance events are run 0's too (the run --provenance-out depicts);
  // empty unless spec.scenario.sim.obs.provenance is set.
  std::vector<obs::Event> prov_events;
};

/// One full simulation run; exposed so tests can drive single runs.
SimResult run_single(const ExperimentSpec& spec, std::uint64_t seed);

/// Same, with checkpoint/restore. Throws persist::SnapshotError when the
/// restore file is unreadable, corrupt, or from a different scenario; exits
/// non-zero paths are the caller's concern. A checkpoint that fails to
/// write (ENOSPC, bad directory) aborts the run with SnapshotError rather
/// than continuing silently un-checkpointed.
SimResult run_single(const ExperimentSpec& spec, std::uint64_t seed,
                     const RunPersistence& persistence);

/// Folds per-seed results (in seed order) into the aggregate. Exposed so a
/// checkpoint-resumed single run can be aggregated through the exact code
/// path run_experiment uses — its JSON output is then byte-comparable to
/// an uninterrupted --runs 1 experiment.
ExperimentResult aggregate_results(const ExperimentSpec& spec,
                                   std::vector<SimResult> results);

/// Most runs one experiment may ask for: 100x the paper's 50.
inline constexpr std::size_t kMaxExperimentRuns = 5000;

/// Runs `spec.runs` seeds (seed_base, seed_base+1, ...) in parallel on
/// `pool` (nullptr = the shared pool) and aggregates in seed order. Results
/// are byte-identical across pool sizes: each run writes its own slot and
/// the ordered merge folds them deterministically. Throws
/// std::invalid_argument, before anything is allocated, unless `spec.runs`
/// is in [1, kMaxExperimentRuns].
ExperimentResult run_experiment(const ExperimentSpec& spec, ThreadPool* pool);
ExperimentResult run_experiment(const ExperimentSpec& spec);

/// The same scenario under several schemes, in `schemes` order. Every
/// (scheme, seed) run is one chunk on the shared pool, so no scheme waits
/// for another's slowest seed; each scheme aggregates its runs in seed
/// order, exactly as run_experiment does. Same run bound as run_experiment.
std::vector<ExperimentResult> run_comparison(const ExperimentSpec& base,
                                             const std::vector<std::string>& schemes);

}  // namespace photodtn
