// The benchmark's four workloads, their untraced entry points, and the
// traced replica of run_single built only from public library calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "spans.h"

namespace perfbench {

/// kBench is the scale every timed run uses; kTiny runs in well under a
/// second and backs the canary digest check and the self-test.
enum class Tier { kTiny, kBench };

struct Workload {
  std::string name;
  /// Scenario and run count; spec.scheme is overwritten per scheme.
  photodtn::ExperimentSpec spec;
  std::vector<std::string> schemes;
  /// Durable workload only: spec.runs independent jobs, one per seed, each a
  /// checkpointed run_single + aggregate_results + the three obs sinks (what
  /// one `photodtn_cli simulate --runs 1 --checkpoint-every` call does),
  /// fanned out over the shared pool.
  bool durable = false;
  std::uint64_t checkpoint_every = 0;
};

const std::vector<std::string>& workload_names();

/// Builds the workload for `seed` and writes the contact trace it replays
/// into `scratch_dir`. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, Tier tier,
                       const std::string& scratch_dir);

/// Path of a durable job's snapshot in `scratch_dir`; the replica's snapshots
/// are kept apart from the entry point's.
std::string snapshot_path(const std::string& scratch_dir, const Workload& w, bool replica,
                          std::size_t job);

/// What one execution of a workload produced.
struct Outputs {
  std::vector<photodtn::ExperimentResult> results;  // one per scheme, or per durable job
  std::uint64_t sink_bytes = 0;        // serialized obs sinks, all jobs (durable)
  std::uint64_t checkpoint_bytes = 0;  // last snapshot of every job, summed (durable)
  std::uint64_t checkpoints = 0;       // snapshots taken (replica only)
  /// Digest name ("scheme:<name>", "sink:<kind>", with "#<job>" appended
  /// for the durable workload) -> FNV-1a 64 hex.
  std::vector<std::pair<std::string, std::string>> digests;
};

/// Inputs one run is built from (what run_single generates).
struct RunInputs {
  photodtn::PoiList pois;
  std::unique_ptr<photodtn::CoverageModel> model;
  photodtn::ContactTrace trace;
  std::vector<photodtn::PhotoEvent> events;
};

/// Builds one run's inputs exactly as run_single does for a trace file,
/// spanning each call when `trace` is non-null. With `generate_trace` the
/// recorded trace is generated in memory instead of read back, which is the
/// work setup_s times: generate_uniform_pois, CoverageModel,
/// generate_synthetic_trace and PhotoGenerator::generate.
void build_inputs(const photodtn::ExperimentSpec& spec, std::uint64_t seed,
                  RunInputs& out, RunTrace* trace, bool generate_trace = false);

/// Trace contacts plus photo captures over every run of the workload.
std::uint64_t count_events(const Workload& w);

/// The workload through the library's own entry points (run_comparison, or
/// run_single + aggregate_results + the three sinks for the durable one).
/// Timed region ends before the digests are computed; `wall_s` receives it.
Outputs run_entry(const Workload& w, const std::string& scratch_dir, double& wall_s);

/// Per-run results the replica keeps for the per-layer counters.
struct ReplicaRun {
  photodtn::SimCounters counters;
  std::uint64_t contacts_in_trace = 0;
  std::uint64_t photo_events = 0;
};

struct Replica {
  Outputs outputs;
  double wall_s = 0.0;
  std::vector<std::unique_ptr<RunTrace>> traces;  // one per run, then main
  std::vector<ReplicaRun> runs;
};

/// The same workload through a replica of run_single with every layer
/// boundary spanned and the scheme wrapped in TracingScheme. `obs_metrics`
/// turns the registry counters on; `obs_sinks` (durable only) keeps the
/// workload's trace/provenance sinks; `restore_path` resumes a one-job
/// durable workload from a snapshot.
Replica run_replica(const Workload& w, const std::string& scratch_dir,
                    bool obs_metrics, bool obs_sinks,
                    const std::string& restore_path = "");

}  // namespace perfbench
