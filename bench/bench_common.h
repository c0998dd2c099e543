// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary runs with no arguments and prints the same rows/series
// the corresponding paper figure plots. Because the paper's full setup
// (97 nodes x 300 h x 50 runs per point) is a cluster-day of compute, the
// default configuration is a scaled-down scenario with the same *shape*;
// environment knobs restore fidelity:
//   PHOTODTN_BENCH_RUNS   — runs averaged per data point, an integer in
//                           [1, 5000] (default 3)
//   PHOTODTN_BENCH_SCALE  — scenario scale factor in [0.01, 1] (default 0.3):
//                           participants, trace duration, and photo rate all
//                           scale linearly; 1.0 reproduces Table I exactly
//   PHOTODTN_BENCH_CSV    — an existing directory to mirror each table into
//                           as CSV (optional; unset or empty writes none)
//   PHOTODTN_BENCH_CALIBRATED — 0 or 1 (default 0), see BenchOptions
#pragma once

#include <cstdint>
#include <string>

#include "sim/experiment.h"
#include "util/table.h"

namespace photodtn::bench {

struct BenchOptions {
  std::size_t runs = 3;
  double scale = 0.3;
  std::string csv_dir;
  /// PHOTODTN_BENCH_CALIBRATED=1: use the calibrated substitute (hotspot
  /// photo placement + device duty-cycling, workload/photo_gen.h) instead
  /// of the paper-literal uniform/always-on defaults.
  bool calibrated = false;
};

/// Reads the environment knobs. A value outside its range, one that does
/// not parse, or a PHOTODTN_BENCH_CSV that names no existing directory
/// prints a message naming it to stderr and exits with status 2.
BenchOptions options();

/// Table I scenario (MIT or Cambridge column) scaled by opts.scale.
ScenarioConfig scaled_mit(const BenchOptions& opts);
ScenarioConfig scaled_cambridge(const BenchOptions& opts);

/// A paper storage/rate value scaled consistently with the scenario.
std::uint64_t scaled_bytes(const BenchOptions& opts, double gigabytes);
double scaled_rate(const BenchOptions& opts, double photos_per_hour);

/// Applies the calibrated-substitute settings to a spec when opts ask for
/// it (no-op otherwise). Call after filling spec.scenario.
void maybe_calibrate(const BenchOptions& opts, ExperimentSpec& spec);

/// Prints the bench banner: figure id, claim being reproduced, and the
/// Table I parameters in effect.
void print_header(const std::string& figure, const std::string& claim,
                  const ScenarioConfig& cfg, const BenchOptions& opts);

/// Prints the table and mirrors it to CSV when PHOTODTN_BENCH_CSV is set.
/// A CSV that cannot be written prints its path to stderr and exits with
/// status 1.
void emit(const Table& table, const BenchOptions& opts, const std::string& name);

}  // namespace photodtn::bench
