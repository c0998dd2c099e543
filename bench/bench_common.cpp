#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "geometry/angle.h"
#include "util/env.h"

namespace photodtn::bench {

BenchOptions options() {
  BenchOptions o;
  try {
    o.runs = static_cast<std::size_t>(env_int(
        "PHOTODTN_BENCH_RUNS", 3, 1, static_cast<std::int64_t>(kMaxExperimentRuns)));
    o.scale = env_double("PHOTODTN_BENCH_SCALE", 0.3, 0.01, 1.0);
    o.calibrated = env_int("PHOTODTN_BENCH_CALIBRATED", 0, 0, 1) != 0;
  } catch (const std::invalid_argument& e) {
    // A mistyped knob must not quietly run a different experiment.
    std::cerr << e.what() << '\n';
    std::exit(2);
  }
  if (const char* dir = std::getenv("PHOTODTN_BENCH_CSV"); dir != nullptr && *dir != '\0') {
    // A mistyped directory must not silently lose every CSV of a long run.
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      std::cerr << "PHOTODTN_BENCH_CSV=" << dir << " is not an existing directory\n";
      std::exit(2);
    }
    o.csv_dir = dir;
  }
  return o;
}

namespace {

ScenarioConfig scale_scenario(ScenarioConfig cfg, double s) {
  cfg.trace.num_participants =
      std::max<NodeId>(10, static_cast<NodeId>(std::lround(cfg.trace.num_participants * s)));
  cfg.trace.duration_s *= s;
  cfg.photo_rate_per_hour *= s;
  // Scale per-node storage too: the paper's resource contention is set by
  // the ratio of generated photo bytes to total fleet storage (~5:1 for
  // Table I); keeping storage fixed while shrinking the workload would
  // remove the contention the schemes are being compared under.
  cfg.sim.node_storage_bytes =
      static_cast<std::uint64_t>(static_cast<double>(cfg.sim.node_storage_bytes) * s);
  // Keep at least one gateway and hourly-ish sampling resolution.
  cfg.sim.sample_interval_s = std::max(3600.0, cfg.sim.sample_interval_s * s);
  return cfg;
}

}  // namespace

ScenarioConfig scaled_mit(const BenchOptions& opts) {
  return scale_scenario(ScenarioConfig::mit(1), opts.scale);
}

ScenarioConfig scaled_cambridge(const BenchOptions& opts) {
  return scale_scenario(ScenarioConfig::cambridge(1), opts.scale);
}

std::uint64_t scaled_bytes(const BenchOptions& opts, double gigabytes) {
  return static_cast<std::uint64_t>(gigabytes * 1e9 * opts.scale);
}

double scaled_rate(const BenchOptions& opts, double photos_per_hour) {
  return photos_per_hour * opts.scale;
}

void maybe_calibrate(const BenchOptions& opts, ExperimentSpec& spec) {
  if (!opts.calibrated) return;
  apply_mit_calibration(spec.scenario, spec.photo_options);
}

void print_header(const std::string& figure, const std::string& claim,
                  const ScenarioConfig& cfg, const BenchOptions& opts) {
  std::cout << "==============================================================\n"
            << figure << "\n"
            << claim << "\n"
            << "--------------------------------------------------------------\n"
            << "Table I parameters in effect (scale=" << opts.scale
            << ", runs/point=" << opts.runs << "):\n"
            << "  participants=" << cfg.trace.num_participants
            << "  duration=" << cfg.trace.duration_s / 3600.0 << "h"
            << "  scan=" << cfg.trace.scan_interval_s << "s\n"
            << "  PoIs=" << cfg.num_pois << "  theta=" << rad_to_deg(cfg.effective_angle)
            << "deg  photo=" << cfg.photo_size_bytes / 1e6 << "MB  rate="
            << cfg.photo_rate_per_hour << "/h\n"
            << "  storage=" << static_cast<double>(cfg.sim.node_storage_bytes) / 1e9
            << "GB  bandwidth=" << cfg.sim.bandwidth_bytes_per_s / 1e6 << "MB/s"
            << "  P_thld=" << cfg.p_thld << "  PROPHET=(" << cfg.sim.prophet.p_init
            << "," << cfg.sim.prophet.beta << "," << cfg.sim.prophet.gamma << ")\n"
            << "==============================================================\n";
}

void emit(const Table& table, const BenchOptions& opts, const std::string& name) {
  table.print(std::cout);
  if (!opts.csv_dir.empty()) {
    const std::string path = opts.csv_dir + "/" + name + ".csv";
    if (!table.write_csv_file(path)) {
      std::cerr << "could not write csv to " << path << '\n';
      std::exit(1);
    }
    std::cout << "(csv mirrored to " << path << ")\n";
  }
  std::cout << std::endl;
}

}  // namespace photodtn::bench
