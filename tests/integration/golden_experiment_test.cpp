// Golden end-to-end regression: a fixed-seed tiny experiment for every
// factory scheme, serialized key=value and compared against a checked-in
// golden file. Any change to the selection engine, the simulator loop, or
// the schemes that alters observable behavior shows up as a diff here —
// floating-point keys compare with 1e-9 relative tolerance so pure
// summation-order dust does not trip it.
//
// A second lock covers the sinks: the FNV-1a digest of every document the
// obs and result exporters write for the same runs with every obs tier on,
// so a change to the JSON bytes fails tier-1 even when it moves every
// output the same way.
//
// Regenerate after an *intended* behavior change with
//   PHOTODTN_REGEN_GOLDEN=1 ./photodtn_tests --gtest_filter='GoldenExperiment.*'
// and review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/chrome_trace.h"
#include "sim/experiment.h"
#include "sim/result_io.h"

#ifndef PHOTODTN_TEST_SOURCE_DIR
#error "PHOTODTN_TEST_SOURCE_DIR must point at the tests/ source directory"
#endif

namespace photodtn {
namespace {

const char* golden_path() {
  return PHOTODTN_TEST_SOURCE_DIR "/integration/golden/experiment_golden.txt";
}

const char* sink_digests_path() {
  return PHOTODTN_TEST_SOURCE_DIR "/integration/golden/sink_digests.txt";
}

using Lines = std::vector<std::pair<std::string, std::string>>;

bool regen_requested() {
  const char* regen = std::getenv("PHOTODTN_REGEN_GOLDEN");
  return regen != nullptr && std::string(regen) == "1";
}

void write_golden(const char* path, const char* test, const Lines& lines) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << "# Golden results for GoldenExperiment." << test << ".\n"
      << "# Regenerate with PHOTODTN_REGEN_GOLDEN=1 (see the test header).\n";
  for (const auto& [key, val] : lines) out << key << "=" << val << "\n";
}

void read_golden(const char* path, std::map<std::string, std::string>& golden) {
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with PHOTODTN_REGEN_GOLDEN=1 to create it";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << "malformed golden line: " << line;
    golden.emplace(line.substr(0, eq), line.substr(eq + 1));
  }
}

ExperimentSpec golden_spec(const std::string& scheme) {
  ExperimentSpec spec;
  spec.scenario = ScenarioConfig::mit(1);
  spec.scenario.num_pois = 24;
  spec.scenario.photo_rate_per_hour = 60.0;
  spec.scenario.trace.num_participants = 10;
  spec.scenario.trace.duration_s = 20.0 * 3600.0;
  spec.scenario.trace.base_pair_rate_per_hour = 0.3;
  spec.scenario.sim.sample_interval_s = 5.0 * 3600.0;
  spec.scenario.sim.node_storage_bytes = 40'000'000;  // 10 photos
  spec.scheme = scheme;
  return spec;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The fixed disruption plan for the faulted golden runs: every fault class
/// active at once (interruptions, churn, jitter, gossip loss) so a behavior
/// change anywhere in the fault layer shows up as a diff.
FaultConfig golden_fault_plan() {
  FaultConfig f;
  f.contact_interrupt_prob = 0.25;
  f.interrupt_fraction_min = 0.2;
  f.interrupt_fraction_max = 0.9;
  f.crash_rate_per_hour = 0.05;
  f.mean_downtime_s = 2.0 * 3600.0;
  f.bandwidth_jitter = 0.3;
  f.gossip_loss_prob = 0.15;
  return f;
}

/// Every factory scheme. OurScheme and Epidemic come first: they were the
/// first two locked, and this order keeps their golden lines in place.
const std::vector<std::string>& golden_schemes() {
  static const std::vector<std::string> names = {
      "OurScheme",     "Epidemic", "NoMetadata",   "Spray&Wait",
      "ModifiedSpray", "PhotoNet", "BestPossible", "PROPHET"};
  return names;
}

/// Ordered key=value serialization of the golden runs: each scheme once
/// clean and once under golden_fault_plan() (key prefix "<scheme>@faults"),
/// with the obs tiers `obs_cfg` switches on.
Lines compute_lines(const obs::ObsConfig& obs_cfg = {}) {
  Lines lines;
  for (const bool faulted : {false, true}) {
  for (const std::string& scheme : golden_schemes()) {
    ExperimentSpec spec = golden_spec(scheme);
    if (faulted) spec.scenario.sim.faults = golden_fault_plan();
    spec.scenario.sim.obs = obs_cfg;
    const SimResult r = run_single(spec, 42);
    const std::string prefix = faulted ? scheme + "@faults" : scheme;
    auto put = [&](const std::string& key, const std::string& val) {
      lines.emplace_back(prefix + "." + key, val);
    };
    put("final_point", fmt(r.final_coverage.point));
    put("final_aspect", fmt(r.final_coverage.aspect));
    put("final_point_norm", fmt(r.final_point_norm));
    put("final_aspect_norm", fmt(r.final_aspect_norm));
    put("delivered_photos", std::to_string(r.delivered_photos));
    put("contacts", std::to_string(r.counters.contacts));
    put("photos_taken", std::to_string(r.counters.photos_taken));
    put("transfers", std::to_string(r.counters.transfers));
    put("bytes_transferred", std::to_string(r.counters.bytes_transferred));
    put("drops", std::to_string(r.counters.drops));
    put("samples", std::to_string(r.samples.size()));
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
      const std::string p = "sample" + std::to_string(i) + ".";
      put(p + "time", fmt(r.samples[i].time));
      put(p + "point", fmt(r.samples[i].point_coverage));
      put(p + "aspect", fmt(r.samples[i].aspect_coverage));
      put(p + "delivered", std::to_string(r.samples[i].delivered_photos));
    }
    if (faulted) {
      // The realized disruption is part of the faulted contract: any drift
      // in the injector's sampling or the partial-transfer semantics moves
      // these before it moves coverage.
      put("interrupted_contacts", std::to_string(r.counters.interrupted_contacts));
      put("interrupted_transfers", std::to_string(r.counters.interrupted_transfers));
      put("partial_bytes", std::to_string(r.counters.partial_bytes));
      put("missed_contacts", std::to_string(r.counters.missed_contacts));
      put("node_crashes", std::to_string(r.counters.node_crashes));
      put("photos_missed_down", std::to_string(r.counters.photos_missed_down));
      put("gossip_losses", std::to_string(r.counters.gossip_losses));
    }
    // The delivery order itself is part of the contract (selection order
    // drives transmissions); record a digest rather than every id.
    std::uint64_t order_digest = 1469598103934665603ULL;  // FNV-1a
    for (const PhotoId id : r.delivered_ids) {
      order_digest ^= static_cast<std::uint64_t>(id);
      order_digest *= 1099511628211ULL;
    }
    put("delivery_order_digest", std::to_string(order_digest));
  }
  }
  return lines;
}

bool is_float_key(const std::string& key) {
  return key.find("point") != std::string::npos ||
         key.find("aspect") != std::string::npos ||
         key.find("time") != std::string::npos;
}

TEST(GoldenExperiment, MatchesCheckedInGolden) {
  const auto lines = compute_lines();

  if (regen_requested()) {
    write_golden(golden_path(), "MatchesCheckedInGolden", lines);
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }

  std::map<std::string, std::string> golden;
  read_golden(golden_path(), golden);
  if (HasFatalFailure()) return;
  EXPECT_EQ(golden.size(), lines.size()) << "golden key set drifted — regenerate";

  for (const auto& [key, val] : lines) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "key missing from golden: " << key;
    if (is_float_key(key)) {
      const double want = std::strtod(it->second.c_str(), nullptr);
      const double got = std::strtod(val.c_str(), nullptr);
      EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want))) << key;
    } else {
      EXPECT_EQ(val, it->second) << key;
    }
  }
}

TEST(GoldenExperiment, ObsOnLinesEqualObsOff) {
  // Metrics, trace and provenance all on: every hook site in all 8 schemes,
  // clean and faulted, records — and no golden line may move.
  const auto off = compute_lines();
  const auto on = compute_lines({.metrics = true, .trace = true, .provenance = true});
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) EXPECT_EQ(on[i], off[i]);
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// FNV-1a of every sink document for each golden run, clean and faulted,
/// with every obs tier on; each result is built the way run_experiment
/// builds one.
Lines compute_sink_digests() {
  Lines lines;
  for (const bool faulted : {false, true}) {
  for (const std::string& scheme : golden_schemes()) {
    ExperimentSpec spec = golden_spec(scheme);
    if (faulted) spec.scenario.sim.faults = golden_fault_plan();
    spec.scenario.sim.obs = {.metrics = true, .trace = true, .provenance = true};
    std::vector<SimResult> runs;
    runs.push_back(run_single(spec, 42));
    const ExperimentResult r = aggregate_results(spec, std::move(runs));
    const std::span<const ExperimentResult> one(&r, 1);
    const std::string prefix = (faulted ? scheme + "@faults" : scheme) + ".";
    lines.emplace_back(prefix + "metrics", fnv1a_hex(metrics_to_json(one)));
    lines.emplace_back(prefix + "trace",
                       fnv1a_hex(obs::chrome_trace_json(r.trace_events, &r.metrics)));
    lines.emplace_back(prefix + "provenance", fnv1a_hex(provenance_to_jsonl(r)));
    lines.emplace_back(prefix + "comparison", fnv1a_hex(comparison_to_json(one)));
  }
  }
  return lines;
}

TEST(GoldenExperiment, SinkBytesMatchCheckedInDigests) {
  const auto lines = compute_sink_digests();

  if (regen_requested()) {
    write_golden(sink_digests_path(), "SinkBytesMatchCheckedInDigests", lines);
    GTEST_SKIP() << "sink digests regenerated at " << sink_digests_path();
  }

  std::map<std::string, std::string> golden;
  read_golden(sink_digests_path(), golden);
  if (HasFatalFailure()) return;
  EXPECT_EQ(golden.size(), lines.size()) << "sink digest key set drifted — regenerate";
  for (const auto& [key, val] : lines) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "key missing from sink digests: " << key;
    EXPECT_EQ(val, it->second) << key;
  }
}

}  // namespace
}  // namespace photodtn
