#include "sim/result_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

namespace photodtn {
namespace {

ExperimentResult tiny_result() {
  ExperimentSpec spec;
  spec.scenario = ScenarioConfig::mit(1);
  spec.scenario.num_pois = 20;
  spec.scenario.photo_rate_per_hour = 40.0;
  spec.scenario.trace.num_participants = 10;
  spec.scenario.trace.duration_s = 10.0 * 3600.0;
  spec.scenario.trace.base_pair_rate_per_hour = 0.4;
  spec.scenario.sim.sample_interval_s = 2.0 * 3600.0;
  spec.scheme = "Spray&Wait";
  spec.runs = 2;
  return run_experiment(spec);
}

TEST(ResultIo, SingleResultContainsAllSections) {
  const std::string json = experiment_result_to_json(tiny_result());
  for (const char* field :
       {"\"scheme\":\"Spray&Wait\"", "\"runs\":2", "\"sample_times_s\":",
        "\"point_mean\":", "\"point_ci95\":", "\"aspect_mean\":",
        "\"delivered_mean\":", "\"final\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ResultIo, ComparisonWrapsResultsArray) {
  const ExperimentResult r = tiny_result();
  const std::vector<ExperimentResult> results{r, r};
  const std::string json = comparison_to_json(results);
  EXPECT_EQ(json.rfind("{\"results\":[", 0), 0u);
  // Two scheme entries.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"scheme\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
}

TEST(ResultIo, MetricsBlockAbsentWhenObsOff) {
  // An obs-off run must serialize without any "metrics" key so golden
  // comparison files are unchanged by the obs layer's existence.
  const std::string json = experiment_result_to_json(tiny_result());
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(ResultIo, MetricsBlockRoundTrip) {
  ExperimentResult r = tiny_result();
  // Empty-but-present snapshot (runs counted, nothing recorded): the block
  // appears with empty sections.
  r.metrics.runs = 1;
  std::string json = experiment_result_to_json(r);
  EXPECT_NE(json.find("\"metrics\":{\"runs\":1,\"counters\":{}"), std::string::npos);

  // Populated snapshot: counters and a histogram serialize; the schema's
  // "gauges" key stays, always empty.
  obs::MetricsRegistry reg;
  reg.add(reg.counter("sim.contacts"), 9);
  reg.record(reg.histogram("selection.pool_size", {2, 8}), 3);
  r.metrics = reg.snapshot();
  json = experiment_result_to_json(r);
  for (const char* field :
       {"\"metrics\":", "\"sim.contacts\":9", "\"gauges\":{}",
        "\"selection.pool_size\":", "\"bounds\":[2,8]", "\"counts\":[0,1,0]"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // The metrics-only export wraps the same block under the schema tag.
  const std::vector<ExperimentResult> results{r};
  const std::string metrics_json = metrics_to_json(results);
  EXPECT_EQ(metrics_json.rfind("{\"schema\":\"photodtn-metrics/1\"", 0), 0u);
  EXPECT_NE(metrics_json.find("\"sim.contacts\":9"), std::string::npos);
}

TEST(ResultIo, WritesFile) {
  const ExperimentResult r = tiny_result();
  const std::string path = ::testing::TempDir() + "/photodtn_results.json";
  ASSERT_TRUE(write_comparison_json(path, std::vector<ExperimentResult>{r}));
  std::ifstream f(path);
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"results\""), std::string::npos);
  EXPECT_FALSE(write_comparison_json("/nonexistent/dir/x.json",
                                     std::vector<ExperimentResult>{r}));
}

}  // namespace
}  // namespace photodtn
