#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_config.h"
#include "sim/result_io.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"

namespace photodtn {
namespace {

/// A scenario small enough for unit tests: 12 nodes, 20 hours, dense
/// contacts, few PoIs.
ExperimentSpec tiny_spec(const std::string& scheme, std::size_t runs = 2) {
  ExperimentSpec spec;
  spec.scenario = ScenarioConfig::mit(1);
  spec.scenario.num_pois = 30;
  spec.scenario.photo_rate_per_hour = 60.0;
  spec.scenario.trace.num_participants = 12;
  spec.scenario.trace.duration_s = 20.0 * 3600.0;
  spec.scenario.trace.base_pair_rate_per_hour = 0.3;
  spec.scenario.trace.gateway_fraction = 0.15;
  spec.scenario.trace.gateway_mean_interval_s = 3600.0;
  spec.scenario.sim.sample_interval_s = 2.0 * 3600.0;
  spec.scenario.sim.node_storage_bytes = 40'000'000;  // 10 photos
  spec.scheme = scheme;
  spec.runs = runs;
  return spec;
}

TEST(Experiment, SingleRunIsReproducible) {
  const ExperimentSpec spec = tiny_spec("OurScheme");
  const SimResult a = run_single(spec, 42);
  const SimResult b = run_single(spec, 42);
  EXPECT_EQ(a.delivered_photos, b.delivered_photos);
  EXPECT_EQ(a.counters.transfers, b.counters.transfers);
  EXPECT_DOUBLE_EQ(a.final_point_norm, b.final_point_norm);
  EXPECT_DOUBLE_EQ(a.final_aspect_norm, b.final_aspect_norm);
  ASSERT_EQ(a.samples.size(), b.samples.size());
}

TEST(Experiment, DifferentSeedsProduceDifferentRuns) {
  const ExperimentSpec spec = tiny_spec("OurScheme");
  const SimResult a = run_single(spec, 1);
  const SimResult b = run_single(spec, 2);
  EXPECT_NE(a.counters.photos_taken, b.counters.photos_taken);
}

TEST(Experiment, AggregatesRuns) {
  const ExperimentResult r = run_experiment(tiny_spec("Spray&Wait", 3));
  EXPECT_EQ(r.scheme, "Spray&Wait");
  EXPECT_EQ(r.point.runs(), 3u);
  EXPECT_EQ(r.final_point.count(), 3u);
  ASSERT_FALSE(r.sample_times.empty());
  // Samples cover [0, horizon].
  EXPECT_DOUBLE_EQ(r.sample_times.front(), 0.0);
  EXPECT_NEAR(r.sample_times.back(), 20.0 * 3600.0, 2.0 * 3600.0 + 1.0);
  // Coverage curves are monotone (the center never loses photos).
  const auto means = r.point.means();
  for (std::size_t i = 1; i < means.size(); ++i) EXPECT_GE(means[i] + 1e-12, means[i - 1]);
}

TEST(Experiment, BestPossibleGetsUnlimitedResources) {
  // BestPossible must at least match every constrained scheme.
  const ExperimentResult best = run_experiment(tiny_spec("BestPossible", 2));
  const ExperimentResult spray = run_experiment(tiny_spec("Spray&Wait", 2));
  EXPECT_GE(best.final_point.mean() + 1e-9, spray.final_point.mean());
  EXPECT_GE(best.final_aspect.mean() + 1e-9, spray.final_aspect.mean());
}

TEST(Experiment, ComparisonRunsAllSchemes) {
  const auto results = run_comparison(tiny_spec("OurScheme", 1),
                                      {"OurScheme", "Spray&Wait"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scheme, "OurScheme");
  EXPECT_EQ(results[1].scheme, "Spray&Wait");
}

TEST(Experiment, ComparisonFanOutMatchesPerSchemeExperiments) {
  // run_comparison runs every (scheme, seed) pair as one pool chunk; each
  // scheme's aggregate, run 0's events included, must be the one its own
  // run_experiment gives.
  ExperimentSpec spec = tiny_spec("OurScheme", 3);
  spec.scenario.sim.obs = obs::ObsConfig{true, true, true};
  const std::vector<std::string> schemes{"OurScheme", "Spray&Wait", "Epidemic"};
  const std::vector<ExperimentResult> fanned = run_comparison(spec, schemes);
  ASSERT_EQ(fanned.size(), schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    spec.scheme = schemes[s];
    const ExperimentResult alone = run_experiment(spec);
    EXPECT_EQ(experiment_result_to_json(fanned[s]), experiment_result_to_json(alone))
        << schemes[s];
    EXPECT_EQ(metrics_to_json({&fanned[s], 1}), metrics_to_json({&alone, 1}))
        << schemes[s];
    EXPECT_EQ(provenance_to_jsonl(fanned[s]), provenance_to_jsonl(alone)) << schemes[s];
    ASSERT_FALSE(alone.trace_events.empty());
    EXPECT_EQ(fanned[s].trace_events.size(), alone.trace_events.size()) << schemes[s];
  }
}

TEST(Experiment, ParallelAggregationIsDeterministic) {
  // Runs execute on worker threads; the aggregate statistics must not
  // depend on completion order.
  const ExperimentSpec spec = tiny_spec("OurScheme", 4);
  const ExperimentResult a = run_experiment(spec);
  const ExperimentResult b = run_experiment(spec);
  EXPECT_DOUBLE_EQ(a.final_point.mean(), b.final_point.mean());
  EXPECT_DOUBLE_EQ(a.final_aspect.mean(), b.final_aspect.mean());
  EXPECT_DOUBLE_EQ(a.final_delivered.mean(), b.final_delivered.mean());
  EXPECT_EQ(a.point.means(), b.point.means());
}

TEST(Experiment, PoolSizeDoesNotChangeAnyAggregateByte) {
  // The whole determinism contract in one assertion: a serial pool and a
  // 4-thread pool must yield byte-identical serialized results — every
  // float, every counter, every curve.
  const ExperimentSpec spec = tiny_spec("OurScheme", 4);
  ThreadPool serial(1), wide(4);
  const std::string a = experiment_result_to_json(run_experiment(spec, &serial));
  const std::string b = experiment_result_to_json(run_experiment(spec, &wide));
  EXPECT_EQ(a, b);
}

TEST(Experiment, NullPoolUsesTheSharedPool) {
  const ExperimentSpec spec = tiny_spec("OurScheme", 2);
  ThreadPool serial(1);
  const std::string a = experiment_result_to_json(run_experiment(spec, &serial));
  const std::string b = experiment_result_to_json(run_experiment(spec, nullptr));
  EXPECT_EQ(a, b);
}

TEST(Experiment, DeliveredIdSequenceIsReproducible) {
  const ExperimentSpec spec = tiny_spec("OurScheme");
  const SimResult a = run_single(spec, 9);
  const SimResult b = run_single(spec, 9);
  EXPECT_EQ(a.delivered_ids, b.delivered_ids);
}

TEST(Experiment, TraceFileReplayMatchesInMemoryTrace) {
  // Writing the synthetic trace to disk and replaying it through
  // spec.trace_file must give the same simulation as the generated one.
  const ExperimentSpec base = tiny_spec("OurScheme");
  SyntheticTraceConfig tc = base.scenario.trace;
  tc.seed = 5 ^ 0x7ace5eedULL;  // run_single's per-seed trace derivation
  const ContactTrace trace = generate_synthetic_trace(tc);
  const std::string path = ::testing::TempDir() + "/photodtn_replay.csv";
  ASSERT_TRUE(write_trace_file(path, trace));

  ExperimentSpec from_file = base;
  from_file.trace_file = path;
  const SimResult generated = run_single(base, 5);
  const SimResult replayed = run_single(from_file, 5);
  EXPECT_EQ(generated.delivered_ids, replayed.delivered_ids);
  EXPECT_EQ(generated.counters.transfers, replayed.counters.transfers);
}

TEST(Experiment, RejectsRunCountsOutsideTheBoundBeforeAllocating) {
  // A result slot per (scheme, run) is allocated up front, so an absurd run
  // count must fail before that allocation, not with std::bad_alloc or
  // std::length_error, and zero runs must not pass for one.
  for (const std::size_t runs :
       {std::size_t{0}, kMaxExperimentRuns + 1, std::size_t{100'000'000'000},
        std::numeric_limits<std::size_t>::max()}) {
    const ExperimentSpec spec = tiny_spec("Epidemic", runs);
    EXPECT_THROW((void)run_experiment(spec), std::invalid_argument) << runs;
    EXPECT_THROW((void)run_comparison(spec, {"Epidemic", "OurScheme"}),
                 std::invalid_argument)
        << runs;
  }
}

void expect_rejected_naming(const ExperimentSpec& spec, const std::string& field) {
  try {
    (void)run_single(spec, 1);
    ADD_FAILURE() << field << ": the run was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Experiment, RejectsRunSizesBeyondBoundsBeforeAllocating) {
  // Probed through `photodtn_cli simulate --scale 0.05 --runs 1 --seed 1
  // --scheme Epidemic`: each of these used to take all the memory it could
  // and end in a bare std::bad_alloc. Each must now fail at once, naming the
  // field that implies the oversized run.
  const std::vector<std::pair<std::vector<const char*>, std::string>> probed = {
      {{"--hours", "1e12"}, "horizon_s"},
      {{"--hours", "1e7"}, "horizon_s"},
      {{"--rate", "1e9"}, "photo_rate_per_hour"},
      {{"--pois", "1000000000"}, "num_pois"}};
  for (const auto& [flags, field] : probed) {
    std::vector<const char*> argv = {"photodtn_cli", "simulate", "--scale", "0.05",
                                     "--runs",       "1",        "--seed",  "1",
                                     "--scheme",     "Epidemic"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
    ExperimentSpec spec = cli::spec_from(args);
    spec.scheme = "Epidemic";
    expect_rejected_naming(spec, field);
  }

  ExperimentSpec samples = tiny_spec("Epidemic", 1);
  samples.scenario.sim.sample_interval_s = 0.5;  // 144,000 samples over 20 h
  expect_rejected_naming(samples, "sim.sample_interval_s");

  // A zero team size divided by zero in the synthetic trace (SIGFPE), and an
  // infinite region ran to the end with infinite PoI and photo coordinates.
  ExperimentSpec teams = tiny_spec("Epidemic", 1);
  teams.scenario.trace.team_size = 0;
  expect_rejected_naming(teams, "trace.team_size");
  ExperimentSpec region = tiny_spec("Epidemic", 1);
  region.scenario.region_m = std::numeric_limits<double>::infinity();
  expect_rejected_naming(region, "region_m");

  // The synthetic trace: one participant died in a check failure inside the
  // generator, a million started 5e11 pair iterations, a gateway fraction
  // above 1 made the command center its own gateway (a self-contact check
  // failure), a dense pair rate or a near-continuous gateway implies far
  // more contacts than any paper-scale run, and a gateway with neither an
  // interval nor a duration never left its loop.
  for (const NodeId participants : {1, 1'000'000}) {
    ExperimentSpec nodes = tiny_spec("Epidemic", 1);
    nodes.scenario.trace.num_participants = participants;
    expect_rejected_naming(nodes, "trace.num_participants");
  }
  ExperimentSpec gateways = tiny_spec("Epidemic", 1);
  gateways.scenario.trace.gateway_fraction = 1.5;
  expect_rejected_naming(gateways, "trace.gateway_fraction");
  ExperimentSpec dense = tiny_spec("Epidemic", 1);
  dense.scenario.trace.base_pair_rate_per_hour = 1e5;  // 1.6e9 contacts over 20 h
  expect_rejected_naming(dense, "trace.base_pair_rate_per_hour");
  ExperimentSpec visits = tiny_spec("Epidemic", 1);
  visits.scenario.trace.gateway_mean_interval_s = 1e-3;
  visits.scenario.trace.gateway_contact_duration_s = 0.0;  // 1.4e8 gateway contacts
  expect_rejected_naming(visits, "trace.gateway_mean_interval_s");
  ExperimentSpec stuck = tiny_spec("Epidemic", 1);
  stuck.scenario.trace.gateway_mean_interval_s = 0.0;
  stuck.scenario.trace.gateway_contact_duration_s = 0.0;
  expect_rejected_naming(stuck, "trace.gateway_contact_duration_s");

  // A replayed trace is checked against its own horizon, not the config's.
  const std::string path = ::testing::TempDir() + "/photodtn_long_horizon.csv";
  {
    std::ofstream f(path);
    f << "# photodtn-trace v1 nodes=3 horizon=1e15\nstart,duration,a,b\n10,60,1,2\n";
  }
  ExperimentSpec replay = tiny_spec("Epidemic", 1);
  replay.trace_file = path;
  expect_rejected_naming(replay, "horizon_s");
}

TEST(Experiment, ContactDurationCapReducesOrEqualsCoverage) {
  ExperimentSpec full = tiny_spec("OurScheme", 2);
  ExperimentSpec capped = full;
  capped.max_contact_duration_s = 30.0;
  const ExperimentResult rf = run_experiment(full);
  const ExperimentResult rc = run_experiment(capped);
  EXPECT_LE(rc.final_aspect.mean(), rf.final_aspect.mean() + 1e-9);
}

}  // namespace
}  // namespace photodtn
