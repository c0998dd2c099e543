#include "cli_config.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "geometry/angle.h"

namespace photodtn::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"photodtn_cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliConfig, DefaultsMatchScaledMit) {
  const Args a = parse({"simulate"});
  const ScenarioConfig sc = scenario_from(a);
  EXPECT_EQ(sc.trace.num_participants, 29);  // 97 * 0.3
  EXPECT_NEAR(sc.trace.duration_s, 90.0 * 3600.0, 1.0);
  EXPECT_NEAR(sc.photo_rate_per_hour, 75.0, 1e-9);
  EXPECT_EQ(sc.num_pois, 250u);
}

TEST(CliConfig, CambridgePreset) {
  const Args a = parse({"simulate", "--trace", "cambridge", "--scale", "1.0"});
  const ScenarioConfig sc = scenario_from(a);
  EXPECT_EQ(sc.trace.num_participants, 54);
  EXPECT_NEAR(sc.trace.duration_s, 200.0 * 3600.0, 1.0);
}

TEST(CliConfig, ExplicitOverridesScaleCorrectly) {
  const Args a = parse({"simulate", "--scale", "0.5", "--rate", "100",
                        "--storage-gb", "1.2", "--pois", "80", "--theta-deg", "40"});
  const ScenarioConfig sc = scenario_from(a);
  EXPECT_NEAR(sc.photo_rate_per_hour, 50.0, 1e-9);  // 100 * 0.5
  EXPECT_EQ(sc.sim.node_storage_bytes, static_cast<std::uint64_t>(1.2e9 * 0.5));
  EXPECT_EQ(sc.num_pois, 80u);
  EXPECT_NEAR(sc.effective_angle, deg_to_rad(40.0), 1e-12);
}

TEST(CliConfig, HoursOverrideIsUnscaled) {
  const Args a = parse({"simulate", "--hours", "24"});
  const ScenarioConfig sc = scenario_from(a);
  EXPECT_NEAR(sc.trace.duration_s, 24.0 * 3600.0, 1e-9);
}

TEST(CliConfig, RejectsBadValues) {
  EXPECT_THROW(scenario_from(parse({"simulate", "--trace", "haggle"})),
               std::runtime_error);
  EXPECT_THROW(scenario_from(parse({"simulate", "--scale", "0"})), std::runtime_error);
  EXPECT_THROW(scenario_from(parse({"simulate", "--scale", "1.5"})), std::runtime_error);
  EXPECT_THROW(scenario_from(parse({"simulate", "--p-thld", "1.5"})),
               std::runtime_error);
  EXPECT_THROW(scenario_from(parse({"simulate", "--hours", "-3"})), std::runtime_error);
  // trace-gen reads its seed through scenario_from.
  EXPECT_THROW(scenario_from(parse({"trace-gen", "--seed", "-3"})), std::runtime_error);
  EXPECT_EQ(spec_from(parse({"simulate", "--runs", "5000"})).runs, 5000u);
  // Values that used to hang, wrap, reach an internal check, or cast a
  // NaN or negative double to uint64_t: each must fail naming its flag.
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"hours", "inf"},           {"rate", "inf"},
      {"pois", "-3"},             {"pois", "0"},
      {"scale", "nan"},           {"hours", "nan"},
      {"theta-deg", "nan"},       {"theta-deg", "0"},
      {"theta-deg", "361"},       {"max-contact-s", "nan"},
      {"fault-interrupt", "nan"}, {"fault-gossip-loss", "nan"},
      {"fault-crash-rate", "inf"}, {"p-thld", "nan"},
      {"storage-gb", "nan"},      {"storage-gb", "-1"},
      {"storage-gb", "1e11"},     {"rate", "-5"},
      // --runs 0 and -5 silently ran one run, 1e11 ended in a bare
      // std::bad_alloc, and --seed -3 ran seed 2^64 - 3.
      {"runs", "0"},              {"runs", "-5"},
      {"runs", "100000000000"},   {"runs", "5001"},
      {"seed", "-3"}};
  for (const auto& [flag, value] : bad) {
    const std::string opt = std::string("--") + flag;
    try {
      (void)spec_from(parse({"simulate", opt.c_str(), value}));
      ADD_FAILURE() << opt << " " << value << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(opt), std::string::npos) << e.what();
    }
  }
}

TEST(CliConfig, SpecCarriesRunsSeedAndCap) {
  const Args a = parse({"simulate", "--runs", "7", "--seed", "42",
                        "--max-contact-s", "45", "--trace-file", "t.csv"});
  const ExperimentSpec spec = spec_from(a);
  EXPECT_EQ(spec.runs, 7u);
  EXPECT_EQ(spec.seed_base, 42u);
  ASSERT_TRUE(spec.max_contact_duration_s.has_value());
  EXPECT_DOUBLE_EQ(*spec.max_contact_duration_s, 45.0);
  EXPECT_EQ(spec.trace_file, "t.csv");
  EXPECT_EQ(spec.photo_options.location_hotspots, 0u);
}

TEST(CliConfig, CalibratedFlagAppliesSubstitute) {
  const ExperimentSpec spec = spec_from(parse({"simulate", "--calibrated"}));
  EXPECT_GT(spec.photo_options.location_hotspots, 0u);
  EXPECT_GT(spec.scenario.trace.mean_on_s, 0.0);
}

TEST(CliConfig, SchemeListParsing) {
  EXPECT_EQ(schemes_from(parse({"simulate"})),
            (std::vector<std::string>{"OurScheme", "Spray&Wait"}));
  EXPECT_EQ(schemes_from(parse({"simulate", "--scheme", "Epidemic,PROPHET"})),
            (std::vector<std::string>{"Epidemic", "PROPHET"}));
  EXPECT_THROW(schemes_from(parse({"simulate", "--scheme", ","})), std::runtime_error);
}

TEST(CliConfig, UnknownOptionRejected) {
  const Args a = parse({"simulate", "--runz", "3"});
  (void)spec_from(a);
  (void)schemes_from(a);
  EXPECT_THROW(reject_unknown_options(a), std::runtime_error);
}

TEST(CliConfig, StrayPositionalsRejected) {
  const Args a = parse({"simulate", "oops.json"});
  try {
    reject_stray_positionals(a, 0);
    FAIL() << "stray positional was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("oops.json"), std::string::npos);
  }
  EXPECT_NO_THROW(reject_stray_positionals(parse({"simulate"}), 0));
  EXPECT_NO_THROW(reject_stray_positionals(parse({"trace-stats", "t.csv"}), 1));
}

TEST(CliConfig, PersistenceFlagsValidated) {
  // Disabled when no flag is given.
  EXPECT_FALSE(persistence_from(parse({"simulate"}), 1, 1).enabled());
  // Both checkpoint flags together, exactly one run and one scheme: ok.
  {
    const RunPersistence p = persistence_from(
        parse({"simulate", "--checkpoint-every", "500", "--checkpoint-out",
               "s.snap"}),
        1, 1);
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.checkpoint_every, 500u);
    EXPECT_EQ(p.checkpoint_path, "s.snap");
  }
  // Restore alone is a valid persistence mode.
  EXPECT_TRUE(
      persistence_from(parse({"simulate", "--restore-from", "s.snap"}), 1, 1)
          .enabled());
  // Each checkpoint flag requires the other.
  EXPECT_THROW(
      persistence_from(parse({"simulate", "--checkpoint-every", "500"}), 1, 1),
      std::runtime_error);
  EXPECT_THROW(
      persistence_from(parse({"simulate", "--checkpoint-out", "s.snap"}), 1, 1),
      std::runtime_error);
  // Negative interval.
  EXPECT_THROW(persistence_from(parse({"simulate", "--checkpoint-every", "-5",
                                       "--checkpoint-out", "s.snap"}),
                                1, 1),
               std::runtime_error);
  // Persistence is single-run, single-scheme only.
  const Args multi = parse({"simulate", "--checkpoint-every", "500",
                            "--checkpoint-out", "s.snap"});
  EXPECT_THROW(persistence_from(multi, 3, 1), std::runtime_error);
  EXPECT_THROW(persistence_from(multi, 1, 2), std::runtime_error);
}

}  // namespace
}  // namespace photodtn::cli
