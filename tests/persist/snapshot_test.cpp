// Checkpoint/restore contract tests (persist/snapshot.h): resume equals
// continuous, re-checkpoint after restore is byte-identical, and the guard
// rails (wrong scheme, wrong scenario, already-run simulator) fail cleanly.
#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dtn/simulator.h"
#include "obs/chrome_trace.h"
#include "persist/codec.h"
#include "persist/state_access.h"
#include "schemes/factory.h"
#include "test_util.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"
#include "workload/scenario.h"

namespace photodtn {
namespace {

/// Everything a run needs, with the model/trace owned so simulators can be
/// constructed repeatedly against identical inputs (the restore contract:
/// same scenario, fresh simulator).
struct Rig {
  explicit Rig(std::uint64_t seed = 11, bool obs_on = false) {
    ScenarioConfig sc = ScenarioConfig::mit(seed);
    sc.num_pois = 20;
    sc.photo_rate_per_hour = 40.0;
    sc.trace.num_participants = 10;
    sc.trace.duration_s = 12.0 * 3600.0;
    sc.trace.seed = seed ^ 0x7ace5eedULL;
    sc.sim.sample_interval_s = 2.0 * 3600.0;
    sc.sim.node_storage_bytes = 40'000'000;
    sc.sim.faults.contact_interrupt_prob = 0.15;
    sc.sim.faults.crash_rate_per_hour = 0.02;
    sc.sim.seed = seed ^ 0x51eedbeefULL;
    if (obs_on) {
      sc.sim.obs.metrics = true;
      sc.sim.obs.trace = true;
    }

    Rng root(seed);
    Rng poi_rng = root.split("pois");
    Rng photo_rng = root.split("photos");
    pois = generate_uniform_pois(sc.num_pois, sc.region_m, poi_rng);
    model = std::make_unique<CoverageModel>(pois, sc.effective_angle);
    model->set_quality_threshold(sc.quality_threshold);
    trace = generate_synthetic_trace(sc.trace);
    PhotoGenerator gen(sc, pois, PhotoGenOptions{});
    events = gen.generate(trace.horizon(), trace.num_nodes() - 1, photo_rng);
    cfg = sc.sim;
    p_thld = sc.p_thld;
  }

  std::unique_ptr<Simulator> make_sim() const {
    return std::make_unique<Simulator>(*model, trace, events, cfg);
  }
  std::unique_ptr<Scheme> make_scheme(const std::string& name) const {
    SchemeOptions opts;
    opts.p_thld = p_thld;
    return ::photodtn::make_scheme(name, opts);
  }

  PoiList pois;
  std::unique_ptr<CoverageModel> model;
  ContactTrace trace;
  std::vector<PhotoEvent> events;
  SimConfig cfg;
  double p_thld = 0.8;
};

/// Runs to completion, capturing a snapshot at event `at` on the way.
SimResult run_capturing(const Rig& rig, const std::string& scheme_name,
                        std::uint64_t at, std::string* snapshot) {
  auto sim = rig.make_sim();
  auto scheme = rig.make_scheme(scheme_name);
  sim->set_checkpoint_hook([&](std::uint64_t event) {
    if (event == at) *snapshot = persist::checkpoint(*sim, *scheme);
  });
  return sim->run(*scheme);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].time, b.samples[i].time) << "sample " << i;
    EXPECT_EQ(a.samples[i].point_coverage, b.samples[i].point_coverage)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].aspect_coverage, b.samples[i].aspect_coverage)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].full_view_coverage, b.samples[i].full_view_coverage)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].delivered_photos, b.samples[i].delivered_photos)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].bytes_transferred, b.samples[i].bytes_transferred)
        << "sample " << i;
  }
  EXPECT_EQ(a.final_coverage.point, b.final_coverage.point);
  EXPECT_EQ(a.final_coverage.aspect, b.final_coverage.aspect);
  EXPECT_EQ(a.final_point_norm, b.final_point_norm);
  EXPECT_EQ(a.final_aspect_norm, b.final_aspect_norm);
  EXPECT_EQ(a.delivered_photos, b.delivered_photos);
  EXPECT_EQ(a.delivered_ids, b.delivered_ids);
  EXPECT_EQ(a.counters.contacts, b.counters.contacts);
  EXPECT_EQ(a.counters.photos_taken, b.counters.photos_taken);
  EXPECT_EQ(a.counters.transfers, b.counters.transfers);
  EXPECT_EQ(a.counters.bytes_transferred, b.counters.bytes_transferred);
  EXPECT_EQ(a.counters.failed_transfers, b.counters.failed_transfers);
  EXPECT_EQ(a.counters.drops, b.counters.drops);
  EXPECT_EQ(a.counters.interrupted_contacts, b.counters.interrupted_contacts);
  EXPECT_EQ(a.counters.interrupted_transfers, b.counters.interrupted_transfers);
  EXPECT_EQ(a.counters.partial_bytes, b.counters.partial_bytes);
  EXPECT_EQ(a.counters.missed_contacts, b.counters.missed_contacts);
  EXPECT_EQ(a.counters.node_crashes, b.counters.node_crashes);
  EXPECT_EQ(a.counters.photos_lost_to_crash, b.counters.photos_lost_to_crash);
  EXPECT_EQ(a.counters.photos_missed_down, b.counters.photos_missed_down);
  EXPECT_EQ(a.counters.gossip_losses, b.counters.gossip_losses);
}

class SnapshotSchemes : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotSchemes, ResumeEqualsContinuous) {
  const Rig rig;
  // Total event count of this scenario, to place the late checkpoint.
  std::uint64_t total = 0;
  {
    auto sim = rig.make_sim();
    auto scheme = rig.make_scheme(GetParam());
    sim->run(*scheme);
    total = sim->event_index();
  }
  ASSERT_GT(total, 10u);
  // k = 1 (almost nothing happened), a mid-run point, and a late point.
  for (const std::uint64_t at : {std::uint64_t{1}, total / 2, total - 2}) {
    std::string snap;
    const SimResult continuous = run_capturing(rig, GetParam(), at, &snap);
    ASSERT_FALSE(snap.empty()) << "checkpoint at event " << at
                               << " never fired (run too short?)";
    auto sim = rig.make_sim();
    auto scheme = rig.make_scheme(GetParam());
    persist::restore(*sim, *scheme, snap);
    EXPECT_EQ(sim->event_index(), at);
    const SimResult resumed = sim->run(*scheme);
    expect_identical(continuous, resumed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStatefulSchemes, SnapshotSchemes,
                         ::testing::Values("OurScheme", "NoMetadata",
                                           "Spray&Wait", "ModifiedSpray",
                                           "PROPHET", "Epidemic"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n)
                             if (c == '&') c = '_';
                           return n;
                         });

TEST(Snapshot, ReCheckpointAfterRestoreIsByteIdentical) {
  const Rig rig(/*seed=*/11, /*obs_on=*/true);
  std::string snap;
  run_capturing(rig, "OurScheme", 300, &snap);
  ASSERT_FALSE(snap.empty());

  auto sim = rig.make_sim();
  auto scheme = rig.make_scheme("OurScheme");
  persist::restore(*sim, *scheme, snap);
  const std::string again = persist::checkpoint(*sim, *scheme);
  EXPECT_EQ(snap, again);
}

TEST(Snapshot, ResumeEqualsContinuousWithObs) {
  const Rig rig(/*seed=*/13, /*obs_on=*/true);
  std::string snap;
  const SimResult continuous = run_capturing(rig, "OurScheme", 250, &snap);
  ASSERT_FALSE(snap.empty());

  auto sim = rig.make_sim();
  auto scheme = rig.make_scheme("OurScheme");
  persist::restore(*sim, *scheme, snap);
  const SimResult resumed = sim->run(*scheme);
  expect_identical(continuous, resumed);

  // The metrics snapshot and the trace view must also agree exactly.
  EXPECT_EQ(continuous.obs.metrics.counters, resumed.obs.metrics.counters);
  test::expect_same_events(continuous.obs.trace_events, resumed.obs.trace_events,
                           "trace view");
}

TEST(Snapshot, RestoredTraceOutlivesTheSimulator) {
  // A resumed run's trace events include ones restored from the snapshot.
  // They are rendered after the Simulator is gone, as the CLI does for
  // `simulate --restore-from --trace-out`; under ASan anything they still
  // borrowed from the simulator shows up here as a use after free.
  const Rig rig(/*seed=*/13, /*obs_on=*/true);
  std::string snap;
  const SimResult continuous = run_capturing(rig, "OurScheme", 250, &snap);
  ASSERT_FALSE(snap.empty());

  SimResult resumed;
  {
    auto sim = rig.make_sim();
    auto scheme = rig.make_scheme("OurScheme");
    persist::restore(*sim, *scheme, snap);
    resumed = sim->run(*scheme);
  }
  ASSERT_FALSE(resumed.obs.trace_events.empty());
  EXPECT_EQ(obs::chrome_trace_json(continuous.obs.trace_events, &continuous.obs.metrics),
            obs::chrome_trace_json(resumed.obs.trace_events, &resumed.obs.metrics));
}

TEST(Snapshot, PeekMetaDescribesTheCheckpoint) {
  const Rig rig;
  std::string snap;
  run_capturing(rig, "OurScheme", 150, &snap);
  ASSERT_FALSE(snap.empty());
  const persist::SnapshotMeta meta = persist::peek_meta(snap);
  EXPECT_EQ(meta.version, persist::kSnapshotVersion);
  EXPECT_EQ(meta.scheme, "OurScheme");
  EXPECT_EQ(meta.event_index, 150u);
  EXPECT_EQ(meta.seed, rig.cfg.seed);
}

TEST(Snapshot, RestoreRejectsWrongScheme) {
  const Rig rig;
  std::string snap;
  run_capturing(rig, "OurScheme", 100, &snap);
  auto sim = rig.make_sim();
  auto other = rig.make_scheme("Epidemic");
  EXPECT_THROW(persist::restore(*sim, *other, snap), persist::SnapshotError);
}

TEST(Snapshot, RestoreRejectsDifferentScenario) {
  const Rig rig;
  std::string snap;
  run_capturing(rig, "OurScheme", 100, &snap);
  Rig other_rig(/*seed=*/99);
  auto sim = other_rig.make_sim();
  auto scheme = other_rig.make_scheme("OurScheme");
  EXPECT_THROW(persist::restore(*sim, *scheme, snap), persist::SnapshotError);
}

TEST(Snapshot, RestoreRejectsUsedSimulator) {
  const Rig rig;
  std::string snap;
  run_capturing(rig, "OurScheme", 100, &snap);
  auto sim = rig.make_sim();
  auto scheme = rig.make_scheme("OurScheme");
  sim->run(*scheme);  // single-shot: this simulator has already run
  auto scheme2 = rig.make_scheme("OurScheme");
  EXPECT_THROW(persist::restore(*sim, *scheme2, snap), persist::SnapshotError);
}

TEST(Snapshot, CheckpointBeforeRunCapturesTheStart) {
  const Rig rig;
  auto sim = rig.make_sim();
  auto scheme = rig.make_scheme("Spray&Wait");
  scheme->init(*sim);
  const std::string snap = persist::checkpoint(*sim, *scheme);
  EXPECT_EQ(persist::peek_meta(snap).event_index, 0u);
}

// A snapshot's photo metadata must be finite. A NaN taken_at in a store of
// two or more photos fails the store's order audit, but one photo passes it
// and would then break the (taken_at, id) order of every later add.
TEST(PhotoMetaLoad, NonFiniteTakenAtInAOnePhotoStoreIsRejected) {
  PhotoMeta p = test::make_photo(0.0, 0.0, 0.0, 200.0, 60.0, /*id=*/7);
  p.taken_at = std::numeric_limits<double>::quiet_NaN();
  PhotoStore store;
  ASSERT_TRUE(store.add(p));
  persist::StateWriter w;
  persist::StateAccess::save(w, store);

  PhotoStore fresh;
  persist::StateReader r(w.bytes(), "photo store");
  try {
    persist::StateAccess::load(r, fresh);
    FAIL() << "a NaN taken_at was restored";
  } catch (const persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("taken_at"), std::string::npos) << e.what();
  }
}

TEST(PhotoMetaLoad, InfiniteLocationInACachedEntryIsRejected) {
  // A metadata-cache entry's photos go through the same loader.
  PhotoMeta p = test::make_photo(0.0, 0.0, 0.0, 200.0, 60.0, /*id=*/3);
  p.location.x = std::numeric_limits<double>::infinity();
  persist::StateWriter w;
  w.f64(0.8);   // p_thld
  w.u64(2);     // next revision
  w.u64(1);     // one entry
  w.i32(4);     // owner
  w.f64(10.0);  // observed_at
  w.f64(0.1);   // lambda
  w.f64(0.5);   // delivery_prob
  w.u64(1);     // revision
  w.u64(1);     // one photo
  persist::StateAccess::save(w, p);

  const CoverageModel model = test::single_poi_model();
  MetadataCache cache;
  persist::StateReader r(w.bytes(), "metadata cache");
  try {
    persist::StateAccess::load(r, cache, model);
    FAIL() << "an infinite location was restored";
  } catch (const persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("location.x"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace photodtn
