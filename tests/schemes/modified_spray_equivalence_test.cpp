// ModifiedSpray's memoized ranking and eviction scan against the re-ranking
// oracle (reference_modified_spray.h): both views of the event log (spray
// decrements included), every SimCounters field and the delivery order must
// match. Sampled small
// scenarios crossed with sampled fault plans cover the broad surface;
// hand-built contacts pin each tie rule and the strict eviction test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dtn/simulator.h"
#include "schemes/common.h"
#include "schemes/modified_spray.h"
#include "schemes/reference_modified_spray.h"
#include "test_util.h"

namespace photodtn {
namespace {

constexpr std::uint64_t kPhoto = 4'000'000;  // test::make_photo's size

TEST(ModifiedSprayEquivalence, SampledScenariosUnderFaultPlansMatchReference) {
  // Buffers of two to six photos, so most spray contacts reach make_room.
  // Every fourth plan runs clean.
  constexpr std::uint64_t kPlans = 40;
  std::uint64_t drops = 0;
  std::uint64_t transfers = 0;
  for (std::uint64_t plan = 1; plan <= kPlans; ++plan) {
    const test::ChaosScenario sc = test::build_chaos_scenario(plan);
    const CoverageModel model(sc.pois, deg_to_rad(30.0));
    Rng rng(0x5B4A7 + plan * 131);
    SimConfig cfg;
    cfg.node_storage_bytes = static_cast<std::uint64_t>(rng.uniform_int(2, 6)) * kPhoto;
    cfg.bandwidth_bytes_per_s = rng.uniform(2.0e4, 4.0e5);
    cfg.sample_interval_s = 3.0 * 3600.0;
    cfg.seed = plan;
    if (plan % 4 != 0) cfg.faults = test::random_fault_plan(rng, plan);

    test::ReferenceModifiedSpray oracle;
    ModifiedSprayScheme scheme;
    const SimResult want =
        test::run_recorded(model, sc.trace, sc.events, cfg, oracle);
    const SimResult got =
        test::run_recorded(model, sc.trace, sc.events, cfg, scheme);
    test::expect_same_run(want, got, "plan " + std::to_string(plan));
    drops += got.counters.drops;
    transfers += got.counters.transfers;
  }
  // The matrix must actually spray and evict.
  EXPECT_GT(transfers, 1000u);
  EXPECT_GT(drops, 300u);
}

// ------------------------------------------------------- hand-built cases

/// PoI 0 at the origin and PoI 1 just east of it: a `high` photo covers
/// both, a `low` one only PoI 0. Photos of one kind share their geometry, so
/// their standalone values are bitwise equal. A fresh model per run: the
/// footprint cache is keyed by photo id, and the cases reuse ids.
CoverageModel two_poi_model() {
  return CoverageModel{{test::make_poi(0.0, 0.0, 0), test::make_poi(50.0, 0.0, 1)},
                       deg_to_rad(30.0)};
}

PhotoMeta low(PhotoId id, double taken_at, std::uint64_t size = kPhoto) {
  return test::make_photo(0.0, -100.0, 90.0, 200.0, 30.0, id, 1, size, taken_at);
}

PhotoMeta high(PhotoId id, double taken_at, std::uint64_t size = kPhoto) {
  return test::make_photo(-100.0, 0.0, 0.0, 200.0, 30.0, id, 1, size, taken_at);
}

struct Case {
  std::vector<Contact> contacts;
  std::uint64_t storage_photos = 3;
  double bandwidth_bytes_per_s = kPhoto;  // one photo per contact-second
  /// (photo, the node taking it at photo.taken_at).
  std::vector<std::pair<PhotoMeta, NodeId>> photos;
};

/// Runs `c` under the oracle and the production scheme, requires identical
/// runs, and returns the production one.
SimResult run_both(const Case& c, const std::string& label) {
  const ContactTrace trace{c.contacts, 3, 1000.0};
  SimConfig cfg;
  cfg.node_storage_bytes = c.storage_photos * kPhoto;
  cfg.bandwidth_bytes_per_s = c.bandwidth_bytes_per_s;
  cfg.sample_interval_s = 1e9;
  std::vector<PhotoEvent> events;
  for (const auto& [p, node] : c.photos) events.push_back(PhotoEvent{p.taken_at, node, p});
  test::ReferenceModifiedSpray oracle;
  ModifiedSprayScheme scheme;
  const SimResult want =
      test::run_recorded(two_poi_model(), trace, events, cfg, oracle);
  SimResult got = test::run_recorded(two_poi_model(), trace, events, cfg, scheme);
  test::expect_same_run(want, got, label);
  return got;
}

using Kind = obs::Event::Kind;
using test::photos_of;

TEST(ModifiedSprayEquivalence, PhotoKindsHaveTheIntendedValues) {
  const CoverageModel model = two_poi_model();
  const CoverageValue l = standalone_value(model, low(1, 1.0));
  EXPECT_FALSE(l.is_zero());
  EXPECT_EQ(l, standalone_value(model, low(2, 7.0)));
  EXPECT_LT(l, standalone_value(model, high(3, 1.0)));
  EXPECT_EQ(standalone_value(model, high(3, 1.0)), standalone_value(model, high(4, 2.0)));
}

TEST(ModifiedSprayEquivalence, EqualValuesDeliverInTakenAtIdOrder) {
  // Equal values keep (taken_at, id) order: 5 (t=1), then 3 and 7 (t=2) by
  // id; the high photo 9, taken last, goes first.
  Case c;
  c.contacts = {{100.0, 10.0, 0, 1}};
  c.storage_photos = 5;
  c.photos = {{low(7, 2.0), 1}, {low(5, 1.0), 1}, {low(3, 2.0), 1}, {high(9, 3.0), 1}};
  const SimResult r = run_both(c, "delivery ties");
  EXPECT_EQ(r.delivered_ids, (std::vector<PhotoId>{9, 5, 3, 7}));
}

TEST(ModifiedSprayEquivalence, EqualValuesEvictLatestTakenAtThenLargestId) {
  // Node 2 is full of equal low photos; each high photo node 1 sprays evicts
  // the latest in (taken_at, id) order: 7 before 3 (same taken_at), then 5.
  Case c;
  c.contacts = {{100.0, 3.0, 1, 2}};
  c.photos = {{low(5, 1.0), 2}, {low(3, 2.0), 2}, {low(7, 2.0), 2},
              {high(20, 3.0), 1}, {high(21, 4.0), 1}, {high(22, 5.0), 1}};
  const SimResult r = run_both(c, "eviction ties");
  EXPECT_EQ(photos_of(r, Kind::kTransfer), (std::vector<PhotoId>{20, 21, 22}));
  EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{7, 3, 5}));
}

TEST(ModifiedSprayEquivalence, VictimWorthTheIncomingValueIsKept) {
  // Node 2's weakest photo is worth exactly the incoming 8: the strict test
  // evicts nothing and 8 stays home. The other way, node 1 has room for 5
  // and 3, and then 7 meets the same tie at node 1.
  Case c;
  c.contacts = {{100.0, 3.0, 1, 2}};
  c.photos = {{low(5, 1.0), 2}, {low(3, 2.0), 2}, {low(7, 2.0), 2}, {low(8, 3.0), 1}};
  const SimResult r = run_both(c, "equal value");
  EXPECT_EQ(photos_of(r, Kind::kTransfer), (std::vector<PhotoId>{5, 3}));
  EXPECT_TRUE(photos_of(r, Kind::kDrop).empty());
}

TEST(ModifiedSprayEquivalence, LargeIncomingPhotoEvictsSeveralVictims) {
  // The 8 MB high photo 20 needs two 4 MB victims out of the full node 2:
  // 7, then 3. Node 2 then sprays 5 back into node 1's free half.
  Case c;
  c.contacts = {{100.0, 10.0, 1, 2}};
  c.photos = {{low(5, 1.0), 2}, {low(3, 2.0), 2}, {low(7, 2.0), 2},
              {high(20, 3.0, 2 * kPhoto), 1}};
  const SimResult r = run_both(c, "several victims");
  EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{7, 3}));
  EXPECT_EQ(photos_of(r, Kind::kTransfer), (std::vector<PhotoId>{20, 5}));
}

TEST(ModifiedSprayEquivalence, EvictionsThatStillLeaveNoRoomStand) {
  // The 12 MB high photo 20 needs node 2 emptied: 3 and 5 go, then the
  // high 9 ties with it and stops the eviction. The two drops stand although
  // 20 is never sent, and 9 meets the same tie at node 1, full with 20.
  Case c;
  c.contacts = {{100.0, 10.0, 1, 2}};
  c.photos = {{low(5, 1.0), 2}, {low(3, 2.0), 2}, {high(9, 2.5), 2},
              {high(20, 3.0, 3 * kPhoto), 1}};
  const SimResult r = run_both(c, "partial eviction");
  EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{3, 5}));
  EXPECT_TRUE(photos_of(r, Kind::kTransfer).empty());
}

}  // namespace
}  // namespace photodtn
