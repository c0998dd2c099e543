// PhotoNet's incremental send/evict against the rescanning oracle
// (reference_photonet.h): both views of the event log, every SimCounters
// field and the delivery order must match. Sampled small scenarios crossed with
// sampled fault plans cover the broad surface; hand-built contacts pin each
// tie rule, the re-entry of evicted photos, the command center, and the
// replay of a receiver's cycling set up to a budget or a link cut.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dtn/simulator.h"
#include "schemes/photonet.h"
#include "schemes/reference_photonet.h"
#include "test_util.h"

namespace photodtn {
namespace {

constexpr std::uint64_t kPhoto = 4'000'000;  // test::make_photo's size

using Kind = obs::Event::Kind;
using test::expect_same_run;
using test::photos_of;
using test::run_recorded;

/// Transfers into a node of a photo that node dropped earlier in the same
/// contact: the ping-pong of an evicted photo re-entering the candidates.
/// A contact's events share its start time and end with its kContact
/// record.
std::size_t count_reentries(const SimResult& run) {
  std::set<std::pair<NodeId, PhotoId>> dropped;  // within the current contact
  std::size_t reentries = 0;
  double now = -1.0;
  for (const obs::Event& e : run.obs.trace_events) {
    if (e.ts_s != now) dropped.clear();
    now = e.ts_s;
    if (e.kind == Kind::kContact) dropped.clear();
    if (e.kind == Kind::kDrop) dropped.emplace(e.node, e.photo);
    if (e.kind == Kind::kTransfer && dropped.count({e.peer, e.photo}) != 0) ++reentries;
  }
  return reentries;
}

/// Directed calls in which the receiver's set returns, after a completed
/// transfer, to a set it held earlier in the same call: the calls whose steps
/// PhotoNet replays. The log does not hold the set, so each call keeps the
/// ids that its transfers and drops changed an odd number of times; the set
/// repeats exactly when those ids repeat. Contacts are told apart as in
/// count_reentries, and the receiver tells a contact's two calls apart.
std::size_t count_repeating_calls(const SimResult& run) {
  struct Call {
    std::set<PhotoId> flipped;
    std::set<std::set<PhotoId>> seen{std::set<PhotoId>{}};
    bool repeated = false;
  };
  std::map<NodeId, Call> calls;  // by receiver, within the current contact
  std::size_t repeating = 0;
  const auto close_contact = [&] {
    for (const auto& [receiver, call] : calls) repeating += call.repeated ? 1 : 0;
    calls.clear();
  };
  const auto flip = [&](NodeId receiver, PhotoId photo) -> Call& {
    Call& call = calls[receiver];
    if (call.flipped.erase(photo) == 0) call.flipped.insert(photo);
    return call;
  };
  double now = -1.0;
  for (const obs::Event& e : run.obs.trace_events) {
    if (e.ts_s != now) close_contact();
    now = e.ts_s;
    if (e.kind == Kind::kDrop) flip(e.node, e.photo);
    if (e.kind == Kind::kTransfer) {
      Call& call = flip(e.peer, e.photo);
      if (!call.seen.insert(call.flipped).second) call.repeated = true;
    }
    if (e.kind == Kind::kContact) close_contact();
  }
  close_contact();
  return repeating;
}

TEST(PhotoNetOracle, SampledScenariosUnderFaultPlansMatchReference) {
  // Small buffers and fast links, so most peer contacts fill the receiver
  // and ping-pong until the budget runs out. Every fourth plan runs clean.
  constexpr std::uint64_t kPlans = 40;
  std::uint64_t drops = 0;
  std::size_t reentries = 0;
  std::size_t faulted_repeating_calls = 0;
  for (std::uint64_t plan = 1; plan <= kPlans; ++plan) {
    const test::ChaosScenario sc = test::build_chaos_scenario(plan);
    const CoverageModel model(sc.pois, deg_to_rad(30.0));
    Rng rng(0x0AC1E + plan * 131);
    SimConfig cfg;
    cfg.node_storage_bytes = static_cast<std::uint64_t>(rng.uniform_int(2, 6)) * kPhoto;
    cfg.bandwidth_bytes_per_s = rng.uniform(2.0e4, 4.0e5);
    cfg.sample_interval_s = 3.0 * 3600.0;
    cfg.seed = plan;
    if (plan % 4 != 0) cfg.faults = test::random_fault_plan(rng, plan);

    test::ReferencePhotoNet oracle;
    PhotoNetScheme scheme;
    const SimResult want = run_recorded(model, sc.trace, sc.events, cfg, oracle);
    const SimResult got = run_recorded(model, sc.trace, sc.events, cfg, scheme);
    expect_same_run(want, got, "plan " + std::to_string(plan));
    drops += got.counters.drops;
    reentries += count_reentries(got);
    if (plan % 4 != 0) faulted_repeating_calls += count_repeating_calls(got);
  }
  // The matrix must actually reach eviction and re-entry, and the replay of a
  // repeated receiver set under faults.
  EXPECT_GT(drops, 1000u);
  EXPECT_GT(reentries, 100u);
  EXPECT_GT(faulted_repeating_calls, 1000u);
}

// ------------------------------------------------------- hand-built cases

/// Seeds stores directly: each captured photo goes to every node `holders`
/// lists for it. Contacts run the wrapped scheme.
class Seeded : public Scheme {
 public:
  Seeded(Scheme& inner, std::map<PhotoId, std::vector<NodeId>> holders)
      : inner_(inner), holders_(std::move(holders)) {}

  std::string name() const override { return inner_.name(); }
  void on_photo_taken(SimContext& ctx, NodeId, const PhotoMeta& photo) override {
    for (const NodeId n : holders_.at(photo.id)) ctx.store_photo(n, photo);
  }
  void on_contact(SimContext& ctx, ContactSession& session) override {
    inner_.on_contact(ctx, session);
  }

 private:
  Scheme& inner_;
  std::map<PhotoId, std::vector<NodeId>> holders_;
};

struct Case {
  std::vector<Contact> contacts;
  std::uint64_t storage_photos = 3;
  double bandwidth_bytes_per_s = kPhoto;  // one photo per contact-second
  /// (photo, the nodes holding it); captured at photo.taken_at.
  std::vector<std::pair<PhotoMeta, std::vector<NodeId>>> photos;
  FaultConfig faults;
};

PhotoMeta photo_at(PhotoId id, double x, double y, double taken_at,
                   std::uint64_t size = kPhoto) {
  return test::make_photo(x, y, 0.0, 200.0, 60.0, id, 1, size, taken_at);
}

/// Runs `c` under the oracle and the production scheme, requires identical
/// runs, and returns the production one.
SimResult run_both(const Case& c, const std::string& label) {
  const CoverageModel model{{test::make_poi(0.0, 0.0)}, deg_to_rad(30.0)};
  const ContactTrace trace{c.contacts, 3, 1000.0};
  SimConfig cfg;
  cfg.node_storage_bytes = c.storage_photos * kPhoto;
  cfg.bandwidth_bytes_per_s = c.bandwidth_bytes_per_s;
  cfg.sample_interval_s = 1e9;
  cfg.faults = c.faults;
  std::vector<PhotoEvent> events;
  std::map<PhotoId, std::vector<NodeId>> holders;
  for (const auto& [p, nodes] : c.photos) {
    events.push_back(PhotoEvent{p.taken_at, nodes.front(), p});
    holders[p.id] = nodes;
  }
  test::ReferencePhotoNet oracle;
  PhotoNetScheme scheme;
  Seeded seeded_oracle(oracle, holders);
  Seeded seeded(scheme, holders);
  const SimResult want = run_recorded(model, trace, events, cfg, seeded_oracle);
  SimResult got = run_recorded(model, trace, events, cfg, seeded);
  expect_same_run(want, got, label);
  return got;
}

TEST(PhotoNetOracle, EmptyReceiverTakesFirstInTakenAtIdOrder) {
  // Every candidate is +inf from an empty receiver, so the strict > from -1
  // keeps the first in (taken_at, id) order: id 5 (t=1) before id 7 (t=1)
  // and id 3 (t=2). The budget admits one photo.
  Case c;
  c.contacts = {{100.0, 1.0, 1, 2}};
  c.photos = {{photo_at(7, 0.0, 0.0, 1.0), {1}},
              {photo_at(5, 3000.0, 0.0, 1.0), {1}},
              {photo_at(3, 0.0, 3000.0, 2.0), {1}}};
  const SimResult r = run_both(c, "empty receiver");
  EXPECT_EQ(photos_of(r, Kind::kTransfer), (std::vector<PhotoId>{5}));
}

TEST(PhotoNetOracle, MutualNearestNeighbourTieEvictsByTakenAtThenId) {
  // Node 2 is full: 10 and 11 are each other's nearest neighbour and tie on
  // distance; 12 is far. The incoming far photo 20 evicts the earlier-taken
  // of the pair (11, although its id is larger), or the smaller id when
  // both were taken at the same time.
  for (const auto& [taken_at_10, victim] :
       {std::pair<double, PhotoId>{2.0, 11}, std::pair<double, PhotoId>{1.0, 10}}) {
    Case c;
    c.contacts = {{100.0, 1.0, 1, 2}};
    c.photos = {{photo_at(11, 0.0, 0.0, 1.0), {2}},
                {photo_at(10, 5.0, 0.0, taken_at_10), {2}},
                {photo_at(12, 2000.0, 0.0, 3.0), {2}},
                {photo_at(20, 0.0, 4000.0, 4.0), {1}}};
    const SimResult r = run_both(c, "tie, 10 taken at " + std::to_string(taken_at_10));
    EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{victim}));
  }
}

TEST(PhotoNetOracle, EvictedPhotoReentersAndPingPongsUntilBudgetRunsOut) {
  // 1 and 2 are a near pair, 3 is 4 units east of them, 4 is 10 units
  // north. Node 1 holds {1, 2, 3}; node 2 is full with {1, 2, 4}. Sending 3
  // evicts 1 (the earlier of the tied pair). Node 1 still holds 1, so 1 is a
  // candidate again; sending it evicts 2 (tied with 3, earlier), which comes
  // back next and evicts 1, and so on until the six-photo budget is spent.
  Case c;
  c.contacts = {{100.0, 6.0, 1, 2}};
  c.photos = {{photo_at(1, 0.0, 0.0, 1.0), {1, 2}},
              {photo_at(2, 5.0, 0.0, 2.0), {1, 2}},
              {photo_at(3, 2000.0, 0.0, 3.0), {1}},
              {photo_at(4, 0.0, 5000.0, 4.0), {2}}};
  const SimResult r = run_both(c, "re-entry");
  EXPECT_EQ(photos_of(r, Kind::kTransfer),
            (std::vector<PhotoId>{3, 1, 2, 1, 2, 1}));
  EXPECT_EQ(photos_of(r, Kind::kDrop),
            (std::vector<PhotoId>{1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(count_reentries(r), 5u);
}

/// Node 1 holds 1, 2 and 3; node 2 holds 4 with room for two more. Sending
/// 2 and 1 fills node 2; from then on each transfer evicts another of 1, 2
/// and 3, so node 2's set cycles through {4, 2, 3}, {4, 3, 1} and
/// {4, 1, 2}: three steps a cycle. `budget_photos` sets the contact's
/// length, so its budget, in photos.
Case three_step_cycle(double budget_photos) {
  Case c;
  c.contacts = {{100.0, budget_photos, 1, 2}};
  c.photos = {{photo_at(1, 0.0, 3000.0, 1.0), {1}},
              {photo_at(2, 4500.0, 2000.0, 2.0), {1}},
              {photo_at(3, 3500.0, 3000.0, 3.0), {1}},
              {photo_at(4, 3000.0, 6000.0, 4.0), {2}}};
  return c;
}

TEST(PhotoNetOracle, ThreeStepCycleIsReplayedWholeUntilTheBudgetRunsOut) {
  // Eleven photos: two to fill node 2, then three whole cycles, the first
  // scanned and the other two replayed.
  const SimResult r = run_both(three_step_cycle(11.0), "three-step cycle");
  EXPECT_EQ(photos_of(r, Kind::kTransfer),
            (std::vector<PhotoId>{2, 1, 3, 1, 2, 3, 1, 2, 3, 1, 2}));
  EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
  EXPECT_EQ(count_repeating_calls(r), 1u);
}

TEST(PhotoNetOracle, BudgetRunsOutInTheMiddleOfAReplayedCycle) {
  // Nine and a half photos: the replay sends one whole cycle and the first
  // step of the next, and the next photo does not fit the half left.
  const SimResult r = run_both(three_step_cycle(9.5), "budget mid-cycle");
  EXPECT_EQ(photos_of(r, Kind::kTransfer),
            (std::vector<PhotoId>{2, 1, 3, 1, 2, 3, 1, 2, 3}));
  EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{1, 2, 3, 1, 2, 3, 1}));
  EXPECT_EQ(r.counters.bytes_transferred, 9 * kPhoto);
  EXPECT_EQ(r.counters.failed_transfers, 0u);
}

TEST(PhotoNetOracle, LinkCutInsideAReplayedCycleEndsTheCall) {
  // A ten-photo contact whose link dies three quarters of the way through:
  // seven photos arrive, then the replayed step that sends 2 drops its
  // victim 3 and is cut with half of 2 on the wire.
  Case c = three_step_cycle(10.0);
  c.faults.contact_interrupt_prob = 1.0;
  c.faults.interrupt_fraction_min = 0.75;
  c.faults.interrupt_fraction_max = 0.75;
  const SimResult r = run_both(c, "link cut mid-cycle");
  EXPECT_EQ(photos_of(r, Kind::kTransfer), (std::vector<PhotoId>{2, 1, 3, 1, 2, 3, 1}));
  EXPECT_EQ(photos_of(r, Kind::kDrop), (std::vector<PhotoId>{1, 2, 3, 1, 2, 3}));
  EXPECT_EQ(photos_of(r, Kind::kLinkCut), (std::vector<PhotoId>{2}));
  EXPECT_EQ(r.counters.interrupted_transfers, 1u);
  EXPECT_EQ(r.counters.partial_bytes, kPhoto / 2);
}

TEST(PhotoNetOracle, ReplayedStepEvictsTwoPhotosForADoubleSizePhoto) {
  // Photo 3 is twice the size. Node 2 holds 1, 4 and 5 with room for four;
  // node 1 holds 2, 3 and 4. Sending 2 fills node 2. Then a three-step
  // cycle: 3 evicts 4 and 2, 2 evicts 3, and 4 fits without an eviction.
  // The twelve-photo budget runs that cycle two and two-thirds times.
  Case c;
  c.contacts = {{100.0, 12.0, 1, 2}};
  c.storage_photos = 4;
  c.photos = {{photo_at(1, 5500.0, 4000.0, 1.0), {2}},
              {photo_at(2, 3500.0, 3000.0, 2.0), {1}},
              {photo_at(3, 1500.0, 3500.0, 3.0, 2 * kPhoto), {1}},
              {photo_at(4, 2000.0, 3500.0, 4.0), {1, 2}},
              {photo_at(5, 1500.0, 2000.0, 5.0), {2}}};
  const SimResult r = run_both(c, "double-size photo");
  EXPECT_EQ(photos_of(r, Kind::kTransfer),
            (std::vector<PhotoId>{2, 3, 2, 4, 3, 2, 4, 3, 2}));
  EXPECT_EQ(photos_of(r, Kind::kDrop),
            (std::vector<PhotoId>{4, 2, 3, 4, 2, 3, 4, 2, 3}));
}

TEST(PhotoNetOracle, CandidatesTheReceiverHoldsAreSkipped) {
  // Node 2 already holds 2, so node 1 sends only 1 and 3, farthest from
  // node 2's set first; node 2 has nothing node 1 lacks.
  Case c;
  c.contacts = {{100.0, 10.0, 1, 2}};
  c.storage_photos = 5;
  c.photos = {{photo_at(1, 5.0, 0.0, 1.0), {1}},
              {photo_at(2, 0.0, 0.0, 2.0), {1, 2}},
              {photo_at(3, 4000.0, 0.0, 3.0), {1}}};
  const SimResult r = run_both(c, "receiver holds a candidate");
  EXPECT_EQ(photos_of(r, Kind::kTransfer), (std::vector<PhotoId>{3, 1}));
  EXPECT_EQ(r.counters.drops, 0u);
}

TEST(PhotoNetOracle, CommandCenterNeverEvictsAndOnlyGrows) {
  // Buffers hold 3 photos, but the center's store is unbounded: two
  // deliveries of 3 each leave it with 6 and no drop anywhere.
  Case c;
  c.contacts = {{100.0, 10.0, 0, 1}, {200.0, 10.0, 0, 2}};
  c.photos = {{photo_at(1, 0.0, 0.0, 1.0), {1}},
              {photo_at(2, 5.0, 0.0, 2.0), {1}},
              {photo_at(3, 4000.0, 0.0, 3.0), {1}},
              {photo_at(4, 1.0, 0.0, 4.0), {2}},
              {photo_at(5, 0.0, 4000.0, 5.0), {2}},
              {photo_at(6, 2000.0, 2000.0, 6.0), {2}}};
  const SimResult r = run_both(c, "command center");
  EXPECT_EQ(r.delivered_photos, 6u);
  EXPECT_EQ(r.counters.drops, 0u);
  // Farthest-first into the center: 1 first (every distance +inf), then the
  // far 3 before 1's neighbour 2; then node 2's photos against the center's
  // set {1, 2, 3}: the far 5, then 6, then 4 next to 1.
  EXPECT_EQ(r.delivered_ids, (std::vector<PhotoId>{1, 3, 2, 5, 6, 4}));
}

}  // namespace
}  // namespace photodtn
