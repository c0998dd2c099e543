#include "schemes/our_scheme.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

/// Builds a simulator over a single-PoI model with the given contacts and
/// photo events; 4 MB photos, generous defaults.
struct Rig {
  Rig(std::vector<Contact> contacts, NodeId nodes, double horizon,
      std::vector<PhotoEvent> events, SimConfig cfg = default_config())
      : model({make_poi(0.0, 0.0)}, deg_to_rad(30.0)),
        trace(std::move(contacts), nodes, horizon),
        sim(model, trace, std::move(events), cfg) {}

  static SimConfig default_config() {
    SimConfig cfg;
    cfg.node_storage_bytes = 20'000'000;  // five 4 MB photos
    cfg.bandwidth_bytes_per_s = 2.0e6;
    cfg.sample_interval_s = 1e9;  // effectively: only the final sample
    return cfg;
  }

  static PhotoEvent capture(double t, NodeId node, const PhotoMeta& meta) {
    PhotoMeta p = meta;
    p.taken_by = node;
    p.taken_at = t;
    return PhotoEvent{t, node, p};
  }

  CoverageModel model;
  ContactTrace trace;
  Simulator sim;
};

TEST(OurScheme, DeliversUsefulPhotoViaGateway) {
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  std::vector<PhotoEvent> events{
      Rig::capture(10.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 1, 2}, {200.0, 600.0, 0, 2}}, 3, 1000.0, std::move(events));
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);
  EXPECT_DOUBLE_EQ(r.final_point_norm, 1.0);
}

TEST(OurScheme, DropsIrrelevantPhotosAtContact) {
  // Node 1 has one useful and one irrelevant photo; after a contact the
  // reallocation should purge the irrelevant one from both nodes.
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, photo_viewing(CoverageModel({make_poi(0.0, 0.0)},
                                                       deg_to_rad(30.0)).pois()[0], 0.0)),
      Rig::capture(2.0, 1, test::make_photo(5000.0, 5000.0, 0.0))};
  Rig rig({{100.0, 600.0, 1, 2}}, 3, 1000.0, std::move(events));
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_GE(r.counters.drops, 1u);
}

TEST(OurScheme, RedundantCopiesPrunedButUsefulSpread) {
  // Two nodes meet holding the same view plus a distinct view: afterwards
  // the pair should jointly hold both views; the simulation must not lose
  // the distinct one.
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  const PhotoMeta front = photo_viewing(probe.pois()[0], 0.0);
  const PhotoMeta back = photo_viewing(probe.pois()[0], 180.0);
  std::vector<PhotoEvent> events{Rig::capture(1.0, 1, front), Rig::capture(2.0, 2, back)};
  Rig rig({{100.0, 600.0, 1, 2}}, 3, 1000.0, std::move(events));
  OurScheme scheme;
  rig.sim.run(scheme);
}

TEST(OurScheme, AcknowledgedPhotosAreEvictedAfterDelivery) {
  // Node 1 delivers its photo to the center, then (same contact) reselects
  // its own storage: the delivered photo has no residual value and is
  // dropped locally.
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  std::vector<PhotoEvent> events{Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 0, 1}}, 2, 1000.0, std::move(events));
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);
  EXPECT_EQ(r.counters.drops, 1u);  // local copy released after the ack
}

TEST(OurScheme, CapturePolicyKeepsBetterPhotoWhenFull) {
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.node_storage_bytes = 4'000'000;  // exactly one photo
  // First photo: irrelevant. Second: useful. The useful one must win.
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, test::make_photo(5000.0, 5000.0, 0.0)),
      Rig::capture(2.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 0, 1}}, 2, 1000.0, std::move(events), cfg);
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);
  EXPECT_DOUBLE_EQ(r.final_point_norm, 1.0);
}

TEST(OurScheme, CapturePolicyDiscardsIrrelevantWhenFull) {
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.node_storage_bytes = 4'000'000;
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0)),
      Rig::capture(2.0, 1, test::make_photo(5000.0, 5000.0, 0.0))};
  Rig rig({{100.0, 600.0, 0, 1}}, 2, 1000.0, std::move(events), cfg);
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);  // the useful one survived
}

TEST(OurScheme, MetadataCachePopulatedByContacts) {
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  std::vector<PhotoEvent> events{Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 1, 2}}, 3, 1000.0, std::move(events));
  OurScheme scheme;
  rig.sim.run(scheme);
  // Node 2 cached node 1's metadata (post-contact snapshot).
  const MetadataCache& c2 = scheme.cache_of(2);
  ASSERT_NE(c2.find(1), nullptr);
  EXPECT_EQ(c2.find(1)->snapshot->photos.size(), 1u);
  EXPECT_DOUBLE_EQ(c2.find(1)->observed_at, 100.0);
}

TEST(OurScheme, GossipSpreadsThirdPartyMetadata) {
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  std::vector<PhotoEvent> events{Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  // 1 meets 2, then 2 meets 3 shortly after: 3 learns about 1 via gossip.
  // (The gap must stay below the eq. (1) validity horizon: node 1's rate is
  // estimated as 1 contact / 100 s, so its entry expires ~160 s after the
  // snapshot at the P_thld = 0.8 default.)
  Rig rig({{100.0, 600.0, 1, 2}, {150.0, 600.0, 2, 3}}, 4, 2000.0, std::move(events));
  OurScheme scheme;
  rig.sim.run(scheme);
  const MetadataCache& c3 = scheme.cache_of(3);
  EXPECT_NE(c3.find(1), nullptr);
}

TEST(OurScheme, NoMetadataVariantKeepsNoCaches) {
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  std::vector<PhotoEvent> events{Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 1, 2}, {200.0, 600.0, 0, 2}}, 3, 1000.0, std::move(events));
  auto scheme = OurScheme::no_metadata();
  EXPECT_EQ(scheme->name(), "NoMetadata");
  const SimResult r = rig.sim.run(*scheme);
  // Still functions and delivers (just without acknowledgment knowledge).
  EXPECT_EQ(r.delivered_photos, 1u);
  EXPECT_THROW(scheme->cache_of(2), std::logic_error);
}

TEST(OurScheme, TruncatedContactNeverLosesUniqueUsefulPhotos) {
  // Budget allows zero transfers between two participants holding distinct
  // useful views; the contact must not drop anything (the paper's "any
  // unfinished transmission will be discarded" cannot destroy data).
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.bandwidth_bytes_per_s = 10.0;  // 6 KB per 10-min contact: nothing fits
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0)),
      Rig::capture(2.0, 2, photo_viewing(probe.pois()[0], 180.0))};
  Rig rig({{100.0, 600.0, 1, 2}}, 3, 1000.0, std::move(events), cfg);
  OurScheme scheme;
  rig.sim.run(scheme);
  // Each node still holds its own photo.
  EXPECT_EQ(rig.sim.node(1).store().size(), 1u);
  EXPECT_EQ(rig.sim.node(2).store().size(), 1u);
}

TEST(OurScheme, FullViewReachedWithEnoughViews) {
  // Twelve views tiling the circle, long contact, direct center link: the
  // center should end with the full 2*pi ring.
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.node_storage_bytes = 12ULL * 4'000'000;
  cfg.sample_interval_s = 1000.0;  // make sure a sample lands after the contact
  std::vector<PhotoEvent> events;
  for (int d = 0; d < 360; d += 30)
    events.push_back(Rig::capture(1.0 + d, 1, photo_viewing(probe.pois()[0], d)));
  Rig rig({{500.0, 3600.0, 0, 1}}, 2, 5000.0, std::move(events), cfg);
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  // The twelve 60-degree views overlap by half; the center needs only the
  // coverage-increasing subset (6-7 photos), and its ring must be complete.
  EXPECT_GE(r.delivered_photos, 6u);
  EXPECT_LT(r.delivered_photos, 12u);
  ASSERT_FALSE(r.samples.empty());
  EXPECT_DOUBLE_EQ(r.samples.back().full_view_coverage, 1.0);
}

TEST(OurScheme, CrashPurgesCachedEntryAndRebootGossipRepopulates) {
  // Node 1 is cached by node 2 at the first contact, then crashes (storage
  // wiped). The crash must purge node 1's entry from every cache at once —
  // not linger until the eq. (1) validity timer kills it — and node 1's own
  // cache/engine must go with the wipe. After the reboot a second contact
  // repopulates node 2's cache with a *fresh* snapshot of the post-crash
  // collection only; revision stamps must not resurrect pre-crash engine
  // state (exercised implicitly: sync_engine reconciles by revision and
  // audit()s under the audit preset).
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.faults.scripted_downtime = {{1, 200.0, 400.0}};
  // Starve the payload path (6 KB per contact: nothing fits) so collections
  // never change via transfers and the snapshots are exactly the captures.
  cfg.bandwidth_bytes_per_s = 10.0;
  PhotoMeta pre = photo_viewing(probe.pois()[0], 0.0);
  PhotoMeta post = photo_viewing(probe.pois()[0], 180.0);
  std::vector<PhotoEvent> events{Rig::capture(1.0, 1, pre),
                                 Rig::capture(410.0, 1, post)};
  const PhotoId post_id = post.id;
  Rig rig({{100.0, 600.0, 1, 2}, {450.0, 600.0, 1, 2}}, 3, 1000.0,
          std::move(events), cfg);
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);

  EXPECT_EQ(r.counters.node_crashes, 1u);
  EXPECT_EQ(r.counters.photos_lost_to_crash, 1u);  // the pre-crash photo

  // Snapshot taken during the crash: node 2's cached view of node
  // 1 must already be gone at crash time (we can't observe mid-run state
  // from outside, so assert on the final state plus the crash ordering).
  const MetadataCache& c2 = scheme.cache_of(2);
  ASSERT_NE(c2.find(1), nullptr);
  EXPECT_DOUBLE_EQ(c2.find(1)->observed_at, 450.0);  // post-reboot snapshot
  ASSERT_EQ(c2.find(1)->snapshot->photos.size(), 1u);
  EXPECT_EQ(c2.find(1)->snapshot->photos[0].id, post_id);  // pre-crash photo is gone

  // Node 1's own cache was rebuilt from scratch after the wipe.
  const MetadataCache& c1 = scheme.cache_of(1);
  ASSERT_NE(c1.find(2), nullptr);
  EXPECT_DOUBLE_EQ(c1.find(2)->observed_at, 450.0);
}

TEST(OurScheme, DownPeerEntryPurgedBeforeValidityTimerExpires) {
  // Node 3 never meets node 1 again after the crash, so nothing repopulates
  // its cache: the purge at crash time must leave it empty of node 1 even
  // though the eq. (1) timer alone would still consider the entry valid.
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.faults.scripted_downtime = {{1, 200.0, 10000.0}};  // down to the horizon
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 1, 3}}, 4, 1000.0, std::move(events), cfg);
  OurScheme scheme;
  rig.sim.run(scheme);
  EXPECT_EQ(scheme.cache_of(3).find(1), nullptr);
}

TEST(OurScheme, GossipLossLeavesReceiverCacheStale) {
  // Deterministic per-direction gossip loss: with gossip_loss_prob = 1 both
  // directions always drop, so no contact ever populates a cache, while the
  // payload path keeps working.
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.faults.gossip_loss_prob = 1.0;
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0))};
  Rig rig({{100.0, 600.0, 1, 2}, {200.0, 600.0, 0, 2}}, 3, 1000.0,
          std::move(events), cfg);
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_EQ(scheme.cache_of(2).find(1), nullptr);
  EXPECT_GE(r.counters.gossip_losses, 2u);
  // Payload still flows on the (un-severed) link even when gossip is lost.
  EXPECT_EQ(r.delivered_photos, 1u);
}

TEST(OurScheme, ShortContactStillMovesMostValuablePhotoFirst) {
  // Budget fits exactly one photo; node 1 holds a redundant clone and one
  // distinct view; the center must receive a useful photo, not a clone.
  const CoverageModel probe({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  SimConfig cfg = Rig::default_config();
  cfg.bandwidth_bytes_per_s = 4'000'000.0;  // 1 photo per second of contact
  std::vector<PhotoEvent> events{
      Rig::capture(1.0, 1, photo_viewing(probe.pois()[0], 0.0)),
      Rig::capture(2.0, 1, photo_viewing(probe.pois()[0], 1.0)),   // near-clone
      Rig::capture(3.0, 1, photo_viewing(probe.pois()[0], 180.0))};
  Rig rig({{100.0, 1.0, 0, 1}}, 2, 1000.0, std::move(events), cfg);
  OurScheme scheme;
  const SimResult r = rig.sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);
  EXPECT_DOUBLE_EQ(r.final_point_norm, 1.0);
}

}  // namespace
}  // namespace photodtn
