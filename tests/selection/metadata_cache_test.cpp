#include "selection/metadata_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "test_util.h"
#include "util/check.h"
#include "util/rng.h"

namespace photodtn {
namespace {

MetadataEntry entry(NodeId owner, double observed_at, double lambda, double p = 0.5) {
  MetadataEntry e;
  e.owner = owner;
  e.observed_at = observed_at;
  e.lambda = lambda;
  e.delivery_prob = p;
  const CoverageModel no_pois(PoiList{}, 0.5);  // these tests never read the digest
  e.snapshot = std::make_shared<const MetadataSnapshot>(
      std::vector<PhotoMeta>{test::make_photo(0, 0, 0)}, no_pois);
  return e;
}

TEST(MetadataCache, StalenessProbabilityMatchesEquationOne) {
  // P{T_a < t} = 1 - exp(-lambda t).
  EXPECT_NEAR(MetadataCache::staleness_probability(0.01, 100.0), 1.0 - std::exp(-1.0),
              1e-12);
  EXPECT_EQ(MetadataCache::staleness_probability(0.01, 0.0), 0.0);
  EXPECT_EQ(MetadataCache::staleness_probability(0.0, 100.0), 0.0);
}

TEST(MetadataCache, ValidityThreshold) {
  const MetadataCache cache(0.8);
  // lambda = 0.01/s: entry crosses P = 0.8 at t = -ln(0.2)/0.01 = 160.9 s.
  const MetadataEntry e = entry(1, 0.0, 0.01);
  EXPECT_TRUE(cache.is_valid(e, 100.0));
  EXPECT_TRUE(cache.is_valid(e, 160.0));
  EXPECT_FALSE(cache.is_valid(e, 162.0));
}

TEST(MetadataCache, CommandCenterAlwaysValid) {
  const MetadataCache cache(0.8);
  const MetadataEntry e = entry(kCommandCenter, 0.0, 100.0);
  EXPECT_TRUE(cache.is_valid(e, 1e9));
}

TEST(MetadataCache, UpdateKeepsFresher) {
  MetadataCache cache(0.8);
  EXPECT_TRUE(cache.update(entry(1, 10.0, 0.01)));
  EXPECT_FALSE(cache.update(entry(1, 5.0, 0.01)));   // older rejected
  EXPECT_FALSE(cache.update(entry(1, 10.0, 0.01)));  // same age rejected
  EXPECT_TRUE(cache.update(entry(1, 20.0, 0.02)));
  EXPECT_DOUBLE_EQ(cache.find(1)->lambda, 0.02);
}

TEST(MetadataCache, PruneRemovesInvalid) {
  MetadataCache cache(0.8);
  cache.update(entry(1, 0.0, 1.0));     // goes stale almost immediately
  cache.update(entry(2, 0.0, 1e-9));    // stays valid for ages
  cache.update(entry(kCommandCenter, 0.0, 1.0));
  cache.prune(100.0);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_NE(cache.find(2), nullptr);
  EXPECT_NE(cache.find(kCommandCenter), nullptr);
}

TEST(MetadataCache, ValidEntriesFiltersWithoutPruning) {
  MetadataCache cache(0.8);
  cache.update(entry(1, 0.0, 1.0));
  cache.update(entry(2, 0.0, 1e-9));
  const auto valid = cache.valid_entries(100.0);
  ASSERT_EQ(valid.size(), 1u);
  EXPECT_EQ(valid[0]->owner, 2);
  EXPECT_EQ(cache.size(), 2u);  // nothing removed
}

TEST(MetadataCache, ValidEntriesAreOwnerSortedRegardlessOfInsertionOrder) {
  // valid_entries() feeds selection environments, where the order of
  // floating-point miss-product updates must not depend on hash layout:
  // the contract is canonical owner order. Insert owners scrambled.
  MetadataCache cache(0.8);
  for (const NodeId owner : {41, 7, 29, 3, 53, 17, 11, 47, 23, 5, 37, 13})
    cache.update(entry(owner, 0.0, 1e-9));
  const auto valid = cache.valid_entries(100.0);
  ASSERT_EQ(valid.size(), 12u);
  for (std::size_t i = 1; i < valid.size(); ++i)
    EXPECT_LT(valid[i - 1]->owner, valid[i]->owner)
        << "valid_entries() not owner-sorted at " << i;
}

TEST(MetadataCache, MergeTakesFresherAndSkipsSelf) {
  MetadataCache mine(0.8), theirs(0.8);
  mine.update(entry(2, 10.0, 0.01));
  theirs.update(entry(2, 20.0, 0.05));  // fresher view of node 2
  theirs.update(entry(1, 30.0, 0.01));  // their view of *me*
  theirs.update(entry(3, 5.0, 0.01));
  mine.merge_from(theirs, /*self=*/1);
  EXPECT_DOUBLE_EQ(mine.find(2)->lambda, 0.05);
  EXPECT_EQ(mine.find(1), nullptr);  // own entry never cached
  EXPECT_NE(mine.find(3), nullptr);
}

TEST(MetadataCache, EraseAndOwnerValidation) {
  MetadataCache cache(0.8);
  cache.update(entry(1, 0.0, 0.01));
  cache.erase(1);
  EXPECT_EQ(cache.find(1), nullptr);
  MetadataEntry bad;
  bad.owner = -1;
  EXPECT_THROW(cache.update(bad), std::logic_error);
}

class PthldSweep : public ::testing::TestWithParam<double> {};

TEST_P(PthldSweep, ValidityHorizonGrowsWithThreshold) {
  const double p_thld = GetParam();
  const MetadataCache cache(p_thld);
  const double lambda = 0.01;
  const MetadataEntry e = entry(1, 0.0, lambda);
  const double horizon = -std::log(1.0 - p_thld) / lambda;
  EXPECT_TRUE(cache.is_valid(e, horizon * 0.99));
  EXPECT_FALSE(cache.is_valid(e, horizon * 1.01));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PthldSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.9, 0.95));

TEST(MetadataCacheAudit, HoldsUnderRandomUpdatePruneMergeTraffic) {
  // Property: any sequence of update/prune/merge_from operations leaves the
  // cache in a state audit() accepts — owners keyed correctly, lambda >= 0,
  // delivery probabilities in [0, 1], timestamps finite.
  Rng rng(0xC0FFEE);
  MetadataCache a(0.8), b(0.8);
  for (int step = 0; step < 300; ++step) {
    const NodeId owner = static_cast<NodeId>(rng.uniform_int(0, 9));
    MetadataEntry e = entry(owner, rng.uniform(0.0, 1000.0),
                            rng.uniform(0.0, 0.05), rng.uniform(0.0, 1.0));
    (rng.bernoulli(0.5) ? a : b).update(std::move(e));
    if (step % 17 == 0) a.prune(rng.uniform(0.0, 2000.0));
    if (step % 29 == 0) a.merge_from(b, /*self=*/1);
    ASSERT_NO_THROW(a.audit());
    ASSERT_NO_THROW(b.audit());
  }
}

TEST(MetadataCacheAudit, UpdateMonotonicityKeepsFreshestSnapshot) {
  // Expiry/freshness monotonicity: a stale snapshot can never replace a
  // fresher one, so observed_at per owner is non-decreasing over time.
  MetadataCache cache(0.8);
  EXPECT_TRUE(cache.update(entry(3, 100.0, 0.01)));
  EXPECT_FALSE(cache.update(entry(3, 50.0, 0.01)));  // older: rejected
  EXPECT_EQ(cache.find(3)->observed_at, 100.0);
  EXPECT_TRUE(cache.update(entry(3, 150.0, 0.01)));  // fresher: accepted
  EXPECT_EQ(cache.find(3)->observed_at, 150.0);
  EXPECT_NO_THROW(cache.audit());
}

TEST(MetadataCacheAudit, ClearKeepsRevisionStampsMonotone) {
  // A crash wipes the cache via clear(), but the revision counter must
  // survive: engines that loaded pre-crash collections identify them by
  // revision, and a restarted counter would let a post-crash entry alias a
  // pre-crash engine load.
  MetadataCache cache(0.8);
  cache.update(entry(2, 10.0, 0.01));
  cache.update(entry(3, 20.0, 0.01));
  const std::uint64_t pre = cache.find(3)->revision;
  cache.clear();
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(cache.find(3), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NO_THROW(cache.audit());
  cache.update(entry(2, 30.0, 0.01));
  EXPECT_GT(cache.find(2)->revision, pre);
  EXPECT_NO_THROW(cache.audit());
}

TEST(MetadataCacheAudit, ClearForgetsFreshnessSoRebootGossipRepopulates) {
  // After a wipe the cache has no memory of pre-crash observation times; the
  // first post-reboot snapshot repopulates even if its timestamp is older
  // than what the cache once held.
  MetadataCache cache(0.8);
  cache.update(entry(2, 100.0, 0.01));
  cache.clear();
  EXPECT_TRUE(cache.update(entry(2, 50.0, 0.01)));
  EXPECT_DOUBLE_EQ(cache.find(2)->observed_at, 50.0);
}

TEST(MetadataCacheAudit, FlagsInvalidEntryFields) {
  // A negative inter-contact rate is meaningless (eq. 1 needs lambda >= 0).
  // Debug/audit builds reject it at the update() boundary (DCHECK); release
  // builds accept the entry, and audit() then reports the corrupted state.
  MetadataCache cache(0.8);
  MetadataEntry bad = entry(2, 10.0, /*lambda=*/-0.5);
  if (dchecks_enabled()) {
    EXPECT_THROW(cache.update(std::move(bad)), std::logic_error);
  } else {
    cache.update(std::move(bad));
    EXPECT_THROW(cache.audit(), std::logic_error);
  }
}

}  // namespace
}  // namespace photodtn
