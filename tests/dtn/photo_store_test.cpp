#include "dtn/photo_store.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "persist/state_access.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

PhotoMeta photo(PhotoId id, std::uint64_t size = 100) {
  return test::make_photo(0, 0, 0, 200, 60, id, 1, size);
}

TEST(PhotoStore, AddAndFind) {
  PhotoStore s(1000);
  EXPECT_TRUE(s.add(photo(1)));
  EXPECT_TRUE(s.contains(1));
  ASSERT_NE(s.find(1), nullptr);
  EXPECT_EQ(s.find(1)->id, 1u);
  EXPECT_EQ(s.find(2), nullptr);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.used_bytes(), 100u);
}

TEST(PhotoStore, RejectsDuplicates) {
  PhotoStore s(1000);
  EXPECT_TRUE(s.add(photo(1)));
  EXPECT_FALSE(s.add(photo(1)));
  EXPECT_EQ(s.used_bytes(), 100u);
}

TEST(PhotoStore, EnforcesCapacityExactly) {
  PhotoStore s(250);
  EXPECT_TRUE(s.add(photo(1, 100)));
  EXPECT_TRUE(s.add(photo(2, 150)));  // exactly full
  EXPECT_FALSE(s.can_fit(1));
  EXPECT_FALSE(s.add(photo(3, 1)));
  EXPECT_EQ(s.free_bytes(), 0u);
}

TEST(PhotoStore, RemoveFreesSpace) {
  PhotoStore s(200);
  s.add(photo(1, 150));
  EXPECT_FALSE(s.add(photo(2, 100)));
  EXPECT_TRUE(s.remove(1));
  EXPECT_FALSE(s.remove(1));
  EXPECT_TRUE(s.add(photo(2, 100)));
  EXPECT_EQ(s.used_bytes(), 100u);
}

TEST(PhotoStore, UnlimitedCapacity) {
  PhotoStore s;  // default unlimited
  for (PhotoId i = 1; i <= 100; ++i)
    EXPECT_TRUE(s.add(photo(i, 1'000'000'000)));
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.free_bytes(), PhotoStore::kUnlimited);
}

TEST(PhotoStore, SnapshotAndClear) {
  PhotoStore s(1000);
  s.add(photo(1));
  s.add(photo(2));
  EXPECT_EQ(s.photos().size(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.used_bytes(), 0u);
}

TEST(PhotoStore, SnapshotIsIdSortedRegardlessOfInsertionOrder) {
  // photos() must present canonical id order, never the hash table's: the
  // snapshot feeds footprint loads and demo output where iteration order is
  // observable. Scrambled insertion over enough keys that hash order would
  // almost surely differ from sorted order.
  PhotoStore s;
  Rng rng(0xD15C0);
  std::vector<PhotoId> ids;
  for (PhotoId i = 1; i <= 64; ++i) ids.push_back(i * 37 % 1009);
  rng.shuffle(ids);
  for (const PhotoId id : ids) ASSERT_TRUE(s.add(photo(id, 1)));
  const std::vector<PhotoMeta> snap = s.photos();
  ASSERT_EQ(snap.size(), ids.size());
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LT(snap[i - 1].id, snap[i].id) << "photos() not id-sorted at " << i;
}

/// Requires `s` to hold exactly `model`'s photos: find() and contains() for
/// every id in [0, id_bound), size() and used_bytes().
void expect_matches_id_model(const PhotoStore& s, const std::map<PhotoId, PhotoMeta>& model,
                             PhotoId id_bound, int step) {
  std::uint64_t bytes = 0;
  for (const auto& [id, want] : model) bytes += want.size_bytes;
  ASSERT_EQ(s.size(), model.size()) << "step " << step;
  ASSERT_EQ(s.used_bytes(), bytes) << "step " << step;
  for (PhotoId id = 0; id < id_bound; ++id) {
    const auto it = model.find(id);
    const PhotoMeta* got = s.find(id);
    ASSERT_EQ(s.contains(id), it != model.end()) << "id " << id << " step " << step;
    if (it == model.end()) {
      ASSERT_EQ(got, nullptr) << "id " << id << " step " << step;
      continue;
    }
    ASSERT_NE(got, nullptr) << "id " << id << " step " << step;
    ASSERT_EQ(got->id, id) << "step " << step;
    ASSERT_EQ(got->taken_at, it->second.taken_at) << "step " << step;
    ASSERT_EQ(got->size_bytes, it->second.size_bytes) << "step " << step;
  }
}

TEST(PhotoStore, OrderedMatchesATakenAtIdModelUnderRandomChurn) {
  // Property: after any add / remove / re-add / clear sequence, ordered()
  // lists exactly the stored photos in (taken_at, id) order, each pointer
  // is the one find() returns, find() and contains() agree with an id model
  // for every id, and audit() passes. Few distinct taken_at values make
  // ties on taken_at common, so the id tie-break is exercised.
  Rng rng(0x0DE5);
  PhotoStore s(40 * 100);
  std::map<std::pair<double, PhotoId>, PhotoMeta> model;
  std::map<PhotoId, PhotoMeta> by_id;
  std::vector<PhotoMeta> removed;  // candidates for a re-add
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.005) {
      s.clear();
      model.clear();
      by_id.clear();
    } else if (roll < 0.15 && !removed.empty()) {
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(removed.size()) - 1);
      const PhotoMeta back = removed[static_cast<std::size_t>(pick)];
      if (s.add(back)) {
        model[{back.taken_at, back.id}] = back;
        by_id[back.id] = back;
      }
    } else if (roll < 0.6) {
      PhotoMeta p = photo(static_cast<PhotoId>(rng.uniform_int(1, 80)),
                          static_cast<std::uint64_t>(rng.uniform_int(50, 150)));
      p.taken_at = static_cast<double>(rng.uniform_int(0, 6));
      const bool fits = !s.contains(p.id) && s.can_fit(p.size_bytes);
      ASSERT_EQ(s.add(p), fits) << "step " << step;
      if (fits) {
        model[{p.taken_at, p.id}] = p;
        by_id[p.id] = p;
      }
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
      ASSERT_TRUE(s.remove(it->second.id)) << "step " << step;
      removed.push_back(it->second);
      by_id.erase(it->second.id);
      model.erase(it);
    }
    ASSERT_NO_THROW(s.audit()) << "step " << step;
    expect_matches_id_model(s, by_id, 82, step);
    const std::span<const PhotoMeta* const> ordered = s.ordered();
    ASSERT_EQ(ordered.size(), model.size()) << "step " << step;
    std::size_t i = 0;
    for (const auto& [key, want] : model) {
      const PhotoMeta* got = ordered[i++];
      ASSERT_EQ(got, s.find(want.id)) << "step " << step;
      ASSERT_EQ(got->id, want.id) << "step " << step;
      ASSERT_EQ(got->taken_at, want.taken_at) << "step " << step;
      ASSERT_EQ(got->size_bytes, want.size_bytes) << "step " << step;
    }
  }
}

TEST(PhotoStore, IndexMatchesAnIdModelThroughGrowthShiftsAndReuse) {
  // The id index under the loads the schemes put on it: an unlimited store
  // grows to 700 photos (the index doubles six times), then random churn at
  // that size removes photos out of the middle of probe chains and reuses
  // their slots, then clear() and a refill. Ids come from a range ten
  // times the live count, so chains form wherever they hash.
  Rng rng(0x1DE7);
  PhotoStore s;
  std::map<PhotoId, PhotoMeta> model;
  constexpr PhotoId kIdBound = 7000;
  const auto add_random = [&](int step) {
    PhotoMeta p = photo(static_cast<PhotoId>(rng.uniform_int(0, kIdBound - 1)),
                        static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
    p.taken_at = static_cast<double>(rng.uniform_int(0, 50));
    const bool fresh = model.count(p.id) == 0;
    ASSERT_EQ(s.add(p), fresh) << "step " << step;
    if (fresh) model[p.id] = p;
  };
  const auto remove_random = [&](int step) {
    auto it = model.begin();
    std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
    ASSERT_TRUE(s.remove(it->first)) << "step " << step;
    ASSERT_FALSE(s.remove(it->first)) << "step " << step;
    model.erase(it);
  };
  int step = 0;
  for (; model.size() < 700; ++step) {
    add_random(step);
    if (step % 50 == 0) expect_matches_id_model(s, model, kIdBound, step);
  }
  expect_matches_id_model(s, model, kIdBound, step);
  for (int churn = 0; churn < 3000; ++churn, ++step) {
    if (rng.bernoulli(0.5)) {
      add_random(step);
    } else {
      remove_random(step);
    }
    if (churn % 100 == 0) {
      expect_matches_id_model(s, model, kIdBound, step);
      ASSERT_NO_THROW(s.audit()) << "step " << step;
    }
  }
  expect_matches_id_model(s, model, kIdBound, step);
  s.clear();
  model.clear();
  expect_matches_id_model(s, model, kIdBound, step);
  for (int refill = 0; refill < 300; ++refill, ++step) add_random(step);
  expect_matches_id_model(s, model, kIdBound, step);
  ASSERT_NO_THROW(s.audit());
}

TEST(PhotoStore, FoundPointerStaysPutUntilItsPhotoIsRemoved) {
  // Schemes hold find() and ordered() pointers across other adds and
  // removes: the photo stays at one address, with the same contents, while
  // the index grows and other photos come and go, and when the store moves.
  PhotoStore s;
  PhotoMeta kept = photo(5000, 77);
  kept.taken_at = 3.5;
  ASSERT_TRUE(s.add(kept));
  const PhotoMeta* p = s.find(5000);
  ASSERT_NE(p, nullptr);
  for (PhotoId id = 1; id <= 400; ++id) ASSERT_TRUE(s.add(photo(id, id)));
  for (PhotoId id = 1; id <= 400; id += 2) ASSERT_TRUE(s.remove(id));
  for (PhotoId id = 1001; id <= 1200; ++id) ASSERT_TRUE(s.add(photo(id, 3)));
  EXPECT_EQ(s.find(5000), p);
  EXPECT_EQ(p->id, 5000u);
  EXPECT_EQ(p->size_bytes, 77u);
  EXPECT_EQ(p->taken_at, 3.5);
  PhotoStore moved(std::move(s));
  EXPECT_EQ(moved.find(5000), p);
  PhotoStore assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.find(5000), p);
  EXPECT_EQ(p->size_bytes, 77u);
  EXPECT_NO_THROW(assigned.audit());
  EXPECT_EQ(assigned.size(), 401u);
}

TEST(PhotoStore, CheckpointBytesDoNotDependOnInsertionOrder) {
  // The checkpoint writes id order whatever order the photos arrived in,
  // including photos removed and re-added on the way.
  std::vector<PhotoMeta> photos;
  for (PhotoId id = 1; id <= 40; ++id) {
    PhotoMeta p = photo(id * 37 % 101, 10 + id);
    p.taken_at = static_cast<double>(id % 4);
    photos.push_back(p);
  }
  const auto checkpoint = [](const PhotoStore& s) {
    persist::StateWriter w;
    persist::StateAccess::save(w, s);
    return w.take();
  };
  PhotoStore forward;
  for (const PhotoMeta& p : photos) ASSERT_TRUE(forward.add(p));
  const std::string want = checkpoint(forward);
  Rng rng(0x5A7E);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<PhotoMeta> shuffled = photos;
    rng.shuffle(shuffled);
    PhotoStore s;
    for (const PhotoMeta& p : shuffled) ASSERT_TRUE(s.add(p));
    for (std::size_t i = 0; i < shuffled.size(); i += 3) {
      ASSERT_TRUE(s.remove(shuffled[i].id));
      ASSERT_TRUE(s.add(shuffled[i]));
    }
    EXPECT_EQ(checkpoint(s), want) << "trial " << trial;
  }
}

TEST(PhotoStore, UsedBytesTracksMixedOperations) {
  PhotoStore s(1000);
  s.add(photo(1, 300));
  s.add(photo(2, 200));
  s.remove(1);
  s.add(photo(3, 100));
  EXPECT_EQ(s.used_bytes(), 300u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(PhotoStoreAudit, AccountingMatchesContentsUnderRandomChurn) {
  // Property: after any add/remove/clear sequence (including rejected adds),
  // used_bytes() equals the sum of stored sizes and never exceeds capacity —
  // exactly what audit() asserts.
  Rng rng(0xBEEF);
  PhotoStore s(5000);
  std::uint64_t expected = 0;
  std::map<PhotoId, std::uint64_t> live;
  for (int step = 0; step < 500; ++step) {
    const PhotoId id = static_cast<PhotoId>(rng.uniform_int(1, 40));
    if (rng.bernoulli(0.6)) {
      const auto size = static_cast<std::uint64_t>(rng.uniform_int(50, 400));
      if (s.add(photo(id, size))) {
        expected += size;
        live[id] = size;
      }
    } else if (s.remove(id)) {
      expected -= live.at(id);
      live.erase(id);
    }
    ASSERT_NO_THROW(s.audit());
    ASSERT_EQ(s.used_bytes(), expected);
    ASSERT_LE(s.used_bytes(), s.capacity_bytes());
  }
  s.clear();
  EXPECT_NO_THROW(s.audit());
  EXPECT_EQ(s.used_bytes(), 0u);
}

TEST(PhotoStoreAudit, UnlimitedStorePassesAudit) {
  PhotoStore s;  // kUnlimited
  for (PhotoId id = 1; id <= 64; ++id) s.add(photo(id, 1'000'000));
  EXPECT_NO_THROW(s.audit());
  EXPECT_EQ(s.used_bytes(), 64u * 1'000'000u);
}

}  // namespace
}  // namespace photodtn
