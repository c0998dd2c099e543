#include "dtn/photo_store.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace photodtn {

namespace {

/// The canonical store order. Ids are unique, so it is total.
bool taken_before(const PhotoMeta* a, const PhotoMeta* b) {
  if (a->taken_at != b->taken_at) return a->taken_at < b->taken_at;
  return a->id < b->id;
}

constexpr std::size_t kMinIndexSlots = 4;

/// Slots in the slab's chunk number `chunk`. Small chunks keep a store of a
/// few photos small; a map node cost 112 bytes a photo, a slot costs 80.
std::size_t chunk_slots(std::size_t chunk) { return chunk == 0 ? 2 : 4; }

}  // namespace

void PhotoStore::rehash(std::size_t slots) {
  index_.assign(slots, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (PhotoMeta* p : ordered_) index_[probe(p->id)] = Slot{p->id, p};
}

PhotoMeta* PhotoStore::take_slot() {
  if (!free_.empty()) {
    PhotoMeta* p = free_.back();
    free_.pop_back();
    return p;
  }
  if (slab_slots_ == slab_capacity_) {
    const std::size_t slots = chunk_slots(chunks_.size());
    chunks_.push_back(std::make_unique<PhotoMeta[]>(slots));
    slab_capacity_ += slots;
  }
  const std::size_t last = chunk_slots(chunks_.size() - 1);
  return &chunks_.back()[last - (slab_capacity_ - slab_slots_++)];
}

bool PhotoStore::add(const PhotoMeta& photo) {
  if (!can_fit(photo.size_bytes)) return false;
  std::size_t at = 0;
  if (!index_.empty()) {
    at = probe(photo.id);
    if (index_[at].photo != nullptr) return false;
  }
  // At most three quarters full, so every probe meets an empty slot.
  if (4 * (ordered_.size() + 1) > 3 * index_.size()) {
    rehash(std::max(kMinIndexSlots, 2 * index_.size()));
    at = probe(photo.id);
  }
  PhotoMeta* p = take_slot();
  *p = photo;
  index_[at] = Slot{photo.id, p};
  ordered_.insert(std::lower_bound(ordered_.begin(), ordered_.end(), p, taken_before), p);
  used_ += photo.size_bytes;
  PHOTODTN_AUDIT(audit());
  return true;
}

bool PhotoStore::remove(PhotoId id) {
  if (index_.empty()) return false;
  std::size_t hole = probe(id);
  PhotoMeta* p = index_[hole].photo;
  if (p == nullptr) return false;
  // A linear scan for the pointer: the erase below moves the tail anyway,
  // and the scan neither dereferences nor branches on the order.
  const auto pos = std::find(ordered_.begin(), ordered_.end(), p);
  PHOTODTN_CHECK(pos != ordered_.end());
  PHOTODTN_CHECK(used_ >= p->size_bytes);
  used_ -= p->size_bytes;
  ordered_.erase(pos);
  free_.push_back(p);
  // Backward-shift deletion: each later entry of the probe chain whose home
  // does not lie between the hole and it moves into the hole, so lookups
  // never need a tombstone.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j].photo != nullptr; j = (j + 1) & mask) {
    if (((j - home(index_[j].id)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Slot{};
  PHOTODTN_AUDIT(audit());
  return true;
}

std::vector<PhotoMeta> PhotoStore::photos() const {
  std::vector<PhotoMeta> out;
  out.reserve(ordered_.size());
  for (const PhotoMeta* p : ordered_) out.push_back(*p);
  std::sort(out.begin(), out.end(),
            [](const PhotoMeta& a, const PhotoMeta& b) { return a.id < b.id; });
  return out;
}

void PhotoStore::clear() {
  std::fill(index_.begin(), index_.end(), Slot{});
  chunks_.clear();
  slab_slots_ = 0;
  slab_capacity_ = 0;
  free_.clear();
  ordered_.clear();
  used_ = 0;
  PHOTODTN_AUDIT(audit());
}

void PhotoStore::audit() const {
  // A strictly sorted index of distinct, resolving entries as long as every
  // slab slot holds one stored photo or is free.
  PHOTODTN_CHECK_MSG(ordered_.size() + free_.size() == slab_slots_,
                     "PhotoStore slab slots neither stored nor free");
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < ordered_.size(); ++i) {
    const PhotoMeta* p = ordered_[i];
    PHOTODTN_CHECK_MSG(find(p->id) == p,
                       "PhotoStore order entry does not resolve to its stored photo");
    PHOTODTN_CHECK_MSG(i == 0 || taken_before(ordered_[i - 1], p),
                       "PhotoStore order index not strictly (taken_at, id)-sorted");
    sum += p->size_bytes;
  }
  PHOTODTN_CHECK_MSG(sum == used_,
                     "PhotoStore byte accounting diverged from stored photo sizes");
  PHOTODTN_CHECK_MSG(capacity_ == kUnlimited || used_ <= capacity_,
                     "PhotoStore exceeds its byte capacity");
}

}  // namespace photodtn
