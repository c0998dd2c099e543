#include "dtn/photo_store.h"

#include <algorithm>

#include "util/check.h"

namespace photodtn {

namespace {

/// The canonical store order. Ids are unique, so it is total.
bool taken_before(const PhotoMeta* a, const PhotoMeta* b) {
  if (a->taken_at != b->taken_at) return a->taken_at < b->taken_at;
  return a->id < b->id;
}

}  // namespace

const PhotoMeta* PhotoStore::find(PhotoId id) const {
  const auto it = photos_.find(id);
  return it == photos_.end() ? nullptr : &it->second;
}

bool PhotoStore::add(const PhotoMeta& photo) {
  if (!can_fit(photo.size_bytes)) return false;
  const auto [it, inserted] = photos_.try_emplace(photo.id, photo);
  if (!inserted) return false;
  const PhotoMeta* p = &it->second;
  ordered_.insert(std::lower_bound(ordered_.begin(), ordered_.end(), p, taken_before), p);
  used_ += photo.size_bytes;
  PHOTODTN_AUDIT(audit());
  return true;
}

bool PhotoStore::remove(PhotoId id) {
  const auto it = photos_.find(id);
  if (it == photos_.end()) return false;
  const PhotoMeta* p = &it->second;
  // A linear scan for the pointer: the erase below moves the tail anyway,
  // and the scan neither dereferences nor branches on the order.
  const auto pos = std::find(ordered_.begin(), ordered_.end(), p);
  PHOTODTN_CHECK(pos != ordered_.end());
  PHOTODTN_CHECK(used_ >= p->size_bytes);
  used_ -= p->size_bytes;
  ordered_.erase(pos);
  photos_.erase(it);
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
  photos_.clear();
  ordered_.clear();
  used_ = 0;
  PHOTODTN_AUDIT(audit());
}

void PhotoStore::audit() const {
  // A strictly sorted index of distinct, resolving entries as long as the
  // map covers every stored photo exactly once.
  PHOTODTN_CHECK_MSG(ordered_.size() == photos_.size(),
                     "PhotoStore order index and map differ in size");
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
