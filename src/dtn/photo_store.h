// A node's photo buffer with a byte-capacity budget (the storage constraint
// S_a of Section III-D). Stores full metadata; payload bytes are accounted,
// not materialized.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "coverage/photo.h"

namespace photodtn {

class PhotoStore {
 public:
  static constexpr std::uint64_t kUnlimited = ~0ULL;

  explicit PhotoStore(std::uint64_t capacity_bytes = kUnlimited)
      : capacity_(capacity_bytes) {}

  // The order index points into the map's nodes: a move carries both along,
  // a copy would alias the source's photos.
  PhotoStore(const PhotoStore&) = delete;
  PhotoStore& operator=(const PhotoStore&) = delete;
  PhotoStore(PhotoStore&&) noexcept = default;
  PhotoStore& operator=(PhotoStore&&) noexcept = default;

  bool contains(PhotoId id) const { return photos_.count(id) != 0; }
  /// nullptr when absent; stays valid until that photo is removed.
  const PhotoMeta* find(PhotoId id) const;

  bool can_fit(std::uint64_t bytes) const noexcept {
    return capacity_ == kUnlimited || used_ + bytes <= capacity_;
  }

  /// Adds a photo. Returns false (no side effects) if a duplicate or if it
  /// does not fit.
  bool add(const PhotoMeta& photo);

  /// Removes a photo; returns false if absent.
  bool remove(PhotoId id);

  std::uint64_t used_bytes() const noexcept { return used_; }
  std::uint64_t capacity_bytes() const noexcept { return capacity_; }
  std::uint64_t free_bytes() const noexcept {
    return capacity_ == kUnlimited ? kUnlimited : capacity_ - used_;
  }
  std::size_t size() const noexcept { return photos_.size(); }
  bool empty() const noexcept { return photos_.empty(); }

  /// The stored photos in the canonical (taken_at, id) order every scheme
  /// walks: a live view, kept sorted by add and remove. Any add, remove or
  /// clear invalidates the span, so a loop that mutates this store walks a
  /// copy of it instead.
  std::span<const PhotoMeta* const> ordered() const noexcept { return ordered_; }

  /// Copy of the stored photos in id order.
  std::vector<PhotoMeta> photos() const;

  void clear();

  /// Deep invariant check (audit builds / tests): ordered() is strictly
  /// (taken_at, id)-sorted, holds every stored photo exactly once and each
  /// entry resolves through find(); the byte accounting in used_bytes()
  /// equals the sum of stored photo sizes; a bounded store never exceeds its
  /// capacity. Throws std::logic_error on violation.
  void audit() const;

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::unordered_map<PhotoId, PhotoMeta> photos_;  // nodes never move
  std::vector<const PhotoMeta*> ordered_;          // into photos_, (taken_at, id)
};

}  // namespace photodtn
