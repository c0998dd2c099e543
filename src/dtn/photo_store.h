// A node's photo buffer with a byte-capacity budget (the storage constraint
// S_a of Section III-D). Stores full metadata; payload bytes are accounted,
// not materialized.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coverage/photo.h"

namespace photodtn {

class PhotoStore {
 public:
  static constexpr std::uint64_t kUnlimited = ~0ULL;

  explicit PhotoStore(std::uint64_t capacity_bytes = kUnlimited)
      : capacity_(capacity_bytes) {}

  // The index and the order point into the slab: a move carries all three
  // along, a copy would alias the source's photos.
  PhotoStore(const PhotoStore&) = delete;
  PhotoStore& operator=(const PhotoStore&) = delete;
  PhotoStore(PhotoStore&&) noexcept = default;
  PhotoStore& operator=(PhotoStore&&) noexcept = default;

  bool contains(PhotoId id) const noexcept { return find(id) != nullptr; }
  /// nullptr when absent; stays valid, at the same address, until that
  /// photo is removed or the store cleared, across a move of the store.
  const PhotoMeta* find(PhotoId id) const noexcept {
    return index_.empty() ? nullptr : index_[probe(id)].photo;
  }

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
  std::size_t size() const noexcept { return ordered_.size(); }
  bool empty() const noexcept { return ordered_.empty(); }

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
  /// entry resolves through find(); every slab slot holds a stored photo or
  /// is free; the byte accounting in used_bytes() equals the sum of stored
  /// photo sizes; a bounded store never exceeds its capacity. Throws
  /// std::logic_error on violation.
  void audit() const;

 private:
  /// An open-addressing slot: a photo id and where the photo lives, or no
  /// photo at all.
  struct Slot {
    PhotoId id = 0;
    PhotoMeta* photo = nullptr;
  };

  /// The index slot `id` probes first. Fibonacci hashing: the top bits of
  /// the product spread sequential ids.
  std::size_t home(PhotoId id) const noexcept {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// The index slot holding `id`, or the empty slot its probe ends at.
  /// Needs a non-empty index.
  std::size_t probe(PhotoId id) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(id);
    while (index_[i].photo != nullptr && index_[i].id != id) i = (i + 1) & mask;
    return i;
  }
  /// Rebuilds the index at `slots` slots from ordered_.
  void rehash(std::size_t slots);
  /// A slab slot no photo holds: a freed one, else the next unused one.
  PhotoMeta* take_slot();

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  // The slab: chunks of 2, then 4 photos each, which never move.
  std::vector<std::unique_ptr<PhotoMeta[]>> chunks_;
  std::size_t slab_slots_ = 0;              // slots handed out so far
  std::size_t slab_capacity_ = 0;           // slots the chunks hold
  std::vector<PhotoMeta*> free_;            // slab slots a removal vacated
  std::vector<Slot> index_;                 // linear probing, power-of-two size
  unsigned shift_ = 64;                     // 64 - log2(index_.size())
  std::vector<PhotoMeta*> ordered_;         // into the slab, (taken_at, id)
};

}  // namespace photodtn
