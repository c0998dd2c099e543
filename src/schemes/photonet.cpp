#include "schemes/photonet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace photodtn {

std::array<double, 6> PhotoNetScheme::features(const PhotoMeta& photo) const {
  // Synthetic color histogram: three uniform components seeded by photo id.
  std::uint64_t s = photo.id * 0x9e3779b97f4a7c15ULL + 1;
  const auto c1 = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  const auto c2 = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  const auto c3 = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  return {photo.location.x / cfg_.location_scale_m,
          photo.location.y / cfg_.location_scale_m,
          photo.taken_at / cfg_.time_scale_s,
          cfg_.color_weight * c1,
          cfg_.color_weight * c2,
          cfg_.color_weight * c3};
}

namespace {

using Features = std::array<double, 6>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Euclidean feature distance. Bitwise symmetric: a[i] - b[i] is the exact
/// negation of b[i] - a[i], so both argument orders sum the same squares in
/// the same order. Together with min() not depending on visit order, that is
/// what lets the running minimums below equal a full rescan exactly.
double distance(const Features& a, const Features& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

/// A photo as one call sees it: features computed once, plus a running
/// minimum distance (to the receiver's set for a sender candidate, to the
/// nearest other photo for a stored one).
struct Item {
  PhotoId id = 0;
  double taken_at = 0.0;
  std::uint64_t size_bytes = 0;
  Features f{};
  double min_d = kInf;
};

Item make_item(const PhotoNetScheme& scheme, const PhotoMeta& p) {
  return {p.id, p.taken_at, p.size_bytes, scheme.features(p), kInf};
}

/// The least-diverse order: nearest-neighbour distance, then the store's
/// (taken_at, id) order. A store's closest pair are each other's nearest
/// neighbours and tie on distance, so the second key decides every eviction
/// from a store of two or more.
bool less_diverse(const Item& x, const Item& y) {
  if (x.min_d != y.min_d) return x.min_d < y.min_d;
  if (x.taken_at != y.taken_at) return x.taken_at < y.taken_at;
  return x.id < y.id;
}

/// One node's store for the span of a call. Each item's min_d is its exact
/// nearest-neighbour distance within the store, built on the first eviction
/// (a receiver that never evicts, like the command center, never pays for
/// it) and then kept exact: an insert folds in one distance per photo, an
/// erase rescans only the photos whose nearest neighbour was the victim.
class DiverseStore {
 public:
  DiverseStore(const PhotoNetScheme& scheme, const PhotoStore& store) {
    items_.reserve(store.size());
    for (const PhotoMeta* p : store.ordered()) items_.push_back(make_item(scheme, *p));
  }

  bool empty() const { return items_.empty(); }

  /// Min distance from `f` to any stored photo (+inf when empty).
  double distance_to(const Features& f) const {
    double best = kInf;
    for (const Item& q : items_) best = std::min(best, distance(f, q.f));
    return best;
  }

  /// Adds `item`, whose min_d must already be its distance to this store.
  void insert(const Item& item) {
    if (nn_ready_)
      for (Item& q : items_) q.min_d = std::min(q.min_d, distance(q.f, item.f));
    items_.push_back(item);
  }

  /// Removes and returns the least-diverse photo. Requires !empty().
  Item pop_least_diverse() {
    if (!nn_ready_) {
      for (Item& q : items_) q.min_d = kInf;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        for (std::size_t j = i + 1; j < items_.size(); ++j) {
          const double d = distance(items_[i].f, items_[j].f);
          items_[i].min_d = std::min(items_[i].min_d, d);
          items_[j].min_d = std::min(items_[j].min_d, d);
        }
      }
      nn_ready_ = true;
    }
    const auto it = std::min_element(items_.begin(), items_.end(), less_diverse);
    const Item victim = *it;
    *it = items_.back();
    items_.pop_back();
    for (Item& q : items_)
      if (q.min_d == distance(q.f, victim.f)) q.min_d = nearest_other(q);
    return victim;
  }

 private:
  double nearest_other(const Item& q) const {
    double best = kInf;
    for (const Item& r : items_)
      if (&r != &q) best = std::min(best, distance(q.f, r.f));
    return best;
  }

  std::vector<Item> items_;
  bool nn_ready_ = false;
};

/// The completed steps of one directed call, each a pick and the victims
/// evicted for it, plus an order-free hash of the receiver's set: the sum of
/// its ids' mixes, offset by the starting set's (the offset cancels in every
/// comparison). A step's pick and victims depend only on the receiver's set,
/// so once the set repeats, the steps since its last visit repeat in a cycle.
class StepLog {
 public:
  static constexpr std::size_t kNoCycle = ~std::size_t{0};

  struct Step {
    std::size_t cand;         // the sender candidate sent
    PhotoId id;               // its photo
    std::size_t victims_end;  // one past its victims in victims_
  };

  void drop(PhotoId id) {
    victims_.push_back(id);
    hash_ -= mix(id);
  }

  /// Logs a completed step that sent candidate `cand`. Returns the first
  /// step of the cycle it closes, or kNoCycle when the receiver's set is new.
  /// The hash only proposes a repeat: it is taken only when the window since
  /// has no net change of ids.
  std::size_t send(std::size_t cand, PhotoId id) {
    steps_.push_back({cand, id, victims_.size()});
    hash_ += mix(id);
    const auto [seen, fresh] = seen_.try_emplace(hash_, steps_.size());
    if (fresh) return kNoCycle;
    if (net_zero_since(seen->second)) return seen->second;
    seen->second = steps_.size();  // a collision: keep the newer set
    return kNoCycle;
  }

  std::size_t size() const { return steps_.size(); }
  const Step& step(std::size_t s) const { return steps_[s]; }
  std::span<const PhotoId> victims(std::size_t s) const {
    return std::span(victims_).subspan(victims_begin(s),
                                       steps_[s].victims_end - victims_begin(s));
  }

 private:
  static std::uint64_t mix(PhotoId id) {
    std::uint64_t s = id;
    return splitmix64(s);
  }

  std::size_t victims_begin(std::size_t s) const {
    return s == 0 ? 0 : steps_[s - 1].victims_end;
  }

  /// Whether steps [start, size()) sent exactly the ids they evicted.
  bool net_zero_since(std::size_t start) const {
    const std::size_t first_victim = victims_begin(start);
    if (steps_.size() - start != victims_.size() - first_victim) return false;
    std::vector<PhotoId> sent;
    sent.reserve(steps_.size() - start);
    for (std::size_t s = start; s < steps_.size(); ++s) sent.push_back(steps_[s].id);
    std::vector<PhotoId> evicted(
        victims_.begin() + static_cast<std::ptrdiff_t>(first_victim), victims_.end());
    std::sort(sent.begin(), sent.end());
    std::sort(evicted.begin(), evicted.end());
    return sent == evicted;
  }

  std::vector<Step> steps_;
  std::vector<PhotoId> victims_;
  std::uint64_t hash_ = 0;
  // The hash of each set seen -> the number of steps logged when it was seen.
  std::unordered_map<std::uint64_t, std::size_t> seen_{{0, 0}};
};

/// Drops least-diverse photos from `node` until `bytes` fit, mirroring each
/// drop in `store`; `on_drop` sees each victim after it left the store.
/// False when the store empties first.
template <typename OnDrop>
bool evict_until_fits(SimContext& ctx, NodeId node, DiverseStore& store,
                      std::uint64_t bytes, OnDrop&& on_drop) {
  while (!ctx.node(node).store().can_fit(bytes)) {
    if (store.empty()) return false;
    const Item victim = store.pop_least_diverse();
    ctx.drop_photo(node, victim.id);
    on_drop(victim);
  }
  return true;
}

}  // namespace

void PhotoNetScheme::on_photo_taken(SimContext& ctx, NodeId node,
                                    const PhotoMeta& photo) {
  if (ctx.store_photo(node, photo)) return;
  DiverseStore store(*this, ctx.node(node).store());
  if (evict_until_fits(ctx, node, store, photo.size_bytes, [](const Item&) {}))
    ctx.store_photo(node, photo);
}

void PhotoNetScheme::send_diverse(SimContext& ctx, ContactSession& session, NodeId src,
                                  NodeId dst) {
  // Repeatedly send the photo that is farthest from the receiver's current
  // collection (remote-first max-min diversity): a farthest-first traversal,
  // so each candidate keeps its distance to the receiver's set and a
  // transfer folds in only the one new photo. Once evictions bring the
  // receiver's set back to an earlier one, the steps since then are replayed
  // without recomputing any distance (docs/ALGORITHMS.md §8).
  const PhotoStore& dst_store = ctx.node(dst).store();
  DiverseStore receiver(*this, dst_store);
  // Only the receiver's store changes, so the sender's live order is read.
  const std::span<const PhotoMeta* const> photos = ctx.node(src).store().ordered();
  std::vector<Item> cands;  // the sender's photos, in (taken_at, id) order
  std::vector<char> held;   // whether the receiver has the candidate
  cands.reserve(photos.size());
  held.reserve(photos.size());
  for (const PhotoMeta* p : photos) {
    Item c = make_item(*this, *p);
    held.push_back(dst_store.contains(p->id) ? 1 : 0);
    if (held.back() == 0) c.min_d = receiver.distance_to(c.f);
    cands.push_back(c);
  }
  // An eviction can only raise a candidate's distance, and only if the
  // victim was its nearest; a victim the sender holds becomes a candidate
  // again.
  StepLog log;
  const auto on_drop = [&](const Item& victim) {
    log.drop(victim.id);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].id == victim.id) {
        held[i] = 0;
        cands[i].min_d = receiver.distance_to(cands[i].f);
      } else if (held[i] == 0 && cands[i].min_d == distance(cands[i].f, victim.f)) {
        cands[i].min_d = receiver.distance_to(cands[i].f);
      }
    }
  };
  // Scan until the receiver's set repeats. A step's pick and victims depend
  // only on that set: the sender keeps every copy it sends, the running
  // minimums equal a rescan's, and both tie rules are total orders.
  std::size_t cycle = StepLog::kNoCycle;
  while (cycle == StepLog::kNoCycle) {
    // Strict > from -1 in sorted order: the earliest of equal distances
    // wins, and an empty receiver (every distance +inf) takes the first.
    std::size_t best = cands.size();
    double best_d = -1.0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (held[i] == 0 && cands[i].min_d > best_d) {
        best_d = cands[i].min_d;
        best = i;
      }
    }
    if (best == cands.size()) return;
    const Item& pick = cands[best];
    if (!session.can_transfer(pick.size_bytes)) return;
    if (dst != kCommandCenter && !dst_store.can_fit(pick.size_bytes) &&
        !evict_until_fits(ctx, dst, receiver, pick.size_bytes, on_drop))
      return;
    if (!session.transfer(pick.id, src, dst, /*keep_source=*/true)) return;
    held[best] = 1;
    receiver.insert(pick);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (held[i] == 0)
        cands[i].min_d = std::min(cands[i].min_d, distance(cands[i].f, pick.f));
    }
    cycle = log.send(best, pick.id);
  }
  // The receiver's set is what it was before step `cycle`, so the logged
  // steps from there repeat in order. Each still asks the session, so the
  // budget, a link cut or a failed transfer ends the call where the scan
  // would have.
  for (std::size_t s = cycle;; s = s + 1 == log.size() ? cycle : s + 1) {
    const Item& pick = cands[log.step(s).cand];
    if (!session.can_transfer(pick.size_bytes)) return;
    if (!dst_store.can_fit(pick.size_bytes)) {
      for (const PhotoId victim : log.victims(s)) ctx.drop_photo(dst, victim);
      PHOTODTN_CHECK_MSG(dst_store.can_fit(pick.size_bytes),
                         "a replayed step's victims must make room for its pick");
    }
    if (!session.transfer(pick.id, src, dst, /*keep_source=*/true)) return;
  }
}

void PhotoNetScheme::on_contact(SimContext& ctx, ContactSession& session) {
  if (session.involves_command_center()) {
    send_diverse(ctx, session, session.peer(kCommandCenter), kCommandCenter);
    return;
  }
  send_diverse(ctx, session, session.a(), session.b());
  send_diverse(ctx, session, session.b(), session.a());
}

}  // namespace photodtn
