// PROPHET delivery predictability (Lindgren, Doria, Schelén — the protocol
// referenced in Section III-C). Each node keeps P(self, x) for every other
// node, updated by three rules:
//   encounter:    P(a,b) <- P(a,b) + (1 - P(a,b)) * P_init
//   aging:        P(a,x) <- P(a,x) * gamma^k        (k time units elapsed)
//   transitivity: P(a,c) <- P(a,c) + (1 - P(a,c)) * P(a,b) * P(b,c) * beta
// The paper uses P(n_i, command center) as the delivery probability p_i.
#pragma once

#include <cstdint>
#include <vector>

#include "coverage/photo.h"  // NodeId
#include "persist/fwd.h"

namespace photodtn {

struct ProphetConfig {
  double p_init = 0.75;
  double beta = 0.25;
  double gamma = 0.98;
  /// Length of one aging time unit in seconds. The original protocol leaves
  /// the unit abstract; we default to 10 minutes, which with gamma = 0.98
  /// halves a predictability in about 5.7 hours.
  double aging_time_unit_s = 600.0;
};

/// Node ids are dense, so the table is an array indexed by peer id that
/// grows only to the largest peer it holds. A peer is an entry once the
/// table has learned it, even at predictability 0: the checkpoint writes
/// exactly the entries.
class ProphetTable {
 public:
  ProphetTable() = default;
  ProphetTable(ProphetConfig cfg, NodeId self) : cfg_(cfg), self_(self) {}

  NodeId self() const noexcept { return self_; }

  /// Applies aging to all entries up to `now`. Idempotent for equal `now`.
  void age(double now);

  /// Delivery predictability from self to dest (aged to the last update
  /// time). Unknown destinations have probability 0; self has 1.
  double delivery_prob(NodeId dest) const noexcept {
    if (dest == self_) return 1.0;
    const auto i = static_cast<std::size_t>(static_cast<std::uint32_t>(dest));
    return i < p_.size() ? p_[i] : 0.0;
  }

  /// Symmetric encounter update of both tables at time `now`: aging, the
  /// direct-encounter rule on each side, then the transitive rule each way
  /// from the peer's predictabilities as they stood before the direct
  /// updates (the standard formulation). One pass over node ids computes
  /// both transitive updates; no table is copied.
  static void encounter(ProphetTable& a, ProphetTable& b, double now);

  const ProphetConfig& config() const noexcept { return cfg_; }

  /// Deep invariant check (audit builds / tests): every predictability is a
  /// finite value in [0, 1] and every non-entry reads 0, the table holds no
  /// entry for self (self is implicitly 1) and ends at its largest entry,
  /// the config parameters are valid probabilities with gamma in (0, 1] (so
  /// aging decays monotonically), and the aging clock is finite. Throws
  /// std::logic_error on violation.
  void audit() const;

 private:
  friend struct persist::StateAccess;  // checkpoint/restore of aging clock + table

  /// One past the largest entry this table holds after meeting `peer`: it
  /// learns the peer and every entry of the peer's other than itself.
  std::size_t bound_after_meeting(const ProphetTable& peer) const noexcept;
  void grow(std::size_t bound);
  void direct_update(NodeId peer);

  ProphetConfig cfg_;
  NodeId self_ = -1;
  double last_aged_ = 0.0;
  std::vector<double> p_;             // by peer id; 0 where not an entry
  std::vector<std::uint8_t> known_;   // 1 where the table holds an entry
};

}  // namespace photodtn
