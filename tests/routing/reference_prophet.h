// Test-only oracle: the PROPHET table as it was before the dense table
// (routing/prophet.cpp). A map from peer id to predictability; an encounter
// copies both tables and applies the transitive rule from the copies. It is
// slow and obviously right: tests/routing/prophet_test.cpp drives it beside
// ProphetTable and requires bit-equal predictabilities and checkpoint bytes.
// It keys a std::map where the old table had an unordered_map: every rule
// updates each key on its own, so no result ever depended on the walk order.
#pragma once

#include <cmath>
#include <map>

#include "coverage/photo.h"
#include "persist/codec.h"
#include "routing/prophet.h"
#include "util/check.h"
#include "util/prob.h"

namespace photodtn::test {

class ReferenceProphetTable {
 public:
  ReferenceProphetTable(ProphetConfig cfg, NodeId self) : cfg_(cfg), self_(self) {}

  void age(double now) {
    PHOTODTN_CHECK_MSG(now + 1e-9 >= last_aged_, "time moved backwards in PROPHET aging");
    if (now <= last_aged_) return;
    const double k = (now - last_aged_) / cfg_.aging_time_unit_s;
    const double factor = std::pow(cfg_.gamma, k);
    for (auto& [node, p] : table_) p = clamp01(p * factor);
    last_aged_ = now;
  }

  double delivery_prob(NodeId dest) const {
    if (dest == self_) return 1.0;
    const auto it = table_.find(dest);
    return it == table_.end() ? 0.0 : it->second;
  }

  static void encounter(ReferenceProphetTable& a, ReferenceProphetTable& b, double now) {
    PHOTODTN_CHECK_MSG(a.self_ != b.self_, "node encountering itself");
    a.age(now);
    b.age(now);
    const auto snap_a = a.table_;
    const auto snap_b = b.table_;
    a.direct_update(b.self_);
    b.direct_update(a.self_);
    a.transitive_update(snap_b, b.self_);
    b.transitive_update(snap_a, a.self_);
  }

  /// The checkpoint bytes of ProphetTable: the aging clock, then the entries
  /// as (peer, value) pairs in peer order.
  void save(persist::StateWriter& w) const {
    w.f64(last_aged_);
    w.u64(table_.size());
    for (const auto& [peer, p] : table_) {
      w.i32(peer);
      w.f64(p);
    }
  }

 private:
  void direct_update(NodeId peer) {
    double& p = table_[peer];
    p = clamp01(p + (1.0 - p) * cfg_.p_init);
  }

  void transitive_update(const std::map<NodeId, double>& peer_snapshot, NodeId peer) {
    const double p_ab = table_[peer];
    for (const auto& [c, p_bc] : peer_snapshot) {
      if (c == self_ || c == peer) continue;
      double& p_ac = table_[c];
      p_ac = clamp01(p_ac + (1.0 - p_ac) * p_ab * p_bc * cfg_.beta);
    }
  }

  ProphetConfig cfg_;
  NodeId self_;
  double last_aged_ = 0.0;
  std::map<NodeId, double> table_;
};

}  // namespace photodtn::test
