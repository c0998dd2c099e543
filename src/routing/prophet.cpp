#include "routing/prophet.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/prob.h"

namespace photodtn {

namespace {

std::size_t slot(NodeId id) { return static_cast<std::size_t>(id); }

}  // namespace

void ProphetTable::age(double now) {
  PHOTODTN_CHECK_MSG(now + 1e-9 >= last_aged_, "time moved backwards in PROPHET aging");
  if (now <= last_aged_) return;
  const double k = (now - last_aged_) / cfg_.aging_time_unit_s;
  const double factor = std::pow(cfg_.gamma, k);
  // With gamma in (0, 1] the factor cannot exceed 1, so aging is monotone
  // non-increasing; the clamp guards misconfigured gamma > 1.
  for (std::size_t i = 0; i < p_.size(); ++i)
    if (known_[i] != 0) p_[i] = clamp01(p_[i] * factor);
  last_aged_ = now;
  PHOTODTN_AUDIT(audit());
}

std::size_t ProphetTable::bound_after_meeting(const ProphetTable& peer) const noexcept {
  // The peer's table ends at its largest entry, so this scan stops at once
  // unless that entry is this node.
  std::size_t top = peer.known_.size();
  while (top > 0 && (top - 1 == slot(self_) || peer.known_[top - 1] == 0)) --top;
  return std::max({p_.size(), slot(peer.self_) + 1, top});
}

void ProphetTable::grow(std::size_t bound) {
  if (bound <= p_.size()) return;
  p_.resize(bound, 0.0);
  known_.resize(bound, 0);
}

void ProphetTable::direct_update(NodeId peer) {
  double& p = p_[slot(peer)];
  // p + (1-p)*p_init stays in [0, 1] in exact arithmetic; clamp the rounded
  // result so repeated encounters can never drift above 1.
  p = clamp01(p + (1.0 - p) * cfg_.p_init);
  known_[slot(peer)] = 1;
}

void ProphetTable::encounter(ProphetTable& a, ProphetTable& b, double now) {
  PHOTODTN_CHECK_MSG(a.self_ != b.self_, "node encountering itself");
  a.age(now);
  b.age(now);
  const std::size_t bound_a = a.bound_after_meeting(b);
  const std::size_t bound_b = b.bound_after_meeting(a);
  a.grow(bound_a);
  b.grow(bound_b);
  a.direct_update(b.self_);
  b.direct_update(a.self_);
  // The transitive rule reads the peer's entries from before the direct
  // updates. Those changed only P(a,b) and P(b,a), which the pass skips, and
  // each id's two updates read both old values before writing either, so
  // neither update sees the other's result. Every id either table learns is
  // below both bounds.
  const double p_ab = a.p_[slot(b.self_)];
  const double p_ba = b.p_[slot(a.self_)];
  const std::size_t n = std::min(a.p_.size(), b.p_.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (c == slot(a.self_) || c == slot(b.self_)) continue;
    const bool a_knows = a.known_[c] != 0;
    const bool b_knows = b.known_[c] != 0;
    const double p_ac = a.p_[c];
    const double p_bc = b.p_[c];
    if (b_knows) {
      a.p_[c] = clamp01(p_ac + (1.0 - p_ac) * p_ab * p_bc * a.cfg_.beta);
      a.known_[c] = 1;
    }
    if (a_knows) {
      b.p_[c] = clamp01(p_bc + (1.0 - p_bc) * p_ba * p_ac * b.cfg_.beta);
      b.known_[c] = 1;
    }
  }
  PHOTODTN_AUDIT(a.audit());
  PHOTODTN_AUDIT(b.audit());
}

void ProphetTable::audit() const {
  PHOTODTN_CHECK_MSG(is_probability(cfg_.p_init), "PROPHET p_init must be in [0, 1]");
  PHOTODTN_CHECK_MSG(is_probability(cfg_.beta), "PROPHET beta must be in [0, 1]");
  PHOTODTN_CHECK_MSG(cfg_.gamma > 0.0 && cfg_.gamma <= 1.0,
                     "PROPHET gamma must be in (0, 1] for monotone decay");
  PHOTODTN_CHECK_MSG(cfg_.aging_time_unit_s > 0.0,
                     "PROPHET aging time unit must be positive");
  PHOTODTN_CHECK_MSG(std::isfinite(last_aged_), "PROPHET aging clock must be finite");
  PHOTODTN_CHECK_MSG(p_.size() == known_.size(),
                     "PROPHET predictabilities and entry flags differ in size");
  PHOTODTN_CHECK_MSG(known_.empty() || known_.back() != 0,
                     "PROPHET table must end at its largest entry");
  for (std::size_t i = 0; i < p_.size(); ++i) {
    if (known_[i] == 0) {
      PHOTODTN_CHECK_MSG(p_[i] == 0.0, "PROPHET non-entry must read 0");
      continue;
    }
    PHOTODTN_CHECK_MSG(i != slot(self_), "PROPHET table must not hold an entry for self");
    PHOTODTN_CHECK_MSG(is_probability(p_[i]),
                       "PROPHET delivery predictability must be in [0, 1]");
  }
}

}  // namespace photodtn
