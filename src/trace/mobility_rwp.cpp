#include "trace/mobility_rwp.h"

#include <algorithm>
#include <cmath>

#include "trace/synthetic_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace photodtn {

RwpMobility::RwpMobility(const RwpConfig& cfg) : cfg_(cfg) {
  PHOTODTN_CHECK(cfg.num_participants >= 1);
  PHOTODTN_CHECK(cfg.speed_min > 0.0 && cfg.speed_max >= cfg.speed_min);
  PHOTODTN_CHECK(cfg.region_m > 0.0 && cfg.duration_s > 0.0);

  Rng root(cfg.seed);
  trajectories_.resize(static_cast<std::size_t>(cfg.num_participants) + 1);
  for (NodeId n = 1; n <= cfg.num_participants; ++n) {
    Rng rng = root.split("rwp-node-" + std::to_string(n));
    auto& traj = trajectories_[static_cast<std::size_t>(n)];
    double t = 0.0;
    Vec2 pos{rng.uniform(0.0, cfg.region_m), rng.uniform(0.0, cfg.region_m)};
    traj.push_back({t, pos});
    while (t < cfg.duration_s) {
      const Vec2 dest{rng.uniform(0.0, cfg.region_m), rng.uniform(0.0, cfg.region_m)};
      const double speed = rng.uniform(cfg.speed_min, cfg.speed_max);
      const double travel = pos.distance_to(dest) / speed;
      t += travel;
      traj.push_back({t, dest});
      const double pause = rng.uniform(0.0, cfg.pause_max_s);
      if (pause > 0.0) {
        t += pause;
        traj.push_back({t, dest});
      }
      pos = dest;
    }
  }

  Rng gw_rng = root.split("gateways");
  gateways_ = pick_gateways(cfg.num_participants, cfg.gateway_fraction, gw_rng);
}

Vec2 RwpMobility::position(NodeId participant, double t) const {
  PHOTODTN_CHECK_MSG(participant >= 1 && participant <= cfg_.num_participants,
                     "position() is defined for participants only");
  const auto& traj = trajectories_[static_cast<std::size_t>(participant)];
  const double tc = std::clamp(t, 0.0, traj.back().time);
  auto it = std::upper_bound(traj.begin(), traj.end(), tc,
                             [](double v, const Knot& k) { return v < k.time; });
  if (it == traj.begin()) return traj.front().pos;
  if (it == traj.end()) return traj.back().pos;
  const Knot& hi = *it;
  const Knot& lo = *std::prev(it);
  const double span = hi.time - lo.time;
  if (span <= 0.0) return hi.pos;
  const double f = (tc - lo.time) / span;
  return lo.pos + (hi.pos - lo.pos) * f;
}

ContactTrace RwpMobility::extract_contacts() const {
  std::vector<Contact> contacts;
  const auto n = cfg_.num_participants;
  const double dt = cfg_.scan_interval_s;
  const double range2 = cfg_.comm_range_m * cfg_.comm_range_m;

  // For each pair, track the currently-open contact window.
  std::vector<double> open_since(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                                 -1.0);
  auto idx = [n](NodeId a, NodeId b) {
    return static_cast<std::size_t>(a - 1) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(b - 1);
  };

  std::vector<Vec2> pos(static_cast<std::size_t>(n) + 1);
  for (double t = 0.0; t <= cfg_.duration_s; t += dt) {
    for (NodeId i = 1; i <= n; ++i) pos[static_cast<std::size_t>(i)] = position(i, t);
    for (NodeId a = 1; a <= n; ++a) {
      for (NodeId b = a + 1; b <= n; ++b) {
        const bool near =
            (pos[static_cast<std::size_t>(a)] - pos[static_cast<std::size_t>(b)]).norm_sq() <=
            range2;
        double& open = open_since[idx(a, b)];
        if (near && open < 0.0) {
          open = t;
        } else if (!near && open >= 0.0) {
          contacts.push_back(Contact{open, t - open, a, b});
          open = -1.0;
        }
      }
    }
  }
  // Close any windows still open at the horizon.
  for (NodeId a = 1; a <= n; ++a)
    for (NodeId b = a + 1; b <= n; ++b) {
      const double open = open_since[idx(a, b)];
      if (open >= 0.0)
        contacts.push_back(Contact{open, cfg_.duration_s - open, a, b});
    }

  // Scheduled gateway uplink sessions.
  Rng root(cfg_.seed);
  Rng gw_time_rng = root.split("gateway-times");
  for (const NodeId g : gateways_) {
    double t = gw_time_rng.exponential(1.0 / cfg_.gateway_mean_interval_s);
    while (t < cfg_.duration_s) {
      contacts.push_back(Contact{t, cfg_.gateway_contact_duration_s, kCommandCenter, g});
      t += cfg_.gateway_contact_duration_s +
           gw_time_rng.exponential(1.0 / cfg_.gateway_mean_interval_s);
    }
  }

  return ContactTrace{std::move(contacts), n + 1, cfg_.duration_s};
}

}  // namespace photodtn
