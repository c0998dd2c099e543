#include "trace/synthetic_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/check.h"
#include "util/rng.h"
#include "util/to_chars.h"

namespace photodtn {

SyntheticTraceConfig SyntheticTraceConfig::mit_reality(std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.num_participants = 97;
  cfg.duration_s = 300.0 * 3600.0;
  cfg.scan_interval_s = 300.0;  // 5-minute Bluetooth scans
  cfg.seed = seed;
  return cfg;
}

SyntheticTraceConfig SyntheticTraceConfig::cambridge06(std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.num_participants = 54;
  cfg.duration_s = 200.0 * 3600.0;
  cfg.scan_interval_s = 120.0;  // 2-minute scans
  // Cambridge06 (Haggle iMotes) is a denser trace: smaller population in
  // closer quarters.
  cfg.base_pair_rate_per_hour = 0.03;
  cfg.seed = seed;
  return cfg;
}

namespace {

std::vector<double> activity_levels(const SyntheticTraceConfig& cfg, Rng& rng) {
  std::vector<double> act(static_cast<std::size_t>(cfg.num_participants));
  for (auto& a : act) {
    // Lognormal with unit median; normalize mean to 1 so base_pair_rate is
    // interpretable as the average-pair rate.
    a = std::exp(rng.normal(0.0, cfg.activity_sigma));
  }
  const double mean_correction = std::exp(0.5 * cfg.activity_sigma * cfg.activity_sigma);
  for (auto& a : act) a /= mean_correction;
  return act;
}

}  // namespace

namespace {

/// Per-node availability schedule: sorted "on" intervals covering [0, T].
class Availability {
 public:
  Availability(const SyntheticTraceConfig& cfg, Rng& rng) {
    if (cfg.mean_on_s <= 0.0) return;  // always on
    const double duty = cfg.mean_on_s / (cfg.mean_on_s + cfg.mean_off_s);
    double t = 0.0;
    bool on = rng.bernoulli(duty);
    while (t < cfg.duration_s) {
      const double len =
          rng.exponential(1.0 / (on ? cfg.mean_on_s : cfg.mean_off_s));
      if (on) on_intervals_.push_back({t, t + len});
      t += len;
      on = !on;
    }
    cycled_ = true;
  }

  bool is_on(double t) const {
    if (!cycled_) return true;
    auto it = std::upper_bound(
        on_intervals_.begin(), on_intervals_.end(), t,
        [](double v, const std::pair<double, double>& iv) { return v < iv.first; });
    if (it == on_intervals_.begin()) return false;
    return t < std::prev(it)->second;
  }

 private:
  bool cycled_ = false;
  std::vector<std::pair<double, double>> on_intervals_;
};

}  // namespace

std::vector<NodeId> pick_gateways(NodeId num_participants, double gateway_fraction, Rng& rng) {
  if (!(gateway_fraction >= 0.0 && gateway_fraction <= 1.0)) {
    std::string msg = "gateway_fraction = ";
    append_chars(msg, gateway_fraction);
    throw std::invalid_argument(msg + " must be in [0, 1]");
  }
  const auto n = num_participants;
  auto count = static_cast<NodeId>(
      std::max(1.0, std::round(gateway_fraction * static_cast<double>(n))));
  std::vector<NodeId> ids(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i + 1;
  rng.shuffle(ids);
  ids.resize(static_cast<std::size_t>(count));
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<NodeId> synthetic_gateways(const SyntheticTraceConfig& cfg) {
  Rng rng(cfg.seed);
  Rng gw_rng = rng.split("gateways");
  return pick_gateways(cfg.num_participants, cfg.gateway_fraction, gw_rng);
}

ContactTrace generate_synthetic_trace(const SyntheticTraceConfig& cfg) {
  PHOTODTN_CHECK(cfg.num_participants >= 2);
  PHOTODTN_CHECK(cfg.duration_s > 0.0 && cfg.scan_interval_s > 0.0);

  Rng root(cfg.seed);
  Rng act_rng = root.split("activity");
  Rng pair_rng = root.split("pairs");
  Rng gw_time_rng = root.split("gateway-times");
  Rng avail_rng = root.split("availability");

  const std::vector<double> act = activity_levels(cfg, act_rng);
  std::vector<Availability> avail;
  avail.reserve(static_cast<std::size_t>(cfg.num_participants) + 1);
  for (NodeId n = 0; n <= cfg.num_participants; ++n) {
    Rng node_rng = avail_rng.split("node-" + std::to_string(n));
    // The command center (node 0) is always reachable when a gateway is up.
    if (n == kCommandCenter) {
      SyntheticTraceConfig always_on = cfg;
      always_on.mean_on_s = 0.0;
      avail.emplace_back(always_on, node_rng);
    } else {
      avail.emplace_back(cfg, node_rng);
    }
  }
  auto both_on = [&](NodeId a, NodeId b, double t) {
    return avail[static_cast<std::size_t>(a)].is_on(t) &&
           avail[static_cast<std::size_t>(b)].is_on(t);
  };
  const double base_rate = cfg.base_pair_rate_per_hour / 3600.0;  // per second

  auto team_of = [&](NodeId participant) {
    return (participant - 1) / cfg.team_size;
  };
  auto quantize = [&](double t) {
    return std::floor(t / cfg.scan_interval_s) * cfg.scan_interval_s;
  };

  std::vector<Contact> contacts;
  // Pairwise Poisson processes among participants (ids 1..N).
  for (NodeId a = 1; a <= cfg.num_participants; ++a) {
    for (NodeId b = a + 1; b <= cfg.num_participants; ++b) {
      double rate = base_rate * act[static_cast<std::size_t>(a - 1)] *
                    act[static_cast<std::size_t>(b - 1)];
      if (team_of(a) == team_of(b)) rate *= cfg.intra_team_boost;
      if (rate <= 0.0) continue;
      double t = pair_rng.exponential(rate);
      while (t < cfg.duration_s) {
        const double dur = std::max(cfg.scan_interval_s,
                                    pair_rng.exponential(1.0 / cfg.mean_contact_duration_s));
        if (both_on(a, b, t)) contacts.push_back(Contact{quantize(t), dur, a, b});
        t += dur + pair_rng.exponential(rate);
      }
    }
  }

  // Gateway contacts with the command center (node 0).
  for (const NodeId g : synthetic_gateways(cfg)) {
    double t = gw_time_rng.exponential(1.0 / cfg.gateway_mean_interval_s);
    while (t < cfg.duration_s) {
      if (both_on(kCommandCenter, g, t))
        contacts.push_back(
            Contact{quantize(t), cfg.gateway_contact_duration_s, kCommandCenter, g});
      t += cfg.gateway_contact_duration_s +
           gw_time_rng.exponential(1.0 / cfg.gateway_mean_interval_s);
    }
  }

  return ContactTrace{std::move(contacts), cfg.num_participants + 1, cfg.duration_s};
}

}  // namespace photodtn
