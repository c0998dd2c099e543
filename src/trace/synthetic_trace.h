// Synthetic contact-trace generator substituting for the MIT Reality and
// Cambridge06 Bluetooth traces (see DESIGN.md, Substitutions).
//
// Mechanism: every pair (a, b) of participants gets an exponential
// inter-contact rate lambda_ab = base * act_a * act_b * (boost if same team),
// where per-node activity levels act_i are lognormal. This yields (i) the
// exponential pairwise inter-contact times the paper's metadata-validation
// model assumes, (ii) the heavy-tailed heterogeneity of real Bluetooth
// traces, and (iii) community structure ("rescuers in the same team contact
// more often", Section III-B). Contact start times are quantized to the scan
// interval like the real traces (5 min MIT / 2 min Cambridge06).
//
// Gateways: a configurable fraction of participants (~2% in Section V-A)
// additionally contact the command center (node 0) as a Poisson process,
// modelling satellite radios / data mules.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/contact_trace.h"

namespace photodtn {

struct SyntheticTraceConfig {
  /// Participants, excluding the command center.
  NodeId num_participants = 97;
  double duration_s = 300.0 * 3600.0;
  double scan_interval_s = 300.0;

  /// Team structure.
  NodeId team_size = 8;
  double intra_team_boost = 12.0;

  /// Mean pairwise contact rate scale: expected contacts per pair per hour
  /// for two average-activity nodes in different teams.
  double base_pair_rate_per_hour = 0.012;
  /// Lognormal sigma of per-node activity (0 = homogeneous).
  double activity_sigma = 0.6;

  /// Contact duration: exponential with this mean, floored at the scan
  /// interval (a Bluetooth scan cannot observe shorter contacts).
  double mean_contact_duration_s = 600.0;

  /// Availability duty cycling: real trace devices are off/absent for long
  /// stretches (overnight, out of area). When mean_on_s > 0, each
  /// participant alternates exponential on/off periods and a contact is
  /// only observed when *both* endpoints are on. 0 disables (always on) —
  /// the pure-exponential regime eq. (1) assumes.
  double mean_on_s = 0.0;
  double mean_off_s = 0.0;

  /// Fraction of participants that can reach the command center.
  double gateway_fraction = 0.02;
  /// Mean time between a gateway's command-center contacts.
  double gateway_mean_interval_s = 2.0 * 3600.0;
  /// Duration of command-center contacts (uplink sessions).
  double gateway_contact_duration_s = 600.0;

  std::uint64_t seed = 1;

  /// Presets matching the two traces in Table I.
  static SyntheticTraceConfig mit_reality(std::uint64_t seed);
  static SyntheticTraceConfig cambridge06(std::uint64_t seed);
};

/// Generates the full trace. Node 0 is the command center.
ContactTrace generate_synthetic_trace(const SyntheticTraceConfig& cfg);

/// The gateway node ids the generator selected for a given config (depends
/// only on the seed and participant count). Exposed so experiments can
/// report or vary the gateway set.
std::vector<NodeId> synthetic_gateways(const SyntheticTraceConfig& cfg);

class Rng;

/// The gateway pick both trace generators share: max(1, round(fraction *
/// n)) of the participants 1..n, drawn by shuffling them with `rng` (the
/// generator's "gateways" stream), in id order. Throws
/// std::invalid_argument naming gateway_fraction unless it is a finite
/// value in [0, 1].
std::vector<NodeId> pick_gateways(NodeId num_participants, double gateway_fraction, Rng& rng);

}  // namespace photodtn
