#include "trace/synthetic_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace photodtn {
namespace {

SyntheticTraceConfig small_config(std::uint64_t seed = 1) {
  SyntheticTraceConfig cfg;
  cfg.num_participants = 20;
  cfg.duration_s = 50.0 * 3600.0;
  cfg.scan_interval_s = 300.0;
  cfg.base_pair_rate_per_hour = 0.05;
  cfg.seed = seed;
  return cfg;
}

TEST(SyntheticTrace, DeterministicForSeed) {
  const ContactTrace a = generate_synthetic_trace(small_config(7));
  const ContactTrace b = generate_synthetic_trace(small_config(7));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.contacts()[i], b.contacts()[i]);
}

TEST(SyntheticTrace, DifferentSeedsDiffer) {
  const ContactTrace a = generate_synthetic_trace(small_config(1));
  const ContactTrace b = generate_synthetic_trace(small_config(2));
  bool differ = a.size() != b.size();
  if (!differ) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!(a.contacts()[i] == b.contacts()[i])) {
        differ = true;
        break;
      }
  }
  EXPECT_TRUE(differ);
}

TEST(SyntheticTrace, StartTimesQuantizedToScanInterval) {
  const SyntheticTraceConfig cfg = small_config();
  const ContactTrace t = generate_synthetic_trace(cfg);
  ASSERT_GT(t.size(), 0u);
  for (const Contact& c : t.contacts()) {
    const double q = std::fmod(c.start, cfg.scan_interval_s);
    EXPECT_NEAR(q, 0.0, 1e-6);
    EXPECT_GE(c.duration, cfg.scan_interval_s);
  }
}

TEST(SyntheticTrace, GatewayContactsTouchCommandCenter) {
  const SyntheticTraceConfig cfg = small_config();
  const ContactTrace t = generate_synthetic_trace(cfg);
  const auto gateways = synthetic_gateways(cfg);
  ASSERT_FALSE(gateways.empty());
  std::set<NodeId> cc_peers;
  for (const Contact& c : t.contacts())
    if (c.involves(kCommandCenter)) cc_peers.insert(c.a == kCommandCenter ? c.b : c.a);
  // Every node with a command-center contact is a designated gateway.
  for (const NodeId n : cc_peers)
    EXPECT_NE(std::find(gateways.begin(), gateways.end(), n), gateways.end());
  EXPECT_FALSE(cc_peers.empty());
}

TEST(SyntheticTrace, GatewayFractionRoundsUp) {
  SyntheticTraceConfig cfg = small_config();
  cfg.gateway_fraction = 0.02;  // 2% of 20 -> rounds to at least 1
  EXPECT_GE(synthetic_gateways(cfg).size(), 1u);
  cfg.gateway_fraction = 0.25;
  EXPECT_EQ(synthetic_gateways(cfg).size(), 5u);
}

TEST(SyntheticTrace, GatewayFractionOutsideUnitIntervalIsRejected) {
  // 1.5 used to pad the gateway list with node 0 and die in validate() on a
  // command-center self-contact; -0.1 and NaN silently picked one gateway.
  for (const double fraction : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    SyntheticTraceConfig cfg = small_config();
    cfg.gateway_fraction = fraction;
    try {
      generate_synthetic_trace(cfg);
      ADD_FAILURE() << "gateway_fraction " << fraction << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("gateway_fraction"), std::string::npos) << e.what();
    }
    EXPECT_THROW(synthetic_gateways(cfg), std::invalid_argument) << fraction;
  }
  SyntheticTraceConfig all = small_config();
  all.gateway_fraction = 1.0;
  EXPECT_EQ(synthetic_gateways(all).size(), 20u);
}

TEST(SyntheticTrace, IntraTeamPairsContactMoreOften) {
  SyntheticTraceConfig cfg = small_config(3);
  cfg.duration_s = 200.0 * 3600.0;
  cfg.intra_team_boost = 20.0;
  cfg.activity_sigma = 0.0;  // isolate the team effect
  const ContactTrace t = generate_synthetic_trace(cfg);
  auto team_of = [&](NodeId n) { return (n - 1) / cfg.team_size; };
  std::size_t intra = 0, inter = 0, intra_pairs = 0, inter_pairs = 0;
  for (NodeId a = 1; a <= cfg.num_participants; ++a)
    for (NodeId b = a + 1; b <= cfg.num_participants; ++b)
      (team_of(a) == team_of(b) ? intra_pairs : inter_pairs) += 1;
  for (const Contact& c : t.contacts()) {
    if (c.involves(kCommandCenter)) continue;
    (team_of(c.a) == team_of(c.b) ? intra : inter) += 1;
  }
  const double intra_rate = static_cast<double>(intra) / static_cast<double>(intra_pairs);
  const double inter_rate = static_cast<double>(inter) / static_cast<double>(inter_pairs);
  EXPECT_GT(intra_rate, 5.0 * inter_rate);
}

TEST(SyntheticTrace, MitPresetMatchesTableI) {
  const auto cfg = SyntheticTraceConfig::mit_reality(1);
  EXPECT_EQ(cfg.num_participants, 97);
  EXPECT_DOUBLE_EQ(cfg.duration_s, 300.0 * 3600.0);
  EXPECT_DOUBLE_EQ(cfg.scan_interval_s, 300.0);
}

TEST(SyntheticTrace, CambridgePresetMatchesTableI) {
  const auto cfg = SyntheticTraceConfig::cambridge06(1);
  EXPECT_EQ(cfg.num_participants, 54);
  EXPECT_DOUBLE_EQ(cfg.duration_s, 200.0 * 3600.0);
  EXPECT_DOUBLE_EQ(cfg.scan_interval_s, 120.0);
}

TEST(SyntheticTrace, InterContactTimesRoughlyExponential) {
  // For a homogeneous pairwise Poisson process the coefficient of variation
  // of inter-contact times is near 1 (the exponential signature eq. (1)
  // relies on).
  SyntheticTraceConfig cfg = small_config(11);
  cfg.activity_sigma = 0.0;
  cfg.intra_team_boost = 1.0;
  cfg.duration_s = 500.0 * 3600.0;
  const ContactTrace t = generate_synthetic_trace(cfg);
  std::vector<double> gaps;
  std::map<std::pair<NodeId, NodeId>, double> last;
  for (const Contact& c : t.contacts()) {
    if (c.involves(kCommandCenter)) continue;
    const auto key = std::minmax(c.a, c.b);
    const auto it = last.find({key.first, key.second});
    if (it != last.end()) gaps.push_back(c.start - it->second);
    last[{key.first, key.second}] = c.start;
  }
  ASSERT_GT(gaps.size(), 300u);
  double mean = 0.0;
  for (const double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size() - 1);
  const double cv = std::sqrt(var) / mean;
  EXPECT_NEAR(cv, 1.0, 0.3);
}

}  // namespace
}  // namespace photodtn
