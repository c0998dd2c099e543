#include "routing/prophet.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "persist/state_access.h"
#include "routing/reference_prophet.h"
#include "util/rng.h"

namespace photodtn {
namespace {

constexpr ProphetConfig kCfg{};  // Table I: 0.75 / 0.25 / 0.98

TEST(Prophet, UnknownNodesHaveZeroProbability) {
  const ProphetTable t(kCfg, 1);
  EXPECT_EQ(t.delivery_prob(2), 0.0);
  EXPECT_EQ(t.delivery_prob(1), 1.0);  // self
}

TEST(Prophet, EncounterSetsPInit) {
  ProphetTable a(kCfg, 1), b(kCfg, 2);
  ProphetTable::encounter(a, b, 0.0);
  EXPECT_DOUBLE_EQ(a.delivery_prob(2), 0.75);
  EXPECT_DOUBLE_EQ(b.delivery_prob(1), 0.75);
}

TEST(Prophet, RepeatedEncountersApproachOne) {
  ProphetTable a(kCfg, 1), b(kCfg, 2);
  double prev = 0.0;
  for (int i = 0; i < 6; ++i) {
    ProphetTable::encounter(a, b, i * 1.0);
    const double p = a.delivery_prob(2);
    EXPECT_GT(p, prev);
    prev = p;
  }
  // P after two encounters: 0.75 + 0.25*0.75 = 0.9375 (aging over 1 s with a
  // 600 s unit is negligible but nonzero).
  EXPECT_LT(prev, 1.0);
  EXPECT_GT(prev, 0.99);
}

TEST(Prophet, AgingDecaysExponentially) {
  ProphetTable a(kCfg, 1), b(kCfg, 2);
  ProphetTable::encounter(a, b, 0.0);
  a.age(600.0);  // one time unit
  EXPECT_NEAR(a.delivery_prob(2), 0.75 * 0.98, 1e-12);
  a.age(600.0 * 11.0);  // ten more units
  EXPECT_NEAR(a.delivery_prob(2), 0.75 * std::pow(0.98, 11.0), 1e-12);
}

TEST(Prophet, AgingIsIdempotentAtSameTime) {
  ProphetTable a(kCfg, 1), b(kCfg, 2);
  ProphetTable::encounter(a, b, 0.0);
  a.age(1200.0);
  const double p = a.delivery_prob(2);
  a.age(1200.0);
  EXPECT_DOUBLE_EQ(a.delivery_prob(2), p);
}

TEST(Prophet, AgingRejectsTimeTravel) {
  ProphetTable a(kCfg, 1);
  a.age(100.0);
  EXPECT_THROW(a.age(50.0), std::logic_error);
}

TEST(Prophet, TransitivityPropagates) {
  // b has met the command center (0); when a meets b, a gains an indirect
  // path: P(a,0) = P(a,b) * P(b,0) * beta.
  ProphetTable a(kCfg, 1), b(kCfg, 2), cc(kCfg, 0);
  ProphetTable::encounter(b, cc, 0.0);
  const double p_b0 = b.delivery_prob(0);
  ProphetTable::encounter(a, b, 0.0);
  EXPECT_NEAR(a.delivery_prob(0), 0.75 * p_b0 * 0.25, 1e-12);
}

TEST(Prophet, TransitivityUsesPreEncounterSnapshot) {
  // The transitive rule must not feed on the just-updated direct entries:
  // a's new knowledge of b must come from b's pre-encounter table.
  ProphetTable a(kCfg, 1), b(kCfg, 2);
  ProphetTable::encounter(a, b, 0.0);
  // b knew nothing about node 3, so a must not either.
  EXPECT_EQ(a.delivery_prob(3), 0.0);
}

TEST(Prophet, EncounterRejectsSelf) {
  ProphetTable a(kCfg, 1), also_a(kCfg, 1);
  EXPECT_THROW(ProphetTable::encounter(a, also_a, 0.0), std::logic_error);
}

TEST(Prophet, ProbabilitiesStayInUnitInterval) {
  ProphetTable a(kCfg, 1), b(kCfg, 2), c(kCfg, 3);
  for (int i = 0; i < 50; ++i) {
    ProphetTable::encounter(a, b, i * 10.0);
    ProphetTable::encounter(b, c, i * 10.0 + 5.0);
    for (NodeId node = 0; node < 5; ++node) {
      EXPECT_GE(a.delivery_prob(node), 0.0);
      EXPECT_LE(a.delivery_prob(node), 1.0);
    }
  }
}

std::string checkpoint(const ProphetTable& t) {
  persist::StateWriter w;
  persist::StateAccess::save(w, t);
  return w.take();
}

std::string checkpoint(const test::ReferenceProphetTable& t) {
  persist::StateWriter w;
  t.save(w);
  return w.take();
}

TEST(Prophet, DenseTableMatchesTheMapOracleBitForBit) {
  // Random encounters among 12 nodes, some of which stay out of every
  // encounter until late (first meetings with tables already full), plus
  // aging reads and wipes that restart a node's table. After every step
  // each predictability and the checkpoint of both tables must equal the
  // map-based oracle's exactly.
  constexpr NodeId kNodes = 12;
  ProphetConfig cfg = kCfg;
  cfg.aging_time_unit_s = 60.0;  // many aging units between encounters
  std::vector<ProphetTable> dense;
  std::vector<test::ReferenceProphetTable> oracle;
  for (NodeId id = 0; id < kNodes; ++id) {
    dense.emplace_back(cfg, id);
    oracle.emplace_back(cfg, id);
  }
  const auto require_equal = [&](NodeId n, int step) {
    const auto i = static_cast<std::size_t>(n);
    for (NodeId dest = -1; dest <= kNodes; ++dest) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dense[i].delivery_prob(dest)),
                std::bit_cast<std::uint64_t>(oracle[i].delivery_prob(dest)))
          << "node " << n << " dest " << dest << " step " << step;
    }
    ASSERT_EQ(checkpoint(dense[i]), checkpoint(oracle[i])) << "node " << n << " step " << step;
    ASSERT_NO_THROW(dense[i].audit()) << "node " << n << " step " << step;
  };
  Rng rng(0x9409E7);
  double now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.uniform(0.0, 400.0);
    // Nodes 9-11 join only after step 2500.
    const NodeId active = step < 2500 ? 9 : kNodes;
    const auto a = static_cast<NodeId>(rng.uniform_int(0, active - 1));
    const double roll = rng.uniform();
    if (roll < 0.02) {
      dense[static_cast<std::size_t>(a)] = ProphetTable(cfg, a);
      oracle[static_cast<std::size_t>(a)] = test::ReferenceProphetTable(cfg, a);
    } else if (roll < 0.1) {
      dense[static_cast<std::size_t>(a)].age(now);
      oracle[static_cast<std::size_t>(a)].age(now);
    } else {
      auto b = static_cast<NodeId>(rng.uniform_int(0, active - 2));
      if (b >= a) ++b;
      ProphetTable::encounter(dense[static_cast<std::size_t>(a)],
                              dense[static_cast<std::size_t>(b)], now);
      test::ReferenceProphetTable::encounter(oracle[static_cast<std::size_t>(a)],
                                             oracle[static_cast<std::size_t>(b)], now);
      require_equal(b, step);
    }
    require_equal(a, step);
    if (HasFatalFailure()) return;
  }
}

TEST(Prophet, CheckpointRoundTripsEntriesAtZero) {
  // An entry can exist at predictability 0 (aging underflows it, or it was
  // learned from a peer's 0): it is still an entry and still written.
  ProphetConfig cfg = kCfg;
  cfg.aging_time_unit_s = 1.0;
  ProphetTable a(cfg, 3), b(cfg, 5), c(cfg, 1);
  ProphetTable::encounter(b, c, 0.0);
  b.age(1e6);  // 0.98^1e6 underflows: P(5,1) is an entry at 0
  ASSERT_EQ(b.delivery_prob(1), 0.0);
  ProphetTable::encounter(a, b, 1e6);  // a learns node 1 at 0
  const std::string bytes = checkpoint(a);
  ProphetTable restored(cfg, 3);
  persist::StateReader r(bytes, "prophet");
  persist::StateAccess::load(r, restored, 6);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(checkpoint(restored), bytes);
  EXPECT_EQ(restored.delivery_prob(1), 0.0);
  EXPECT_EQ(restored.delivery_prob(5), a.delivery_prob(5));
}

TEST(Prophet, RestoreRejectsPeersOutsideTheNodeRange) {
  // A peer id sizes the dense table, so it is checked against the node
  // count before anything grows.
  const auto crafted = [](NodeId peer) {
    persist::StateWriter w;
    w.f64(0.0);  // aging clock
    w.u64(1);    // one entry
    w.i32(peer);
    w.f64(0.5);
    return w.take();
  };
  for (const NodeId peer : {NodeId{-1}, NodeId{-5}, NodeId{6},
                            std::numeric_limits<NodeId>::max()}) {
    const std::string bytes = crafted(peer);
    ProphetTable t(kCfg, 1);
    persist::StateReader r(bytes, "prophet");
    try {
      persist::StateAccess::load(r, t, 6);
      ADD_FAILURE() << "peer " << peer << " accepted";
    } catch (const persist::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("PROPHET peer " + std::to_string(peer)),
                std::string::npos)
          << e.what();
    }
  }
  // A self entry is in range but still refused, by audit().
  const std::string self_entry = crafted(1);
  ProphetTable t(kCfg, 1);
  persist::StateReader r(self_entry, "prophet");
  EXPECT_THROW(persist::StateAccess::load(r, t, 6), std::logic_error);
}

TEST(ProphetAudit, HoldsUnderLongEncounterChains) {
  // Property: after arbitrarily many encounter/age cycles, every delivery
  // predictability is a finite probability, the table never acquires a self
  // entry, and aging stays monotone — the invariants audit() asserts.
  std::vector<ProphetTable> nodes;
  for (NodeId id = 0; id < 6; ++id) nodes.emplace_back(kCfg, id);
  double now = 0.0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t i = static_cast<std::size_t>(round) % nodes.size();
    const std::size_t j = (i + 1 + static_cast<std::size_t>(round / 7) % 4) % nodes.size();
    if (i == j) continue;
    now += 37.0;
    ProphetTable::encounter(nodes[i], nodes[j], now);
    ASSERT_NO_THROW(nodes[i].audit());
    ASSERT_NO_THROW(nodes[j].audit());
  }
  for (auto& n : nodes) {
    n.age(now + 1e6);  // deep aging decays toward 0 but must stay in range
    ASSERT_NO_THROW(n.audit());
  }
}

TEST(ProphetAudit, RejectsNonDecayingGamma) {
  ProphetConfig bad = kCfg;
  bad.gamma = 1.5;  // gamma > 1 would make "aging" amplify predictabilities
  const ProphetTable t(bad, 1);
  EXPECT_THROW(t.audit(), std::logic_error);
}

TEST(ProphetAudit, ExtremeConfigStaysClamped) {
  // p_init = 1 drives entries to exactly 1.0; repeated updates must not
  // round above it.
  ProphetConfig cfg = kCfg;
  cfg.p_init = 1.0;
  ProphetTable a(cfg, 1), b(cfg, 2);
  for (int i = 0; i < 20; ++i) {
    ProphetTable::encounter(a, b, i * 1.0);
    ASSERT_NO_THROW(a.audit());
  }
  EXPECT_DOUBLE_EQ(a.delivery_prob(2), 1.0);
}

}  // namespace
}  // namespace photodtn
