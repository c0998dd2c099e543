#include "trace/mobility_rwp.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace photodtn {
namespace {

RwpConfig small_config(std::uint64_t seed = 1) {
  RwpConfig cfg;
  cfg.num_participants = 10;
  cfg.region_m = 1000.0;
  cfg.duration_s = 4.0 * 3600.0;
  cfg.comm_range_m = 80.0;
  cfg.scan_interval_s = 60.0;
  cfg.seed = seed;
  return cfg;
}

TEST(RwpMobility, PositionsInsideRegion) {
  const RwpMobility m(small_config());
  for (NodeId n = 1; n <= 10; ++n) {
    for (double t = 0.0; t <= 4.0 * 3600.0; t += 600.0) {
      const Vec2 p = m.position(n, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1000.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1000.0);
    }
  }
}

TEST(RwpMobility, MovementRespectsSpeedBound) {
  const RwpConfig cfg = small_config();
  const RwpMobility m(cfg);
  for (NodeId n = 1; n <= 5; ++n) {
    for (double t = 0.0; t < cfg.duration_s - 10.0; t += 100.0) {
      const double moved = m.position(n, t).distance_to(m.position(n, t + 10.0));
      EXPECT_LE(moved, cfg.speed_max * 10.0 + 1e-6);
    }
  }
}

TEST(RwpMobility, PositionDeterministicAndContinuous) {
  const RwpMobility a(small_config(5));
  const RwpMobility b(small_config(5));
  for (double t = 0.0; t < 3600.0; t += 123.4) {
    EXPECT_EQ(a.position(3, t), b.position(3, t));
    // Continuity: nearby times give nearby positions.
    const double d = a.position(3, t).distance_to(a.position(3, t + 1.0));
    EXPECT_LE(d, small_config().speed_max + 1e-9);
  }
}

TEST(RwpMobility, ContactsMatchGeometry) {
  const RwpConfig cfg = small_config(9);
  const RwpMobility m(cfg);
  const ContactTrace t = m.extract_contacts();
  // Every participant-participant contact implies proximity at its start.
  std::size_t checked = 0;
  for (const Contact& c : t.contacts()) {
    if (c.involves(kCommandCenter)) continue;
    const double d = m.position(c.a, c.start).distance_to(m.position(c.b, c.start));
    EXPECT_LE(d, cfg.comm_range_m + 1e-6);
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "dense small region should produce contacts";
}

TEST(RwpMobility, GatewaysSelectedAndContactCenter) {
  const RwpConfig cfg = small_config();
  const RwpMobility m(cfg);
  EXPECT_GE(m.gateways().size(), 1u);
  const ContactTrace t = m.extract_contacts();
  bool has_cc_contact = false;
  for (const Contact& c : t.contacts())
    if (c.involves(kCommandCenter)) has_cc_contact = true;
  EXPECT_TRUE(has_cc_contact);
}

TEST(RwpMobility, GatewayFractionOutsideUnitIntervalIsRejected) {
  for (const double fraction : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    RwpConfig cfg = small_config();
    cfg.gateway_fraction = fraction;
    try {
      const RwpMobility m(cfg);
      ADD_FAILURE() << "gateway_fraction " << fraction << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("gateway_fraction"), std::string::npos) << e.what();
    }
  }
  RwpConfig all = small_config();
  all.gateway_fraction = 1.0;
  EXPECT_EQ(RwpMobility(all).gateways().size(), 10u);
}

TEST(RwpMobility, PositionClampedOutsideHorizon) {
  const RwpMobility m(small_config());
  EXPECT_EQ(m.position(1, -5.0), m.position(1, 0.0));
  const Vec2 end = m.position(1, small_config().duration_s * 10.0);
  EXPECT_GE(end.x, 0.0);
  EXPECT_LE(end.x, 1000.0);
}

}  // namespace
}  // namespace photodtn
