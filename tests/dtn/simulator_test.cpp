#include "dtn/simulator.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_util.h"

namespace photodtn {
namespace {

using test::make_photo;
using test::make_poi;

/// Minimal scheme: keep every photo that fits; on contact push everything
/// to the peer (flood).
class FloodScheme : public Scheme {
 public:
  std::string name() const override { return "Flood"; }
  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override {
    ctx.store_photo(node, photo);
  }
  void on_contact(SimContext& ctx, ContactSession& s) override {
    for (const NodeId src : {s.a(), s.b()}) {
      const NodeId dst = s.peer(src);
      for (const PhotoMeta& p : ctx.node(src).store().photos()) {
        if (ctx.node(dst).store().contains(p.id)) continue;
        s.transfer(p.id, src, dst, true);
      }
    }
  }
};

CoverageModel test_model() {
  return CoverageModel{{make_poi(0.0, 0.0)}, deg_to_rad(30.0)};
}

SimConfig small_config() {
  SimConfig cfg;
  cfg.node_storage_bytes = 1000;
  cfg.bandwidth_bytes_per_s = 10.0;  // 10 B/s
  cfg.sample_interval_s = 100.0;
  return cfg;
}

PhotoEvent ev(double t, NodeId node, PhotoId id, std::uint64_t size = 100) {
  PhotoMeta p = make_photo(100.0, 0.0, 180.0, 200.0, 60.0, id, node, size, t);
  return PhotoEvent{t, node, p};
}

TEST(Simulator, DeliversPhotoThroughRelayToCenter) {
  const CoverageModel model = test_model();
  // Node 1 takes a photo at t=10; meets node 2 at t=20; node 2 meets the
  // command center at t=50.
  const ContactTrace trace{{{20.0, 100.0, 1, 2}, {50.0, 100.0, 0, 2}}, 3, 400.0};
  Simulator sim(model, trace, {ev(10.0, 1, 1)}, small_config());
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);
  EXPECT_DOUBLE_EQ(r.final_point_norm, 1.0);
  EXPECT_GT(r.final_aspect_norm, 0.0);
  EXPECT_EQ(r.counters.photos_taken, 1u);
  EXPECT_EQ(r.counters.contacts, 2u);
  EXPECT_EQ(r.counters.transfers, 2u);  // 1->2, 2->0
}

TEST(Simulator, ByteBudgetLimitsTransfers) {
  const CoverageModel model = test_model();
  // 10 B/s * 25 s = 250 bytes: only two 100-byte photos fit the contact.
  const ContactTrace trace{{{20.0, 25.0, 1, 2}}, 3, 100.0};
  Simulator sim(model, trace,
                {ev(1.0, 1, 1), ev(2.0, 1, 2), ev(3.0, 1, 3)}, small_config());
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.transfers, 2u);
  EXPECT_EQ(r.counters.bytes_transferred, 200u);
  EXPECT_GE(r.counters.failed_transfers, 1u);
}

TEST(Simulator, UnlimitedBandwidthIgnoresDuration) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{20.0, 0.0, 1, 2}}, 3, 100.0};  // zero duration!
  SimConfig cfg = small_config();
  cfg.unlimited_bandwidth = true;
  Simulator sim(model, trace, {ev(1.0, 1, 1), ev(2.0, 1, 2)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.transfers, 2u);
}

TEST(Simulator, StorageLimitRejectsOverflow) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{50.0, 1000.0, 1, 2}}, 3, 100.0};
  SimConfig cfg = small_config();
  cfg.node_storage_bytes = 250;  // fits two 100-byte photos per node
  std::vector<PhotoEvent> events;
  for (PhotoId i = 1; i <= 5; ++i) events.push_back(ev(static_cast<double>(i), 1, i));
  Simulator sim(model, trace, std::move(events), cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  // Node 1 keeps only 2 photos; node 2 receives at most 2.
  EXPECT_LE(r.counters.transfers, 2u);
}

TEST(Simulator, CommandCenterNeverDrops) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 100.0, 0, 1}}, 2, 50.0};
  Simulator sim(model, trace, {ev(1.0, 1, 1)}, small_config());

  class DropAtCenter : public Scheme {
   public:
    std::string name() const override { return "DropAtCenter"; }
    void on_photo_taken(SimContext& ctx, NodeId n, const PhotoMeta& p) override {
      ctx.store_photo(n, p);
    }
    void on_contact(SimContext& ctx, ContactSession& s) override {
      s.transfer(1, 1, kCommandCenter, true);
      EXPECT_FALSE(ctx.drop_photo(kCommandCenter, 1));
      EXPECT_TRUE(ctx.node(kCommandCenter).store().contains(1));
    }
  } scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.delivered_photos, 1u);
}

TEST(Simulator, TransferValidation) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 100.0, 1, 2}}, 3, 50.0};
  Simulator sim(model, trace, {ev(1.0, 1, 1)}, small_config());

  class Prober : public Scheme {
   public:
    std::string name() const override { return "Prober"; }
    void on_photo_taken(SimContext& ctx, NodeId n, const PhotoMeta& p) override {
      ctx.store_photo(n, p);
    }
    void on_contact(SimContext&, ContactSession& s) override {
      EXPECT_FALSE(s.transfer(99, s.a(), s.b(), true));  // missing photo
      EXPECT_TRUE(s.transfer(1, 1, 2, true));
      EXPECT_FALSE(s.transfer(1, 1, 2, true));  // duplicate at destination
      // Endpoints must match the contact.
      EXPECT_THROW(s.transfer(1, 1, 0, true), std::logic_error);
    }
  } scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.failed_transfers, 2u);
  EXPECT_EQ(r.counters.transfers, 1u);
}

TEST(Simulator, MoveSemanticsRemoveSourceCopy) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 100.0, 1, 2}}, 3, 50.0};
  Simulator sim(model, trace, {ev(1.0, 1, 1)}, small_config());

  class Mover : public Scheme {
   public:
    std::string name() const override { return "Mover"; }
    void on_photo_taken(SimContext& ctx, NodeId n, const PhotoMeta& p) override {
      ctx.store_photo(n, p);
    }
    void on_contact(SimContext& ctx, ContactSession& s) override {
      ASSERT_TRUE(s.transfer(1, 1, 2, /*keep_source=*/false));
      EXPECT_FALSE(ctx.node(1).store().contains(1));
      EXPECT_TRUE(ctx.node(2).store().contains(1));
    }
  } scheme;
  sim.run(scheme);
}

TEST(Simulator, ContactSetupTimeShrinksBudget) {
  const CoverageModel model = test_model();
  // 10 B/s, 25 s contact, 15 s setup: only 100 payload bytes -> 1 photo.
  const ContactTrace trace{{{20.0, 25.0, 1, 2}}, 3, 100.0};
  SimConfig cfg = small_config();
  cfg.contact_setup_s = 15.0;
  Simulator sim(model, trace, {ev(1.0, 1, 1), ev(2.0, 1, 2)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.transfers, 1u);
}

TEST(Simulator, SetupLongerThanContactMeansNoTransfers) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{20.0, 10.0, 1, 2}}, 3, 100.0};
  SimConfig cfg = small_config();
  cfg.contact_setup_s = 30.0;
  Simulator sim(model, trace, {ev(1.0, 1, 1)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.transfers, 0u);
}

TEST(Simulator, ConsumeChargesBudget) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{20.0, 30.0, 1, 2}}, 3, 100.0};  // 300-byte budget

  class Consumer : public Scheme {
   public:
    std::string name() const override { return "Consumer"; }
    void on_photo_taken(SimContext& ctx, NodeId n, const PhotoMeta& p) override {
      ctx.store_photo(n, p);
    }
    void on_contact(SimContext&, ContactSession& s) override {
      EXPECT_TRUE(s.consume(250));           // metadata eats most of it
      EXPECT_EQ(s.budget_bytes(), 50u);
      EXPECT_FALSE(s.transfer(1, 1, 2, true));  // 100-byte photo no longer fits
      EXPECT_FALSE(s.consume(100));          // overdraw zeroes the budget
      EXPECT_EQ(s.budget_bytes(), 0u);
    }
  } scheme;
  Simulator sim(model, trace, {ev(1.0, 1, 1)}, small_config());
  sim.run(scheme);
}

TEST(Simulator, SamplesCoverGridIncludingHorizon) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 10.0, 1, 2}}, 3, 500.0};
  Simulator sim(model, trace, {}, small_config());  // sample every 100 s
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  ASSERT_EQ(r.samples.size(), 6u);  // t = 0, 100, ..., 500
  EXPECT_DOUBLE_EQ(r.samples.front().time, 0.0);
  EXPECT_DOUBLE_EQ(r.samples.back().time, 500.0);
  for (std::size_t i = 1; i < r.samples.size(); ++i)
    EXPECT_GE(r.samples[i].delivered_photos, r.samples[i - 1].delivered_photos);
}

TEST(Simulator, ProphetUpdatedOnContacts) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 10.0, 0, 1}}, 2, 50.0};
  Simulator sim(model, trace, {}, small_config());

  class Checker : public Scheme {
   public:
    std::string name() const override { return "Checker"; }
    void on_photo_taken(SimContext&, NodeId, const PhotoMeta&) override {}
    void on_contact(SimContext& ctx, ContactSession&) override {
      // After the encounter update, node 1 has direct predictability to 0.
      EXPECT_DOUBLE_EQ(ctx.node(1).delivery_prob(ctx.now()), 0.75);
      EXPECT_EQ(ctx.node(1).rates().total_contacts(), 1u);
    }
  } scheme;
  sim.run(scheme);
}

TEST(Simulator, RejectsSampleIntervalNotFiniteAndPositive) {
  // run() steps the sample clock by the interval until it passes each
  // event: 0 or a negative interval never would, and NaN or inf would
  // silently record a single sample. The constructor refuses all four.
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 10.0, 1, 2}}, 3, 50.0};
  for (const double interval : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    SimConfig cfg = small_config();
    cfg.sample_interval_s = interval;
    EXPECT_THROW((void)Simulator(model, trace, {}, cfg), std::logic_error) << interval;
  }
}

TEST(Simulator, RunIsSingleShot) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{10.0, 10.0, 1, 2}}, 3, 50.0};
  Simulator sim(model, trace, {}, small_config());
  FloodScheme scheme;
  sim.run(scheme);
  EXPECT_THROW(sim.run(scheme), std::logic_error);
}

}  // namespace
}  // namespace photodtn
