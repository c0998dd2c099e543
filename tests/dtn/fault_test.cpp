// The fault-injection layer (dtn/fault.h): budget clamping, deterministic
// schedules, churn semantics in the simulator, and the partial-transfer
// contract of an interrupted ContactSession.
#include "dtn/fault.h"

#include <gtest/gtest.h>

#include "dtn/simulator.h"
#include "schemes/factory.h"
#include "test_util.h"
#include "trace/synthetic_trace.h"
#include "util/rng.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"
#include "workload/scenario.h"

namespace photodtn {
namespace {

using test::make_photo;
using test::make_poi;

// --------------------------------------------------- contact_payload_budget

TEST(ContactPayloadBudget, ClampsToExactlyZeroWhenSetupSwallowsContact) {
  EXPECT_EQ(contact_payload_budget(2.0e6, 10.0, 10.0), 0u);
  EXPECT_EQ(contact_payload_budget(2.0e6, 10.0, 15.0), 0u);
  EXPECT_EQ(contact_payload_budget(2.0e6, 0.0, 0.0), 0u);
  // Degenerate inputs clamp instead of wrapping through the conversion.
  EXPECT_EQ(contact_payload_budget(2.0e6, -5.0, 0.0), 0u);
  EXPECT_EQ(contact_payload_budget(-2.0e6, 10.0, 0.0), 0u);
}

TEST(ContactPayloadBudget, MatchesBandwidthTimesPayloadTime) {
  EXPECT_EQ(contact_payload_budget(10.0, 25.0, 0.0), 250u);
  EXPECT_EQ(contact_payload_budget(10.0, 25.0, 5.0), 200u);
  EXPECT_EQ(contact_payload_budget(10.0, 25.0, 5.0, 0.5), 100u);
}

TEST(ContactPayloadBudget, SaturatesInsteadOfOverflowingTheConversion) {
  // 1e19 > 2^64 - 1: the double -> uint64 cast would be UB; we saturate.
  EXPECT_EQ(contact_payload_budget(1.0e18, 100.0, 0.0), ~0ULL);
  const std::uint64_t near = contact_payload_budget(1.0e15, 100.0, 0.0);
  EXPECT_EQ(near, static_cast<std::uint64_t>(1.0e17));
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, DefaultConfigIsInert) {
  const FaultConfig cfg;
  EXPECT_FALSE(cfg.any());
  const FaultInjector inj(cfg, 10, 1000.0, 42);
  EXPECT_FALSE(inj.enabled());
  EXPECT_TRUE(inj.transitions().empty());
  const ContactFault f = inj.contact_fault(7);
  EXPECT_FALSE(f.interrupted);
  EXPECT_FALSE(f.gossip_lost_ab);
  EXPECT_FALSE(f.gossip_lost_ba);
  EXPECT_DOUBLE_EQ(f.bandwidth_factor, 1.0);
  inj.audit();
}

TEST(FaultInjector, SameSeedSamePlanDifferentSaltDifferentPlan) {
  FaultConfig cfg;
  cfg.crash_rate_per_hour = 0.5;
  cfg.mean_downtime_s = 1800.0;
  cfg.contact_interrupt_prob = 0.4;
  cfg.bandwidth_jitter = 0.3;
  cfg.gossip_loss_prob = 0.3;
  const double horizon = 48.0 * 3600.0;

  const FaultInjector x(cfg, 12, horizon, 7);
  const FaultInjector y(cfg, 12, horizon, 7);
  ASSERT_EQ(x.transitions().size(), y.transitions().size());
  for (std::size_t i = 0; i < x.transitions().size(); ++i) {
    EXPECT_EQ(x.transitions()[i].time, y.transitions()[i].time);
    EXPECT_EQ(x.transitions()[i].node, y.transitions()[i].node);
    EXPECT_EQ(x.transitions()[i].up, y.transitions()[i].up);
  }
  bool contact_diff = false;
  for (std::size_t i = 0; i < 50; ++i) {
    const ContactFault a = x.contact_fault(i);
    const ContactFault b = y.contact_fault(i);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.keep_fraction, b.keep_fraction);
    EXPECT_EQ(a.bandwidth_factor, b.bandwidth_factor);
    EXPECT_EQ(a.gossip_lost_ab, b.gossip_lost_ab);
    EXPECT_EQ(a.gossip_lost_ba, b.gossip_lost_ba);
  }

  FaultConfig salted = cfg;
  salted.salt = 1;
  const FaultInjector z(salted, 12, horizon, 7);
  for (std::size_t i = 0; i < 50 && !contact_diff; ++i) {
    const ContactFault a = x.contact_fault(i);
    const ContactFault b = z.contact_fault(i);
    contact_diff = a.interrupted != b.interrupted ||
                   a.bandwidth_factor != b.bandwidth_factor ||
                   a.gossip_lost_ab != b.gossip_lost_ab;
  }
  EXPECT_TRUE(contact_diff) << "salt must decorrelate the fault streams";
}

TEST(FaultInjector, ChurnScheduleAlternatesAndSparesTheCenter) {
  FaultConfig cfg;
  cfg.crash_rate_per_hour = 2.0;  // busy schedule
  cfg.mean_downtime_s = 900.0;
  const double horizon = 72.0 * 3600.0;
  const FaultInjector inj(cfg, 8, horizon, 3);
  ASSERT_FALSE(inj.transitions().empty());
  inj.audit();  // alternation, sortedness, center exclusion
  double prev = 0.0;
  for (const ChurnTransition& tr : inj.transitions()) {
    EXPECT_GT(tr.node, kCommandCenter);
    EXPECT_LT(tr.node, 8);
    EXPECT_GE(tr.time, prev);
    EXPECT_LT(tr.time, horizon);
    prev = tr.time;
  }
}

TEST(FaultInjector, ScriptedOverlapsMergeIntoOneOutage) {
  FaultConfig cfg;
  cfg.scripted_downtime = {{2, 100.0, 300.0}, {2, 200.0, 400.0}, {3, 50.0, 60.0}};
  const FaultInjector inj(cfg, 5, 1000.0, 1);
  inj.audit();
  // Node 2: one merged outage [100, 400); node 3: [50, 60).
  std::vector<ChurnTransition> node2;
  for (const ChurnTransition& tr : inj.transitions())
    if (tr.node == 2) node2.push_back(tr);
  ASSERT_EQ(node2.size(), 2u);
  EXPECT_DOUBLE_EQ(node2[0].time, 100.0);
  EXPECT_FALSE(node2[0].up);
  EXPECT_DOUBLE_EQ(node2[1].time, 400.0);
  EXPECT_TRUE(node2[1].up);
}

TEST(FaultInjector, OutageRunningToHorizonNeverReboots) {
  FaultConfig cfg;
  cfg.scripted_downtime = {{1, 500.0, 5000.0}};
  const FaultInjector inj(cfg, 3, 1000.0, 1);
  ASSERT_EQ(inj.transitions().size(), 1u);
  EXPECT_FALSE(inj.transitions()[0].up);
}

// ----------------------------------------------------- simulator integration

/// Keep everything, flood everything — the simplest contact user.
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
  cfg.bandwidth_bytes_per_s = 10.0;
  cfg.sample_interval_s = 1000.0;
  return cfg;
}

PhotoEvent ev(double t, NodeId node, PhotoId id, std::uint64_t size = 100) {
  PhotoMeta p = make_photo(100.0, 0.0, 180.0, 200.0, 60.0, id, node, size, t);
  return PhotoEvent{t, node, p};
}

TEST(SimulatorFaults, DownNodeMissesContactsAndCaptures) {
  const CoverageModel model = test_model();
  // Node 1 is down [15, 60): it misses the capture at 20 and the contact at
  // 30, then attends the contact at 80 with only its second photo.
  const ContactTrace trace{{{30.0, 50.0, 0, 1}, {80.0, 50.0, 0, 1}}, 2, 400.0};
  SimConfig cfg = small_config();
  cfg.faults.scripted_downtime = {{1, 15.0, 60.0}};
  cfg.obs.trace = true;
  Simulator sim(model, trace, {ev(10.0, 1, 1), ev(20.0, 1, 2), ev(70.0, 1, 3)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);

  EXPECT_EQ(r.counters.missed_contacts, 1u);
  EXPECT_EQ(r.counters.contacts, 1u);
  EXPECT_EQ(r.counters.photos_missed_down, 1u);
  EXPECT_EQ(r.counters.photos_taken, 2u);
  EXPECT_EQ(r.counters.node_crashes, 1u);
  // The wipe (default) destroyed photo 1; photos 3 (and nothing else)
  // survive to the second contact — photo 2 was never captured.
  EXPECT_EQ(r.counters.photos_lost_to_crash, 1u);
  EXPECT_EQ(r.delivered_photos, 1u);
  ASSERT_EQ(r.delivered_ids.size(), 1u);
  EXPECT_EQ(r.delivered_ids[0], 3u);

  // Crash/reboot events bracket the outage, in order.
  std::vector<obs::Event> churn;
  for (const obs::Event& e : r.obs.trace_events)
    if (e.kind == obs::Event::Kind::kCrashWipe || e.kind == obs::Event::Kind::kReboot)
      churn.push_back(e);
  ASSERT_EQ(churn.size(), 2u);
  EXPECT_EQ(churn[0].kind, obs::Event::Kind::kCrashWipe);
  EXPECT_DOUBLE_EQ(churn[0].ts_s, 15.0);
  EXPECT_EQ(churn[0].node, 1);
  EXPECT_EQ(churn[0].value, 1.0);  // photo 1 was wiped
  EXPECT_EQ(churn[1].kind, obs::Event::Kind::kReboot);
  EXPECT_DOUBLE_EQ(churn[1].ts_s, 60.0);
}

TEST(SimulatorFaults, CrashWithoutWipeKeepsTheBuffer) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{80.0, 50.0, 0, 1}}, 2, 400.0};
  SimConfig cfg = small_config();
  cfg.faults.scripted_downtime = {{1, 15.0, 60.0}};
  cfg.faults.crash_wipes_storage = false;
  cfg.obs.trace = true;
  cfg.obs.provenance = true;
  Simulator sim(model, trace, {ev(10.0, 1, 1)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.photos_lost_to_crash, 0u);
  EXPECT_EQ(r.delivered_photos, 1u);  // the pre-crash photo survived the outage
  // A crash that keeps the buffer is a trace event only: provenance records
  // the wipes that lose photos.
  EXPECT_EQ(test::photos_of(r, obs::Event::Kind::kCrash).size(), 1u);
  for (const obs::Event& e : r.obs.prov_events)
    EXPECT_NE(e.kind, obs::Event::Kind::kCrashWipe);
}

TEST(SimulatorFaults, InterruptedTransferBurnsWireBytesWithoutMaterializing) {
  const CoverageModel model = test_model();
  // Budget 10 B/s * 25 s = 250 bytes; the link dies at 50% = 125 bytes.
  // Photo 1 (100 B) completes; photo 2 is cut 25 bytes in.
  const ContactTrace trace{{{20.0, 25.0, 1, 2}}, 3, 100.0};
  SimConfig cfg = small_config();
  cfg.faults.contact_interrupt_prob = 1.0;
  cfg.faults.interrupt_fraction_min = 0.5;
  cfg.faults.interrupt_fraction_max = 0.5;
  cfg.obs.trace = true;
  Simulator sim(model, trace, {ev(1.0, 1, 1), ev(2.0, 1, 2), ev(3.0, 1, 3)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);

  EXPECT_EQ(r.counters.transfers, 1u);
  EXPECT_EQ(r.counters.bytes_transferred, 100u);
  EXPECT_EQ(r.counters.interrupted_contacts, 1u);
  EXPECT_EQ(r.counters.interrupted_transfers, 1u);
  EXPECT_EQ(r.counters.partial_bytes, 25u);
  EXPECT_GE(r.counters.failed_transfers, 2u);  // the cut one + the dead-link one

  EXPECT_EQ(test::photos_of(r, obs::Event::Kind::kLinkCut), (std::vector<PhotoId>{2}))
      << "the cut must name the in-flight photo";
}

TEST(SimulatorFaults, SetupSwallowingContactMovesNothing) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{20.0, 5.0, 1, 2}}, 3, 100.0};
  SimConfig cfg = small_config();
  cfg.contact_setup_s = 5.0;  // setup == duration: payload budget exactly 0
  Simulator sim(model, trace, {ev(1.0, 1, 1)}, cfg);
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.transfers, 0u);
  EXPECT_EQ(r.counters.bytes_transferred, 0u);
}

TEST(SimulatorFaults, FaultedRunIsByteIdenticallyReproducible) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    Rng poi_rng = rng.split("pois");
    const PoiList pois = generate_uniform_pois(10, 2000.0, poi_rng);
    const CoverageModel model(pois, deg_to_rad(30.0));
    SyntheticTraceConfig tc;
    tc.num_participants = 6;
    tc.duration_s = 24.0 * 3600.0;
    tc.base_pair_rate_per_hour = 0.6;
    tc.seed = seed;
    const ContactTrace trace = generate_synthetic_trace(tc);
    ScenarioConfig sc = ScenarioConfig::mit(seed);
    sc.region_m = 2000.0;
    sc.num_pois = pois.size();
    sc.photo_rate_per_hour = 20.0;
    PhotoGenerator gen(sc, pois);
    Rng photo_rng = rng.split("photos");
    std::vector<PhotoEvent> events = gen.generate(trace.horizon(), 6, photo_rng);
    SimConfig cfg;
    cfg.node_storage_bytes = 5 * 4'000'000;
    cfg.sample_interval_s = 6.0 * 3600.0;
    cfg.seed = seed;
    cfg.faults.contact_interrupt_prob = 0.3;
    cfg.faults.crash_rate_per_hour = 0.2;
    cfg.faults.mean_downtime_s = 3600.0;
    cfg.faults.bandwidth_jitter = 0.4;
    cfg.faults.gossip_loss_prob = 0.25;
    Simulator sim(model, trace, std::move(events), cfg);
    auto scheme = make_scheme("OurScheme");
    return sim.run(*scheme);
  };
  const SimResult a = run_once(11);
  const SimResult b = run_once(11);
  EXPECT_EQ(a.delivered_ids, b.delivered_ids);
  EXPECT_EQ(a.counters.transfers, b.counters.transfers);
  EXPECT_EQ(a.counters.bytes_transferred, b.counters.bytes_transferred);
  EXPECT_EQ(a.counters.interrupted_contacts, b.counters.interrupted_contacts);
  EXPECT_EQ(a.counters.missed_contacts, b.counters.missed_contacts);
  EXPECT_EQ(a.counters.node_crashes, b.counters.node_crashes);
  EXPECT_EQ(a.counters.gossip_losses, b.counters.gossip_losses);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].point_coverage, b.samples[i].point_coverage);
    EXPECT_EQ(a.samples[i].bytes_transferred, b.samples[i].bytes_transferred);
  }
}

TEST(SimulatorFaults, CleanConfigLeavesFaultCountersZero) {
  const CoverageModel model = test_model();
  const ContactTrace trace{{{20.0, 100.0, 1, 2}, {50.0, 100.0, 0, 2}}, 3, 400.0};
  Simulator sim(model, trace, {ev(10.0, 1, 1)}, small_config());
  FloodScheme scheme;
  const SimResult r = sim.run(scheme);
  EXPECT_EQ(r.counters.interrupted_contacts, 0u);
  EXPECT_EQ(r.counters.interrupted_transfers, 0u);
  EXPECT_EQ(r.counters.partial_bytes, 0u);
  EXPECT_EQ(r.counters.missed_contacts, 0u);
  EXPECT_EQ(r.counters.node_crashes, 0u);
  EXPECT_EQ(r.counters.photos_lost_to_crash, 0u);
  EXPECT_EQ(r.counters.photos_missed_down, 0u);
  EXPECT_EQ(r.counters.gossip_losses, 0u);
  EXPECT_FALSE(sim.faults().enabled());
}

}  // namespace
}  // namespace photodtn
