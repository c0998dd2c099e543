// Failure-injection / fuzz tests for the DTN substrate.
//
// Part 1 (ChaosScheme): a hostile scheme issues random (often invalid)
// operations; the simulator must keep its invariants — storage budgets never
// exceeded, byte accounting consistent, deliveries monotone, the command
// center never drops — and never crash.
//
// Part 2 (chaos matrix): every production scheme from the factory runs under
// randomly sampled FaultConfigs (interrupted contacts, churn with and
// without wipes, bandwidth jitter, gossip loss). No scheme may violate the
// simulator's global invariants no matter how hostile the fault plan, and
// identical (seed, FaultConfig) pairs must reproduce byte-identical results.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

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

class ChaosScheme : public Scheme {
 public:
  explicit ChaosScheme(std::uint64_t seed) : rng_(seed) {}

  std::string name() const override { return "Chaos"; }

  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override {
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        ctx.store_photo(node, photo);
        break;
      case 1:  // store then immediately drop
        ctx.store_photo(node, photo);
        ctx.drop_photo(node, photo.id);
        break;
      default:  // discard
        break;
    }
    check_invariants(ctx);
  }

  void on_contact(SimContext& ctx, ContactSession& s) override {
    for (int op = 0; op < 20; ++op) {
      const bool a_to_b = rng_.bernoulli(0.5);
      const NodeId from = a_to_b ? s.a() : s.b();
      const NodeId to = a_to_b ? s.b() : s.a();
      switch (rng_.uniform_int(0, 3)) {
        case 0: {  // transfer a random stored photo (may duplicate/overflow)
          const auto photos = ctx.node(from).store().photos();
          if (photos.empty()) break;
          const auto& p = photos[static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(photos.size()) - 1))];
          s.transfer(p.id, from, to, rng_.bernoulli(0.7));
          break;
        }
        case 1:  // transfer a bogus photo id
          s.transfer(999999 + static_cast<PhotoId>(op), from, to, true);
          break;
        case 2: {  // drop something random (possibly from the center)
          const auto photos = ctx.node(to).store().photos();
          if (photos.empty()) break;
          ctx.drop_photo(to, photos.front().id);
          break;
        }
        default: {  // try to drop from the command center explicitly
          const auto cc = ctx.node(kCommandCenter).store().photos();
          if (!cc.empty()) {
            EXPECT_FALSE(ctx.drop_photo(kCommandCenter, cc.front().id));
          }
          break;
        }
      }
      check_invariants(ctx);
    }
  }

 private:
  void check_invariants(SimContext& ctx) {
    for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
      const PhotoStore& st = ctx.node(n).store();
      if (st.capacity_bytes() != PhotoStore::kUnlimited) {
        ASSERT_LE(st.used_bytes(), st.capacity_bytes()) << "node " << n;
      }
    }
  }

  Rng rng_;
};

TEST(SimulatorFuzz, SurvivesChaosSchemeWithInvariantsIntact) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Rng poi_rng = rng.split("pois");
    const PoiList pois = generate_uniform_pois(20, 2000.0, poi_rng);
    const CoverageModel model(pois, deg_to_rad(30.0));

    SyntheticTraceConfig tc;
    tc.num_participants = 8;
    tc.duration_s = 20.0 * 3600.0;
    tc.base_pair_rate_per_hour = 0.5;
    tc.seed = seed;
    const ContactTrace trace = generate_synthetic_trace(tc);

    ScenarioConfig sc = ScenarioConfig::mit(seed);
    sc.region_m = 2000.0;
    sc.num_pois = pois.size();
    sc.photo_rate_per_hour = 40.0;
    PhotoGenerator gen(sc, pois);
    Rng photo_rng = rng.split("photos");
    std::vector<PhotoEvent> events = gen.generate(trace.horizon(), 8, photo_rng);

    SimConfig cfg;
    cfg.node_storage_bytes = 3 * 4'000'000;  // tiny: overflow paths exercised
    cfg.bandwidth_bytes_per_s = 5'000.0;     // tiny: budget paths exercised
    cfg.sample_interval_s = 4.0 * 3600.0;
    Simulator sim(model, trace, std::move(events), cfg);
    ChaosScheme chaos(seed * 101);
    const SimResult r = sim.run(chaos);

    // Deliveries are monotone and the counters are self-consistent.
    for (std::size_t i = 1; i < r.samples.size(); ++i) {
      EXPECT_GE(r.samples[i].delivered_photos, r.samples[i - 1].delivered_photos);
      EXPECT_GE(r.samples[i].bytes_transferred, r.samples[i - 1].bytes_transferred);
    }
    EXPECT_EQ(r.delivered_ids.size(), r.delivered_photos);
    EXPECT_LE(r.delivered_photos, r.counters.transfers);
    // Every delivered id is unique (the center accepts each photo once).
    std::set<PhotoId> unique(r.delivered_ids.begin(), r.delivered_ids.end());
    EXPECT_EQ(unique.size(), r.delivered_ids.size());
  }
}

// ------------------------------------------------------------ chaos matrix

using test::all_factory_schemes;
using test::build_chaos_scenario;
using test::ChaosScenario;
using test::random_fault_plan;

/// One simulation under one fault plan, with every global invariant checked
/// through the event log's trace view. Returns the result for determinism comparison.
SimResult run_checked(const ChaosScenario& sc, const CoverageModel& model,
                      const FaultConfig& faults, const std::string& scheme_name,
                      std::uint64_t seed) {
  SimConfig cfg;
  cfg.node_storage_bytes = 3 * 4'000'000;
  cfg.bandwidth_bytes_per_s = 5'000.0;
  cfg.sample_interval_s = 3.0 * 3600.0;
  cfg.seed = seed;
  cfg.faults = faults;
  cfg.obs.trace = true;
  std::unique_ptr<Scheme> scheme = make_scheme(scheme_name);
  if (scheme->wants_unlimited_storage()) cfg.unlimited_storage = true;
  if (scheme->wants_unlimited_bandwidth()) cfg.unlimited_bandwidth = true;

  std::map<PhotoId, std::uint64_t> size_of;
  for (const PhotoEvent& e : sc.events) size_of[e.photo.id] = e.photo.size_bytes;

  Simulator sim(model, sc.trace, sc.events, cfg);

  const SimResult r = sim.run(*scheme);
  sim.faults().audit();

  // The trace view: per-kind counts agree with the counters, deliveries
  // arrive in delivered_ids order, and only captured photos move.
  using Kind = obs::Event::Kind;
  std::map<Kind, std::uint64_t> count;
  std::set<PhotoId> taken;
  std::vector<PhotoId> delivered;
  std::uint64_t transfer_bytes = 0;
  double wiped = 0.0;
  for (const obs::Event& e : r.obs.trace_events) {
    ++count[e.kind];
    if (e.kind == Kind::kCapture) taken.insert(e.photo);
    if (e.kind == Kind::kDelivery) delivered.push_back(e.photo);
    if (e.kind == Kind::kCrashWipe) wiped += e.value;
    if (e.kind == Kind::kTransfer) {
      const auto it = size_of.find(e.photo);
      EXPECT_NE(it, size_of.end()) << "transfer of a photo never taken";
      if (it != size_of.end()) transfer_bytes += it->second;
    }
  }
  EXPECT_EQ(count[Kind::kCapture], r.counters.photos_taken);
  EXPECT_EQ(count[Kind::kContact], r.counters.contacts);
  EXPECT_EQ(count[Kind::kTransfer], r.counters.transfers);
  EXPECT_EQ(count[Kind::kDrop], r.counters.drops);
  EXPECT_EQ(count[Kind::kLinkCut], r.counters.interrupted_contacts);
  EXPECT_EQ(count[Kind::kCrash] + count[Kind::kCrashWipe], r.counters.node_crashes);
  EXPECT_EQ(count[Kind::kSample], r.samples.size());
  EXPECT_EQ(wiped, static_cast<double>(r.counters.photos_lost_to_crash));
  EXPECT_EQ(delivered, r.delivered_ids);

  // Deliveries: unique, known ids only, a subset of what was ever taken.
  EXPECT_EQ(r.delivered_ids.size(), r.delivered_photos);
  const std::set<PhotoId> unique(r.delivered_ids.begin(), r.delivered_ids.end());
  EXPECT_EQ(unique.size(), r.delivered_ids.size());
  for (const PhotoId id : unique)
    EXPECT_TRUE(taken.count(id)) << "delivered photo " << id << " never taken";

  // Byte accounting is exact: completed transfers seen on the event stream
  // sum to the counter; partial bytes never leak into it.
  EXPECT_EQ(transfer_bytes, r.counters.bytes_transferred) << scheme_name;

  // Every trace contact was either held or charged to downtime, and every
  // capture either reached the scheme or was charged to a downed node.
  EXPECT_EQ(r.counters.contacts + r.counters.missed_contacts, sc.trace.size());
  EXPECT_EQ(r.counters.photos_taken + r.counters.photos_missed_down,
            sc.events.size());

  // Coverage and deliveries at the center are monotone: the center never
  // drops, crashes never touch node 0, and samples accumulate.
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    EXPECT_GE(r.samples[i].delivered_photos, r.samples[i - 1].delivered_photos);
    EXPECT_GE(r.samples[i].bytes_transferred, r.samples[i - 1].bytes_transferred);
    EXPECT_GE(r.samples[i].point_coverage, r.samples[i - 1].point_coverage);
  }
  return r;
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.delivered_ids, b.delivered_ids) << label;
  EXPECT_EQ(a.counters.transfers, b.counters.transfers) << label;
  EXPECT_EQ(a.counters.failed_transfers, b.counters.failed_transfers) << label;
  EXPECT_EQ(a.counters.bytes_transferred, b.counters.bytes_transferred) << label;
  EXPECT_EQ(a.counters.partial_bytes, b.counters.partial_bytes) << label;
  EXPECT_EQ(a.counters.interrupted_contacts, b.counters.interrupted_contacts)
      << label;
  EXPECT_EQ(a.counters.interrupted_transfers, b.counters.interrupted_transfers)
      << label;
  EXPECT_EQ(a.counters.missed_contacts, b.counters.missed_contacts) << label;
  EXPECT_EQ(a.counters.node_crashes, b.counters.node_crashes) << label;
  EXPECT_EQ(a.counters.gossip_losses, b.counters.gossip_losses) << label;
  EXPECT_EQ(a.counters.drops, b.counters.drops) << label;
  ASSERT_EQ(a.samples.size(), b.samples.size()) << label;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].point_coverage, b.samples[i].point_coverage) << label;
    EXPECT_EQ(a.samples[i].aspect_coverage, b.samples[i].aspect_coverage) << label;
  }
  EXPECT_EQ(a.final_point_norm, b.final_point_norm) << label;
  EXPECT_EQ(a.final_aspect_norm, b.final_aspect_norm) << label;
}

TEST(ChaosMatrix, AllSchemesKeepInvariantsUnderSampledFaultPlans) {
  // 200 sampled fault plans, each run against every factory scheme (1600
  // simulations) over small but nontrivial scenarios. Scenarios cycle
  // through 25 distinct trace/workload builds; the fault plan and sim seed
  // are fresh per plan, which is where the matrix earns its coverage.
  constexpr std::uint64_t kPlans = 200;
  for (std::uint64_t plan = 1; plan <= kPlans; ++plan) {
    const ChaosScenario sc = build_chaos_scenario(1 + (plan - 1) % 25);
    const CoverageModel model(sc.pois, deg_to_rad(30.0));
    Rng plan_rng(0xC4A05 + plan * 977);
    const FaultConfig faults = random_fault_plan(plan_rng, plan);
    for (const std::string& name : all_factory_schemes()) {
      SCOPED_TRACE("plan " + std::to_string(plan) + " scheme " + name);
      run_checked(sc, model, faults, name, plan * 31 + 7);
    }
  }
}

TEST(ChaosMatrix, IdenticalSeedAndFaultPlanReproduceByteIdenticalResults) {
  for (std::uint64_t plan : {3u, 11u, 19u}) {
    const ChaosScenario sc = build_chaos_scenario(plan);
    const CoverageModel model(sc.pois, deg_to_rad(30.0));
    Rng plan_rng(0xDE7E0 + plan);
    const FaultConfig faults = random_fault_plan(plan_rng, plan);
    for (const std::string& name : {std::string("OurScheme"), std::string("Epidemic"),
                                    std::string("PROPHET")}) {
      const SimResult a = run_checked(sc, model, faults, name, plan);
      const SimResult b = run_checked(sc, model, faults, name, plan);
      expect_identical(a, b, "plan " + std::to_string(plan) + " " + name);
    }
  }
}

}  // namespace
}  // namespace photodtn
