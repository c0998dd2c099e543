// Tests for the provenance view of the event log: the end-to-end guarantees
// the attribution pipeline relies on — provenance on/off never changes
// simulation results, the JSONL export is byte-identical across thread-pool
// sizes and across checkpoint/restore, and the causal invariants (capture
// before any use, wire bytes bounded by the captured size) hold for every
// factory scheme under sampled fault plans.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dtn/simulator.h"
#include "geometry/angle.h"
#include "obs/obs.h"
#include "persist/snapshot.h"
#include "schemes/factory.h"
#include "sim/experiment.h"
#include "sim/result_io.h"
#include "test_util.h"
#include "trace/synthetic_trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"
#include "workload/scenario.h"

namespace photodtn {
namespace {

using obs::Event;
using test::expect_same_events;

/// Tiny fixed-seed experiment spec (mirrors obs_test.cpp's small_spec but
/// exercises only the provenance tier).
ExperimentSpec prov_spec(bool with_prov) {
  ExperimentSpec spec;
  spec.scenario = ScenarioConfig::mit(1);
  spec.scenario.num_pois = 20;
  spec.scenario.photo_rate_per_hour = 40.0;
  spec.scenario.trace.num_participants = 10;
  spec.scenario.trace.duration_s = 12.0 * 3600.0;
  spec.scenario.trace.base_pair_rate_per_hour = 0.4;
  spec.scenario.sim.sample_interval_s = 3.0 * 3600.0;
  spec.scenario.sim.faults.contact_interrupt_prob = 0.2;
  spec.scenario.sim.faults.gossip_loss_prob = 0.1;
  spec.scheme = "OurScheme";
  spec.runs = 2;
  spec.scenario.sim.obs.provenance = with_prov;
  return spec;
}

TEST(ProvenanceIntegration, ProvenanceOnDoesNotPerturbSimulation) {
  const SimResult off = run_single(prov_spec(false), 7);
  const SimResult on = run_single(prov_spec(true), 7);
  EXPECT_EQ(off.delivered_photos, on.delivered_photos);
  EXPECT_EQ(off.final_point_norm, on.final_point_norm);
  EXPECT_EQ(off.final_aspect_norm, on.final_aspect_norm);
  EXPECT_EQ(off.counters.transfers, on.counters.transfers);
  EXPECT_EQ(off.counters.bytes_transferred, on.counters.bytes_transferred);
  EXPECT_EQ(off.counters.drops, on.counters.drops);
  // Provenance is its own tier: neither run carries metrics or trace
  // payloads, only the provenance-on run carries events.
  EXPECT_TRUE(off.obs.prov_events.empty());
  EXPECT_TRUE(on.obs.metrics.empty());
  EXPECT_TRUE(on.obs.trace_events.empty());
  EXPECT_FALSE(on.obs.prov_events.empty());
}

TEST(ProvenanceIntegration, JsonlIdenticalAcrossPoolSizes) {
  const ExperimentSpec spec = prov_spec(true);
  ThreadPool pool1(1), pool4(4);
  const ExperimentResult r1 = run_experiment(spec, &pool1);
  const ExperimentResult r4 = run_experiment(spec, &pool4);
  EXPECT_FALSE(r1.prov_events.empty());
  EXPECT_EQ(provenance_to_jsonl(r1), provenance_to_jsonl(r4));
}

// ------------------------------------------------- checkpoint/restore

/// A small direct-simulator rig with provenance enabled and faults on, so
/// the checkpoint lands mid-lifecycle for plenty of photos.
struct ProvRig {
  ProvRig() {
    ScenarioConfig sc = ScenarioConfig::mit(9);
    sc.num_pois = 12;
    sc.photo_rate_per_hour = 16.0;
    sc.trace.num_participants = 8;
    sc.trace.duration_s = 12.0 * 3600.0;
    sc.trace.seed = 9 ^ 0x7ace5eedULL;
    sc.sim.sample_interval_s = 3.0 * 3600.0;
    sc.sim.node_storage_bytes = 40'000'000;
    sc.sim.obs.provenance = true;
    sc.sim.faults.contact_interrupt_prob = 0.3;
    sc.sim.faults.crash_rate_per_hour = 0.05;
    sc.sim.faults.crash_wipes_storage = true;
    sc.sim.faults.gossip_loss_prob = 0.2;
    sc.sim.seed = 9 ^ 0x51eedbeefULL;

    Rng root(9);
    Rng poi_rng = root.split("pois");
    Rng photo_rng = root.split("photos");
    pois = generate_uniform_pois(sc.num_pois, sc.region_m, poi_rng);
    model = std::make_unique<CoverageModel>(pois, sc.effective_angle);
    model->set_quality_threshold(sc.quality_threshold);
    trace = generate_synthetic_trace(sc.trace);
    PhotoGenerator gen(sc, pois, PhotoGenOptions{});
    events = gen.generate(trace.horizon(), trace.num_nodes() - 1, photo_rng);
    cfg = sc.sim;
  }

  std::unique_ptr<Simulator> make_sim() const {
    return std::make_unique<Simulator>(*model, trace, events, cfg);
  }

  PoiList pois;
  std::unique_ptr<CoverageModel> model;
  ContactTrace trace;
  std::vector<PhotoEvent> events;
  SimConfig cfg;
};

TEST(ProvenanceIntegration, ResumeEqualsContinuous) {
  const ProvRig rig;
  // Continuous run, snapshotting mid-flight.
  auto sim_a = rig.make_sim();
  auto scheme_a = make_scheme("OurScheme", SchemeOptions{});
  std::string snap;
  sim_a->set_checkpoint_hook([&](std::uint64_t event) {
    if (event == 120) snap = persist::checkpoint(*sim_a, *scheme_a);
  });
  const SimResult a = sim_a->run(*scheme_a);
  ASSERT_FALSE(snap.empty());
  ASSERT_FALSE(a.obs.prov_events.empty());

  // Restored run: the EVNT section re-injects the pre-checkpoint events, so
  // the full stream must match exactly.
  auto sim_b = rig.make_sim();
  auto scheme_b = make_scheme("OurScheme", SchemeOptions{});
  persist::restore(*sim_b, *scheme_b, snap);
  const SimResult b = sim_b->run(*scheme_b);
  expect_same_events(a.obs.prov_events, b.obs.prov_events, "resume");
}

// ------------------------------------------------------- fault matrix

using test::all_factory_schemes;
using test::build_chaos_scenario;
using test::ChaosScenario;
using test::random_fault_plan;

/// The causal contract the JSONL validator enforces on exports, checked at
/// the source: only provenance kinds, capture precedes any use of a photo,
/// timestamps are non-decreasing, and transfer/delivery bytes are bounded by
/// (ok/delivery: equal to) the captured size.
void check_causal_invariants(const std::vector<Event>& events,
                             const std::string& label) {
  std::map<std::uint64_t, std::uint64_t> captured;  // photo -> size
  double prev_ts = -1.0;
  for (const Event& ev : events) {
    EXPECT_TRUE(obs::shows(obs::View::kProvenance, ev))
        << label << " kind " << static_cast<int>(ev.kind);
    EXPECT_GE(ev.ts_s, prev_ts) << label;
    prev_ts = ev.ts_s;
    switch (ev.kind) {
      case Event::Kind::kCapture:
        EXPECT_EQ(captured.count(ev.photo), 0u)
            << label << " photo " << ev.photo << " captured twice";
        captured[ev.photo] = ev.bytes;
        break;
      case Event::Kind::kTransfer: {
        const auto it = captured.find(ev.photo);
        ASSERT_NE(it, captured.end())
            << label << " transfer before capture of " << ev.photo;
        EXPECT_LE(ev.bytes, it->second) << label;
        if (ev.outcome == Event::Outcome::kOk) {
          EXPECT_EQ(ev.bytes, it->second) << label;
        } else if (ev.outcome != Event::Outcome::kInterrupted) {
          EXPECT_EQ(ev.bytes, 0u) << label;
        }
        break;
      }
      case Event::Kind::kDelivery: {
        const auto it = captured.find(ev.photo);
        ASSERT_NE(it, captured.end())
            << label << " delivery before capture of " << ev.photo;
        EXPECT_EQ(ev.bytes, it->second) << label;
        break;
      }
      case Event::Kind::kDrop:
      case Event::Kind::kSprayDecrement:
      case Event::Kind::kSelectCommit:
        EXPECT_EQ(captured.count(ev.photo), 1u)
            << label << " use before capture of " << ev.photo;
        break;
      default:
        break;  // gossip / metadata_bytes / crash_wipe carry no photo id
    }
  }
}

SimResult run_prov(const ChaosScenario& sc, const CoverageModel& model,
                   const FaultConfig& faults, const std::string& scheme_name,
                   std::uint64_t seed) {
  SimConfig cfg;
  cfg.node_storage_bytes = 3 * 4'000'000;
  cfg.bandwidth_bytes_per_s = 5'000.0;
  cfg.sample_interval_s = 3.0 * 3600.0;
  cfg.seed = seed;
  cfg.faults = faults;
  cfg.obs.provenance = true;
  std::unique_ptr<Scheme> scheme = make_scheme(scheme_name);
  if (scheme->wants_unlimited_storage()) cfg.unlimited_storage = true;
  if (scheme->wants_unlimited_bandwidth()) cfg.unlimited_bandwidth = true;
  Simulator sim(model, sc.trace, sc.events, cfg);
  return sim.run(*scheme);
}

TEST(ProvenanceChaos, CausalInvariantsUnderSampledFaultPlans) {
  // A sample of the 200-plan chaos matrix (tests/dtn/simulator_fuzz_test.cpp
  // runs the full sweep without provenance): every factory scheme under ten
  // hostile fault plans, with the causal contract checked on the merged
  // stream and a repeat run required to reproduce it event-for-event.
  for (std::uint64_t plan = 1; plan <= 10; ++plan) {
    const ChaosScenario sc = build_chaos_scenario(plan);
    const CoverageModel model(sc.pois, deg_to_rad(30.0));
    Rng plan_rng(0xC4A05 + plan * 977);
    const FaultConfig faults = random_fault_plan(plan_rng, plan);
    for (const std::string& name : all_factory_schemes()) {
      SCOPED_TRACE("plan " + std::to_string(plan) + " scheme " + name);
      const SimResult r = run_prov(sc, model, faults, name, plan * 31 + 7);
      check_causal_invariants(r.obs.prov_events,
                              "plan " + std::to_string(plan) + " " + name);
      if (plan % 5 == 0) {
        const SimResult again = run_prov(sc, model, faults, name, plan * 31 + 7);
        expect_same_events(r.obs.prov_events, again.obs.prov_events,
                           "repeat plan " + std::to_string(plan) + " " + name);
      }
    }
  }
}

TEST(ProvenanceIntegration, PricedMetadataAndEarlyCutsAreAttributed) {
  // metadata_bytes_per_photo defaults to 0, so the kMetadataBytes hook only
  // fires when the scenario prices gossip; aggressive early cuts make the
  // severed-mid-flight paths (partial transfers, lost gossip) reachable too.
  ExperimentSpec spec = prov_spec(true);
  spec.runs = 1;
  spec.scenario.sim.metadata_bytes_per_photo = 64;
  spec.scenario.sim.faults.contact_interrupt_prob = 1.0;
  spec.scenario.sim.faults.interrupt_fraction_min = 0.01;
  spec.scenario.sim.faults.interrupt_fraction_max = 0.2;
  const SimResult r = run_single(spec, 11);
  check_causal_invariants(r.obs.prov_events, "priced metadata");
  std::uint64_t metadata_events = 0, metadata_bytes = 0;
  for (const Event& ev : r.obs.prov_events) {
    if (ev.kind != Event::Kind::kMetadataBytes) continue;
    ++metadata_events;
    metadata_bytes += ev.bytes;
    EXPECT_GT(ev.bytes, 0u);
    EXPECT_EQ(ev.outcome, Event::Outcome::kOk);
  }
  EXPECT_GT(metadata_events, 0u);
  EXPECT_GT(metadata_bytes, 0u);
}

}  // namespace
}  // namespace photodtn
