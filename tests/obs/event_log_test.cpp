// Tests for the event log (obs/event_log.h): emission order, the per-view
// record-time filter, the audit, the persist round trip, and the guarantee
// that each tier's view is the same whether or not the other tier is on.
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtn/simulator.h"
#include "obs/chrome_trace.h"
#include "persist/codec.h"
#include "persist/state_access.h"
#include "schemes/factory.h"
#include "sim/experiment.h"
#include "sim/result_io.h"
#include "test_util.h"

namespace photodtn {
namespace {

using obs::Event;
using obs::EventLog;
using obs::View;
using Kind = Event::Kind;
using Outcome = Event::Outcome;

/// What only the provenance view shows, spelled out apart from views_of.
bool provenance_only(const Event& e) {
  switch (e.kind) {
    case Kind::kGossip:
    case Kind::kMetadataBytes:
    case Kind::kSprayDecrement:
    case Kind::kSelectCommit:
      return true;
    case Kind::kTransfer:
      return e.outcome != Outcome::kOk;
    default:
      return false;
  }
}

/// What only the trace view shows, spelled out apart from views_of.
bool trace_only(const Event& e) {
  switch (e.kind) {
    case Kind::kCrash:
    case Kind::kReboot:
    case Kind::kLinkCut:
    case Kind::kContact:
    case Kind::kSample:
    case Kind::kSelect:
    case Kind::kReallocate:
      return true;
    default:
      return false;
  }
}

std::vector<Kind> kinds(const std::vector<Event>& events) {
  std::vector<Kind> out;
  for (const Event& e : events) out.push_back(e.kind);
  return out;
}

/// Events of both views, several at one timestamp, in emission order.
std::vector<Event> mixed_events() {
  return {{.kind = Kind::kCapture, .ts_s = 1.0, .photo = 3, .node = 1},
          {.kind = Kind::kGossip, .ts_s = 3.0, .node = 1, .peer = 2},
          {.kind = Kind::kTransfer, .outcome = Outcome::kNoSpace, .ts_s = 3.0, .photo = 3},
          {.kind = Kind::kTransfer, .ts_s = 3.0, .photo = 3, .node = 1, .peer = 2},
          {.kind = Kind::kContact, .ts_s = 3.0, .node = 1, .peer = 2},
          {.kind = Kind::kSample, .ts_s = 5.0}};
}

TEST(EventLog, TraceViewKeepsEmissionOrder) {
  const std::vector<Event> emitted = mixed_events();
  EventLog both(true, true), trace(true, false), off(false, false);
  for (EventLog* log : {&both, &trace, &off})
    for (const Event& e : emitted) log->record(e);

  // Nothing is sorted: equal timestamps keep emission order.
  EXPECT_EQ(both.events().size(), emitted.size());
  EXPECT_EQ(kinds(both.view(View::kTrace)),
            (std::vector<Kind>{Kind::kCapture, Kind::kTransfer, Kind::kContact,
                               Kind::kSample}));
  // The trace tier alone keeps only what its view shows.
  EXPECT_EQ(kinds(trace.view(View::kTrace)), kinds(both.view(View::kTrace)));
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_TRUE(off.events().empty());
  for (const EventLog* log : {&both, &trace, &off}) log->audit();
}

TEST(EventLog, ProvenanceViewKeepsEmissionOrder) {
  const std::vector<Event> emitted = mixed_events();
  EventLog both(true, true), prov(false, true);
  for (EventLog* log : {&both, &prov})
    for (const Event& e : emitted) log->record(e);

  // Nothing is sorted: equal timestamps keep emission order.
  EXPECT_EQ(both.events().size(), emitted.size());
  EXPECT_EQ(kinds(both.view(View::kProvenance)),
            (std::vector<Kind>{Kind::kCapture, Kind::kGossip, Kind::kTransfer,
                               Kind::kTransfer}));
  EXPECT_EQ(both.view(View::kProvenance)[2].outcome, Outcome::kNoSpace);
  // The provenance tier alone keeps only what its view shows.
  EXPECT_EQ(kinds(prov.view(View::kProvenance)), kinds(both.view(View::kProvenance)));
  EXPECT_EQ(prov.events().size(), 4u);
  for (const EventLog* log : {&both, &prov}) log->audit();
}

TEST(EventLog, AuditRejectsDecreasingTimestamps) {
  EventLog log(true, true);
  log.record({.kind = Kind::kCapture, .ts_s = 5.0, .photo = 1});
  log.record({.kind = Kind::kDrop, .ts_s = 3.0, .photo = 1});
  EXPECT_THROW(log.audit(), std::logic_error);
}

TEST(EventLog, PersistRoundTripIsVerbatim) {
  EventLog a(true, true);
  a.record({.kind = Kind::kCapture, .ts_s = 1.0, .photo = 7, .node = 2, .bytes = 4'000'000});
  a.record({.kind = Kind::kTransfer,
            .outcome = Outcome::kInterrupted,
            .ts_s = 2.5,
            .photo = 7,
            .node = 2,
            .peer = 3,
            .bytes = 1234});
  a.record({.kind = Kind::kContact,
            .ts_s = 2.5,
            .node = 2,
            .peer = 3,
            .bytes = 1234,
            .value = -1.0,
            .aux = 60.0});
  persist::StateWriter w;
  persist::StateAccess::save(w, a);

  EventLog b(true, true);
  persist::StateReader r(w.bytes(), "event log test");
  persist::StateAccess::load(r, b);
  r.expect_end();
  const std::vector<Event> want(a.events().begin(), a.events().end());
  const std::vector<Event> got(b.events().begin(), b.events().end());
  test::expect_same_events(want, got, "round trip");

  // Recording after a restore appends.
  b.record({.kind = Kind::kDelivery, .ts_s = 3.0, .photo = 7, .node = 0, .peer = 3});
  b.audit();
  EXPECT_EQ(b.events().size(), 4u);
}

TEST(EventLog, LoadRejectsCorruptPayloads) {
  EventLog a(false, true);
  a.record({.kind = Kind::kCapture, .ts_s = 1.0, .photo = 1});
  persist::StateWriter w;
  persist::StateAccess::save(w, a);
  std::string bad = w.bytes();
  bad[8] = '\x63';  // first event's kind byte -> far out of range
  EventLog b(false, true);
  persist::StateReader r(bad, "event log test");
  EXPECT_THROW(persist::StateAccess::load(r, b), persist::SnapshotError);

  // A log whose tiers do not show an event cannot restore it.
  EventLog trace_log(true, false);
  trace_log.record({.kind = Kind::kReboot, .ts_s = 1.0, .node = 2});
  persist::StateWriter tw;
  persist::StateAccess::save(tw, trace_log);
  EventLog prov_log(false, true);
  persist::StateReader tr(tw.bytes(), "event log test");
  EXPECT_THROW(persist::StateAccess::load(tr, prov_log), persist::SnapshotError);
}

// ------------------------------------------------------ tier independence

struct TierRun {
  SimResult result;
  std::vector<Event> log;  // everything the run's log kept
};

TierRun run_tiers(const test::ChaosScenario& sc, const CoverageModel& model,
                  const FaultConfig& faults, const std::string& scheme_name,
                  bool trace, bool provenance) {
  SimConfig cfg;
  cfg.node_storage_bytes = 3 * 4'000'000;
  cfg.bandwidth_bytes_per_s = 5'000.0;
  cfg.sample_interval_s = 3.0 * 3600.0;
  cfg.seed = 17;
  cfg.faults = faults;
  cfg.obs.trace = trace;
  cfg.obs.provenance = provenance;
  std::unique_ptr<Scheme> scheme = make_scheme(scheme_name);
  if (scheme->wants_unlimited_storage()) cfg.unlimited_storage = true;
  if (scheme->wants_unlimited_bandwidth()) cfg.unlimited_bandwidth = true;
  Simulator sim(model, sc.trace, sc.events, cfg);
  TierRun run;
  run.result = sim.run(*scheme);
  const std::span<const Event> kept = sim.obs()->log()->events();
  run.log.assign(kept.begin(), kept.end());
  return run;
}

std::string jsonl(const std::string& scheme, SimResult r) {
  ExperimentSpec spec;
  spec.scheme = scheme;
  std::vector<SimResult> one;
  one.push_back(std::move(r));
  return provenance_to_jsonl(aggregate_results(spec, std::move(one)));
}

TEST(EventLogTiers, EachViewIsTheSameWithOrWithoutTheOtherTier) {
  for (std::uint64_t plan = 1; plan <= 4; ++plan) {
    const test::ChaosScenario sc = test::build_chaos_scenario(plan);
    const CoverageModel model(sc.pois, deg_to_rad(30.0));
    Rng plan_rng(0x71E25 + plan * 977);
    const FaultConfig faults = test::random_fault_plan(plan_rng, plan);
    for (const std::string& name : test::all_factory_schemes()) {
      const std::string label = "plan " + std::to_string(plan) + " " + name;
      SCOPED_TRACE(label);
      const TierRun both = run_tiers(sc, model, faults, name, true, true);
      const TierRun trace = run_tiers(sc, model, faults, name, true, false);
      const TierRun prov = run_tiers(sc, model, faults, name, false, true);
      ASSERT_FALSE(both.result.obs.trace_events.empty());
      ASSERT_FALSE(both.result.obs.prov_events.empty());

      EXPECT_TRUE(trace.result.obs.prov_events.empty());
      EXPECT_EQ(obs::chrome_trace_json(trace.result.obs.trace_events),
                obs::chrome_trace_json(both.result.obs.trace_events))
          << label;
      EXPECT_TRUE(prov.result.obs.trace_events.empty());
      EXPECT_EQ(jsonl(name, prov.result), jsonl(name, both.result)) << label;

      // Each single-tier log keeps nothing only the other tier shows, so a
      // trace-only run records no select commit and a provenance-only run
      // no contact span.
      for (const Event& e : trace.log)
        EXPECT_FALSE(provenance_only(e)) << label << " kind " << int(e.kind);
      for (const Event& e : prov.log)
        EXPECT_FALSE(trace_only(e)) << label << " kind " << int(e.kind);
      EXPECT_EQ(trace.log.size(), trace.result.obs.trace_events.size());
      EXPECT_EQ(prov.log.size(), prov.result.obs.prov_events.size());
    }
  }
}

}  // namespace
}  // namespace photodtn
