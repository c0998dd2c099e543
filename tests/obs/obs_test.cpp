// Tests for the obs layer: metrics registry semantics, snapshot merge
// determinism, the Chrome trace sink over the event log, and the end-to-end
// guarantees the rest of the repo relies on — obs on/off
// never changes simulation results, and metrics/traces are byte-identical
// across thread-pool sizes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/result_io.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace photodtn {
namespace {

using obs::Event;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

std::string snapshot_json(const MetricsSnapshot& s) {
  JsonWriter w;
  s.write_json(w);
  return w.str();
}

TEST(MetricsRegistry, CountersAndHandleReuse) {
  MetricsRegistry reg;
  const auto c = reg.counter("sim.contacts");
  ASSERT_TRUE(c.valid());
  reg.add(c);
  reg.add(c, 41);
  EXPECT_EQ(reg.value(c), 42u);
  // Find-or-create: same name, same handle, same value.
  const auto c2 = reg.counter("sim.contacts");
  EXPECT_EQ(c2.idx, c.idx);
  EXPECT_EQ(reg.value(c2), 42u);

  EXPECT_EQ(reg.counter_count(), 1u);
  reg.audit();
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  MetricsRegistry reg;
  const auto h = reg.histogram("x", {10, 100});
  // counts[i] counts v <= bounds[i]; the last slot is the overflow bucket.
  for (const std::uint64_t v : {0ull, 10ull, 11ull, 100ull, 101ull}) reg.record(h, v);
  const MetricsSnapshot s = reg.snapshot();
  const auto& hs = s.histograms.at("x");
  ASSERT_EQ(hs.counts.size(), 3u);
  EXPECT_EQ(hs.counts[0], 2u);  // 0, 10
  EXPECT_EQ(hs.counts[1], 2u);  // 11, 100
  EXPECT_EQ(hs.counts[2], 1u);  // 101 overflows
  EXPECT_EQ(hs.count, 5u);
  EXPECT_EQ(hs.sum, 222u);
  EXPECT_EQ(hs.min, 0u);
  EXPECT_EQ(hs.max, 101u);
  reg.audit();
}

TEST(MetricsRegistry, ExpBoundsStrictlyIncreasing) {
  const auto b = MetricsRegistry::exp_bounds(1, 2.0, 12);
  ASSERT_EQ(b.size(), 12u);
  EXPECT_EQ(b.front(), 1u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  // A factor so close to 1 that rounding collides still yields strictly
  // increasing bounds (equal neighbors are bumped).
  const auto tight = MetricsRegistry::exp_bounds(5, 1.01, 8);
  for (std::size_t i = 1; i < tight.size(); ++i) EXPECT_LT(tight[i - 1], tight[i]);
}

TEST(MetricsRegistry, HistogramBoundsMismatchThrows) {
  MetricsRegistry a, b;
  a.histogram("x", {1, 2});
  b.histogram("x", {1, 3});
  MetricsSnapshot sa = a.snapshot(), sb = b.snapshot();
  EXPECT_THROW(sa.merge(sb), std::logic_error);
}

TEST(MetricsSnapshot, MergeIsOrderInvariant) {
  MetricsRegistry ra, rb;
  for (MetricsRegistry* r : {&ra, &rb}) {
    r->counter("c");
    r->histogram("h", {2, 8, 32});
  }
  ra.add(ra.counter("c"), 7);
  ra.record(ra.histogram("h", {2, 8, 32}), 3);
  rb.add(rb.counter("c"), 5);
  rb.add(rb.counter("only_b"), 1);
  rb.record(rb.histogram("h", {2, 8, 32}), 100);

  MetricsSnapshot ab = ra.snapshot();
  ab.merge(rb.snapshot());
  MetricsSnapshot ba = rb.snapshot();
  ba.merge(ra.snapshot());
  // Counters and histograms are integer-valued: both merge orders must
  // serialize identically, byte for byte.
  EXPECT_EQ(snapshot_json(ab), snapshot_json(ba));
  EXPECT_EQ(ab.runs, 2u);
  EXPECT_EQ(ab.counters.at("c"), 12u);
  EXPECT_EQ(ab.counters.at("only_b"), 1u);
  EXPECT_EQ(ab.histograms.at("h").count, 2u);

  // Merging into a fresh (empty) snapshot copies the other side.
  MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  empty.merge(ab);
  EXPECT_EQ(snapshot_json(empty), snapshot_json(ab));
}

TEST(ChromeTrace, DocumentShapeAndDeterminism) {
  const std::vector<Event> events{
      {.kind = Event::Kind::kCapture, .ts_s = 10.0, .photo = 7, .node = 3},
      // Provenance only: the trace skips it.
      {.kind = Event::Kind::kGossip, .ts_s = 20.0, .node = 1, .peer = 2, .value = 4.0},
      {.kind = Event::Kind::kContact,
       .ts_s = 20.0,
       .node = 1,
       .peer = 2,
       .bytes = 64,
       .value = -1.0,
       .aux = 4.0},
      {.kind = Event::Kind::kSample, .ts_s = 30.0, .photo = 5, .bytes = 9, .value = 0.5},
      {.kind = Event::Kind::kCrashWipe, .ts_s = 40.0, .node = 2, .value = 3.0}};
  MetricsRegistry reg;
  reg.add(reg.counter("sim.contacts"), 3);
  const MetricsSnapshot snap = reg.snapshot();

  const std::string doc = obs::chrome_trace_json(events, &snap);
  for (const char* needle :
       {"\"displayTimeUnit\":\"ms\"", "\"traceEvents\":", "\"ph\":\"M\"",
        "\"ph\":\"i\"", "\"ph\":\"X\"", "\"ph\":\"C\"", "\"dur\":4000000",
        "\"args\":{\"peer\":2,\"bytes\":64,\"budget\":-1}",
        "\"name\":\"delivered_photos\"", "\"name\":\"aspect_coverage\"",
        "\"name\":\"crash\"", "\"args\":{\"wipe\":1}", "\"photodtnMetrics\":",
        "\"sim.contacts\":3"}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(doc.find("gossip"), std::string::npos);
  // A sample renders as four counter tracks.
  std::size_t counters = 0;
  for (std::size_t at = doc.find("\"ph\":\"C\""); at != std::string::npos;
       at = doc.find("\"ph\":\"C\"", at + 1))
    ++counters;
  EXPECT_EQ(counters, 4u);
  // No wall-clock section.
  EXPECT_EQ(doc.find("wallPerf"), std::string::npos);
  // Re-rendering the same inputs is byte-identical.
  EXPECT_EQ(doc, obs::chrome_trace_json(events, &snap));
}

TEST(Obs, ConfigGatesRecording) {
  obs::Obs off;
  EXPECT_FALSE(off.metrics_on());
  EXPECT_EQ(off.log(), nullptr);
  obs::Obs on(obs::ObsConfig{true, true});
  EXPECT_TRUE(on.metrics_on());
  ASSERT_NE(on.log(), nullptr);
  on.registry().add(on.registry().counter("c"));
  // The trace tier keeps trace events and drops provenance-only ones.
  on.log()->record({.kind = Event::Kind::kReboot, .ts_s = 1.0});
  on.log()->record({.kind = Event::Kind::kGossip, .ts_s = 1.0});
  EXPECT_EQ(on.log()->events().size(), 1u);
  on.audit();
  EXPECT_NE(obs::Obs(obs::ObsConfig{.provenance = true}).log(), nullptr);
}

/// Tiny fixed-seed experiment spec shared by the integration tests below.
ExperimentSpec small_spec(bool with_obs) {
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
  spec.scenario.sim.obs.metrics = with_obs;
  spec.scenario.sim.obs.trace = with_obs;
  return spec;
}

TEST(ObsIntegration, ObsOnDoesNotPerturbSimulation) {
  const SimResult off = run_single(small_spec(false), 7);
  const SimResult on = run_single(small_spec(true), 7);
  // Golden equivalence: every scheme-visible outcome identical.
  EXPECT_EQ(off.delivered_photos, on.delivered_photos);
  EXPECT_EQ(off.final_point_norm, on.final_point_norm);
  EXPECT_EQ(off.final_aspect_norm, on.final_aspect_norm);
  EXPECT_EQ(off.counters.contacts, on.counters.contacts);
  EXPECT_EQ(off.counters.transfers, on.counters.transfers);
  EXPECT_EQ(off.counters.bytes_transferred, on.counters.bytes_transferred);
  EXPECT_EQ(off.counters.drops, on.counters.drops);
  EXPECT_EQ(off.counters.interrupted_contacts, on.counters.interrupted_contacts);
  EXPECT_EQ(off.counters.gossip_losses, on.counters.gossip_losses);
  ASSERT_EQ(off.samples.size(), on.samples.size());
  for (std::size_t i = 0; i < off.samples.size(); ++i) {
    EXPECT_EQ(off.samples[i].point_coverage, on.samples[i].point_coverage);
    EXPECT_EQ(off.samples[i].delivered_photos, on.samples[i].delivered_photos);
  }
  // Off carries no payloads; on carries both.
  EXPECT_TRUE(off.obs.metrics.empty());
  EXPECT_TRUE(off.obs.trace_events.empty());
  EXPECT_FALSE(on.obs.metrics.empty());
  EXPECT_FALSE(on.obs.trace_events.empty());
  // The registry mirrors the legacy counters exactly.
  EXPECT_EQ(on.obs.metrics.counters.at("sim.contacts"), on.counters.contacts);
  EXPECT_EQ(on.obs.metrics.counters.at("sim.transfers"), on.counters.transfers);
  // And the scheme hooks recorded real work.
  EXPECT_GT(on.obs.metrics.counters.at("selection.gain_evals"), 0u);
  EXPECT_GT(on.obs.metrics.counters.at("scheme.engine_syncs"), 0u);
  EXPECT_GT(on.obs.metrics.histograms.at("selection.pool_size").count, 0u);
}

TEST(ObsIntegration, MetricsAndTraceIdenticalAcrossPoolSizes) {
  const ExperimentSpec spec = small_spec(true);
  ThreadPool pool1(1), pool4(4);
  const ExperimentResult r1 = run_experiment(spec, &pool1);
  const ExperimentResult r4 = run_experiment(spec, &pool4);
  // Histogram/counter merges are integer-valued and folded in seed order:
  // the serialized snapshots must match byte for byte, as must the traces.
  const std::vector<ExperimentResult> v1{r1}, v4{r4};
  EXPECT_EQ(metrics_to_json(v1), metrics_to_json(v4));
  EXPECT_EQ(obs::chrome_trace_json(r1.trace_events, &r1.metrics),
            obs::chrome_trace_json(r4.trace_events, &r4.metrics));
  EXPECT_FALSE(r1.trace_events.empty());
}

}  // namespace
}  // namespace photodtn
