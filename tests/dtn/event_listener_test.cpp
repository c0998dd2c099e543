// The event log's trace view: ordering, completeness, and agreement with
// the counters (SimulatorFuzz checks the same agreement for every factory
// scheme under 200 fault plans).
#include <gtest/gtest.h>

#include <algorithm>

#include "dtn/simulator.h"
#include "schemes/factory.h"
#include "test_util.h"

namespace photodtn {
namespace {

using Kind = obs::Event::Kind;
using test::make_poi;
using test::photo_viewing;

std::size_t count(const std::vector<obs::Event>& events, Kind kind) {
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [&](const obs::Event& e) { return e.kind == kind; }));
}

TEST(EventListener, StreamsAllEventTypesInOrder) {
  test::reset_photo_ids();
  const CoverageModel model({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  const PhotoMeta photo = [&] {
    PhotoMeta p = photo_viewing(model.pois()[0], 0.0);
    p.taken_by = 1;
    p.taken_at = 10.0;
    return p;
  }();
  const ContactTrace trace{{{100.0, 600.0, 1, 2}, {200.0, 600.0, 0, 2}}, 3, 1000.0};
  SimConfig cfg;
  cfg.node_storage_bytes = 5ULL * 4'000'000;
  cfg.bandwidth_bytes_per_s = 2.0e6;
  cfg.sample_interval_s = 1e9;
  cfg.obs.trace = true;
  Simulator sim(model, trace, {PhotoEvent{10.0, 1, photo}}, cfg);

  auto scheme = make_scheme("OurScheme");
  const SimResult r = sim.run(*scheme);
  const std::vector<obs::Event>& events = r.obs.trace_events;

  // Time-ordered stream.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].ts_s, events[i].ts_s);

  EXPECT_EQ(count(events, Kind::kCapture), r.counters.photos_taken);
  EXPECT_EQ(count(events, Kind::kContact), r.counters.contacts);
  EXPECT_EQ(count(events, Kind::kTransfer), r.counters.transfers);
  EXPECT_EQ(count(events, Kind::kDrop), r.counters.drops);
  EXPECT_EQ(count(events, Kind::kDelivery), r.delivered_photos);
  EXPECT_EQ(count(events, Kind::kSample), r.samples.size());
  EXPECT_EQ(test::photos_of(r, Kind::kDelivery), r.delivered_ids);

  // The delivery event names the photo and the gateway that carried it.
  bool saw_delivery = false;
  for (const obs::Event& e : events) {
    if (e.kind != Kind::kDelivery) continue;
    saw_delivery = true;
    EXPECT_EQ(e.photo, photo.id);
    EXPECT_EQ(e.node, kCommandCenter);
    EXPECT_EQ(e.peer, 2);  // relayed through node 2
    EXPECT_DOUBLE_EQ(e.ts_s, 200.0);
  }
  EXPECT_TRUE(saw_delivery);
  // A contact's record closes it: the relay's contact with the center comes
  // after the transfer and delivery it carried.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, Kind::kContact);
  EXPECT_EQ(events.back().node, kCommandCenter);
  EXPECT_EQ(events.back().peer, 2);
}

TEST(EventListener, DisabledListenerCostsNothingAndRunsIdentically) {
  // With both log tiers off the run records nothing, and turning the trace
  // tier on changes nothing else.
  const CoverageModel model({make_poi(0.0, 0.0)}, deg_to_rad(30.0));
  const ContactTrace trace{{{100.0, 600.0, 1, 2}}, 3, 500.0};
  auto run_with = [&](bool trace_on) {
    test::reset_photo_ids();
    PhotoMeta p = photo_viewing(model.pois()[0], 0.0);
    p.taken_by = 1;
    SimConfig cfg;
    cfg.sample_interval_s = 1e9;
    cfg.obs.trace = trace_on;
    Simulator sim(model, trace, {PhotoEvent{1.0, 1, p}}, cfg);
    EXPECT_EQ(sim.obs()->log() != nullptr, trace_on);
    auto scheme = make_scheme("OurScheme");
    return sim.run(*scheme);
  };
  const SimResult a = run_with(false);
  const SimResult b = run_with(true);
  EXPECT_TRUE(a.obs.trace_events.empty());
  EXPECT_FALSE(b.obs.trace_events.empty());
  EXPECT_EQ(a.delivered_ids, b.delivered_ids);
  EXPECT_EQ(a.counters.transfers, b.counters.transfers);
}

}  // namespace
}  // namespace photodtn
