#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "schemes/factory.h"
#include "trace/synthetic_trace.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"
#include "workload/scenario.h"

namespace photodtn::test {

namespace {
PhotoId g_next_id = 1;
}

void reset_photo_ids(PhotoId next) { g_next_id = next; }

PhotoMeta make_photo(double x, double y, double orientation_deg, double range,
                     double fov_deg, PhotoId id, NodeId taken_by, std::uint64_t size,
                     double taken_at) {
  PhotoMeta p;
  p.id = id == 0 ? g_next_id++ : id;
  p.taken_by = taken_by;
  p.location = {x, y};
  p.range = range;
  p.fov = deg_to_rad(fov_deg);
  p.orientation = deg_to_rad(orientation_deg);
  p.size_bytes = size;
  p.taken_at = taken_at;
  return p;
}

PointOfInterest make_poi(double x, double y, std::int32_t id, double weight) {
  PointOfInterest poi;
  poi.id = id;
  poi.location = {x, y};
  poi.weight = weight;
  return poi;
}

PhotoMeta photo_viewing(const PointOfInterest& poi, double from_direction_deg,
                        double dist, double fov_deg, double range) {
  const double dir = deg_to_rad(from_direction_deg);
  const Vec2 cam = poi.location + Vec2::from_heading(dir) * dist;
  // The camera looks back toward the PoI: opposite of `dir`.
  const double look = rad_to_deg(normalize_angle(dir + std::numbers::pi));
  return make_photo(cam.x, cam.y, look, range, fov_deg);
}

CoverageModel single_poi_model(double theta_deg, double weight) {
  return CoverageModel{{make_poi(0.0, 0.0, 0, weight)}, deg_to_rad(theta_deg)};
}

const std::vector<std::string>& all_factory_schemes() { return factory_scheme_names(); }

FaultConfig random_fault_plan(Rng& rng, std::uint64_t salt) {
  FaultConfig f;
  f.contact_interrupt_prob = rng.bernoulli(0.15) ? 1.0 : rng.uniform(0.0, 0.6);
  f.interrupt_fraction_min = rng.uniform(0.0, 0.5);
  f.interrupt_fraction_max = f.interrupt_fraction_min + rng.uniform(0.0, 0.5);
  f.crash_rate_per_hour = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.5);
  f.mean_downtime_s = rng.uniform(600.0, 3.0 * 3600.0);
  f.crash_wipes_storage = rng.bernoulli(0.5);
  f.bandwidth_jitter = rng.uniform(0.0, 0.8);
  f.gossip_loss_prob = rng.bernoulli(0.1) ? 1.0 : rng.uniform(0.0, 0.5);
  f.salt = salt;
  return f;
}

ChaosScenario build_chaos_scenario(std::uint64_t seed) {
  ChaosScenario s;
  Rng rng(seed);
  Rng poi_rng = rng.split("pois");
  s.pois = generate_uniform_pois(8, 1500.0, poi_rng);

  SyntheticTraceConfig tc;
  tc.num_participants = 5;
  tc.duration_s = 12.0 * 3600.0;
  tc.base_pair_rate_per_hour = 0.6;
  tc.seed = seed;
  s.trace = generate_synthetic_trace(tc);

  ScenarioConfig sc = ScenarioConfig::mit(seed);
  sc.region_m = 1500.0;
  sc.num_pois = s.pois.size();
  sc.photo_rate_per_hour = 12.0;
  PhotoGenerator gen(sc, s.pois);
  Rng photo_rng = rng.split("photos");
  s.events = gen.generate(s.trace.horizon(), 5, photo_rng);
  return s;
}

namespace {

struct GroupingPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

}  // namespace

GroupingLocaleScope::GroupingLocaleScope()
    : previous_(std::locale::global(std::locale(std::locale::classic(), new GroupingPunct))) {}

GroupingLocaleScope::~GroupingLocaleScope() { std::locale::global(previous_); }

SimResult run_recorded(const CoverageModel& model, const ContactTrace& trace,
                       const std::vector<PhotoEvent>& events, SimConfig cfg,
                       Scheme& scheme) {
  cfg.obs.trace = true;
  cfg.obs.provenance = true;
  Simulator sim(model, trace, events, cfg);
  return sim.run(scheme);
}

namespace {

std::vector<std::pair<const char*, std::uint64_t>> counter_fields(const SimCounters& c) {
  return {{"contacts", c.contacts},
          {"photos_taken", c.photos_taken},
          {"transfers", c.transfers},
          {"bytes_transferred", c.bytes_transferred},
          {"failed_transfers", c.failed_transfers},
          {"drops", c.drops},
          {"interrupted_contacts", c.interrupted_contacts},
          {"interrupted_transfers", c.interrupted_transfers},
          {"partial_bytes", c.partial_bytes},
          {"missed_contacts", c.missed_contacts},
          {"node_crashes", c.node_crashes},
          {"photos_lost_to_crash", c.photos_lost_to_crash},
          {"photos_missed_down", c.photos_missed_down},
          {"gossip_losses", c.gossip_losses}};
}

}  // namespace

void expect_same_events(const std::vector<obs::Event>& want,
                        const std::vector<obs::Event>& got, const std::string& label) {
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const obs::Event& w = want[i];
    const obs::Event& g = got[i];
    ASSERT_TRUE(w.kind == g.kind && w.outcome == g.outcome && w.ts_s == g.ts_s &&
                w.photo == g.photo && w.node == g.node && w.peer == g.peer &&
                w.bytes == g.bytes && w.value == g.value && w.aux == g.aux)
        << label << ": event " << i << " differs: want kind "
        << static_cast<int>(w.kind) << " outcome " << static_cast<int>(w.outcome)
        << " t=" << w.ts_s << " node=" << w.node << " peer=" << w.peer
        << " photo=" << w.photo << ", got kind " << static_cast<int>(g.kind)
        << " outcome " << static_cast<int>(g.outcome) << " t=" << g.ts_s
        << " node=" << g.node << " peer=" << g.peer << " photo=" << g.photo;
  }
  ASSERT_EQ(want.size(), got.size()) << label;
}

void expect_same_run(const SimResult& want, const SimResult& got,
                     const std::string& label) {
  expect_same_events(want.obs.trace_events, got.obs.trace_events, label + " (trace)");
  expect_same_events(want.obs.prov_events, got.obs.prov_events, label + " (provenance)");
  const auto wc = counter_fields(want.counters);
  const auto gc = counter_fields(got.counters);
  for (std::size_t i = 0; i < wc.size(); ++i)
    EXPECT_EQ(wc[i].second, gc[i].second) << label << ": counters." << wc[i].first;
  EXPECT_EQ(want.delivered_ids, got.delivered_ids) << label;
}

std::vector<PhotoId> photos_of(const SimResult& run, obs::Event::Kind kind) {
  std::vector<PhotoId> out;
  for (const obs::Event& e : run.obs.trace_events)
    if (e.kind == kind) out.push_back(e.photo);
  return out;
}

}  // namespace photodtn::test
