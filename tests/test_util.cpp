#include "test_util.h"

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

const std::vector<std::string>& all_factory_schemes() {
  static const std::vector<std::string> names = {
      "OurScheme", "NoMetadata",   "Spray&Wait", "ModifiedSpray",
      "PhotoNet",  "BestPossible", "Epidemic",   "PROPHET"};
  return names;
}

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

}  // namespace photodtn::test
