// Shared builders for tests: compact ways to make photos, PoIs, traces and
// small simulations with known geometry, plus the sampled fault plans and
// small scenarios the chaos, provenance and oracle matrices share.
#pragma once

#include <cstdint>
#include <locale>
#include <string>
#include <vector>

#include "coverage/coverage_model.h"
#include "coverage/photo.h"
#include "coverage/poi.h"
#include "dtn/fault.h"
#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "geometry/angle.h"
#include "trace/contact_trace.h"
#include "util/rng.h"

namespace photodtn::test {

/// A photo at (x, y) looking along `orientation_deg` with the given range
/// and field-of-view (degrees). Ids auto-increment unless specified.
PhotoMeta make_photo(double x, double y, double orientation_deg, double range = 200.0,
                     double fov_deg = 60.0, PhotoId id = 0, NodeId taken_by = 1,
                     std::uint64_t size = 4'000'000, double taken_at = 0.0);

/// Resets the auto-increment id counter (call in SetUp when ids matter).
void reset_photo_ids(PhotoId next = 1);

/// A PoI at (x, y) with the given id/weight.
PointOfInterest make_poi(double x, double y, std::int32_t id = 0, double weight = 1.0);

/// A photo placed `dist` meters from `poi` in compass direction
/// `from_direction_deg` (0 = east of the PoI), looking straight at the PoI.
/// Such a photo covers the PoI's aspect arc centered at `from_direction_deg`.
PhotoMeta photo_viewing(const PointOfInterest& poi, double from_direction_deg,
                        double dist = 100.0, double fov_deg = 60.0, double range = 200.0);

/// Model over a single PoI at the origin with theta (degrees).
CoverageModel single_poi_model(double theta_deg = 30.0, double weight = 1.0);

/// All production schemes the factory can build (see schemes/factory.cpp).
const std::vector<std::string>& all_factory_schemes();

/// A random but valid fault plan: every knob drawn from its legal range,
/// occasionally pinned to an extreme so a sampled matrix hits the edges too.
/// Covers interrupts, churn with and without wipes, bandwidth jitter and
/// gossip loss.
FaultConfig random_fault_plan(Rng& rng, std::uint64_t salt);

/// A small but nontrivial scenario: 8 PoIs over 1.5 km, 5 participants over
/// 12 h of synthetic contacts, 12 photos per hour.
struct ChaosScenario {
  PoiList pois;
  ContactTrace trace;
  std::vector<PhotoEvent> events;
};

ChaosScenario build_chaos_scenario(std::uint64_t seed);

/// One simulation run with the trace and provenance tiers both on, for
/// comparing a production scheme against a test-only oracle.
SimResult run_recorded(const CoverageModel& model, const ContactTrace& trace,
                       const std::vector<PhotoEvent>& events, SimConfig cfg,
                       Scheme& scheme);

/// Fails the calling test unless `got` holds the same events as `want`,
/// field by field and in order.
void expect_same_events(const std::vector<obs::Event>& want,
                        const std::vector<obs::Event>& got, const std::string& label);

/// Fails the calling test unless `got` is the same run as `want`: both
/// views of the event log, every SimCounters field and the delivery order.
void expect_same_run(const SimResult& want, const SimResult& got,
                     const std::string& label);

/// The photo of every `kind` event in the run's trace view, in order.
std::vector<PhotoId> photos_of(const SimResult& run, obs::Event::Kind kind);

/// While alive, the global C++ locale groups thousands with ',' and uses
/// ',' as the decimal point, so a stream created meanwhile writes 1234.5 as
/// "1,234,5". Restores the previous global locale on destruction.
class GroupingLocaleScope {
 public:
  GroupingLocaleScope();
  ~GroupingLocaleScope();
  GroupingLocaleScope(const GroupingLocaleScope&) = delete;
  GroupingLocaleScope& operator=(const GroupingLocaleScope&) = delete;

 private:
  std::locale previous_;
};

}  // namespace photodtn::test
