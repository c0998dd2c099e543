// Figure 3 / Section IV — the prototype demonstration, reproduced as a
// scripted scenario: 9 nodes (8 participants + the command center standing
// in for a data mule), 40 photos around a single target (the church), the
// last 48 contacts of a Reality-Mining-style trace, at most 3 photos
// transferred per contact and 5 photos stored per device, effective angle
// theta = 40 degrees.
//
// Paper outcome: Spray&Wait and PhotoNet each deliver 12 photos (4 center
// contacts x 3 photos) covering ~171 and ~160 degrees of the target; our
// scheme delivers only the useful photos (6 in the paper) covering ~346
// degrees. The claim checked here is the shape: our scheme covers far more
// of the target with no more delivered photos.
#include <iostream>

#include "bench_common.h"
#include "geometry/angle.h"
#include "schemes/factory.h"
#include "util/rng.h"
#include "util/table.h"

using namespace photodtn;

namespace {

constexpr double kHistoryHours = 200.0;  // PROPHET/rate learning period
constexpr double kDemoHours = 48.0;

/// The last-48-contacts trace: a learning prefix plus 48 scripted contacts,
/// exactly 4 of which reach the command center.
ContactTrace demo_trace(Rng& rng) {
  std::vector<Contact> contacts;
  // Learning prefix: random pair contacts, including occasional center
  // contacts for the mule-adjacent participants (1 and 2).
  for (int i = 0; i < 220; ++i) {
    const double t = rng.uniform(0.0, kHistoryHours * 3600.0);
    NodeId a, b;
    if (i % 18 == 0) {
      a = kCommandCenter;
      b = static_cast<NodeId>(rng.uniform_int(1, 2));
    } else {
      a = static_cast<NodeId>(rng.uniform_int(1, 8));
      do {
        b = static_cast<NodeId>(rng.uniform_int(1, 8));
      } while (b == a);
    }
    contacts.push_back(Contact{t, 600.0, a, b});
  }
  // The 48 demo contacts.
  const double t0 = kHistoryHours * 3600.0;
  int center_contacts = 0;
  for (int i = 0; i < 48; ++i) {
    const double t = t0 + (i + 1) * (kDemoHours * 3600.0 / 49.0);
    NodeId a, b;
    const bool center_due =
        center_contacts < 4 && (i % 12 == 10);  // 4 spread-out center visits
    if (center_due) {
      a = kCommandCenter;
      b = static_cast<NodeId>(rng.uniform_int(1, 2));
      ++center_contacts;
    } else {
      a = static_cast<NodeId>(rng.uniform_int(1, 8));
      do {
        b = static_cast<NodeId>(rng.uniform_int(1, 8));
      } while (b == a);
    }
    contacts.push_back(Contact{t, 600.0, a, b});
  }
  return ContactTrace{std::move(contacts), 9,
                      (kHistoryHours + kDemoHours + 1.0) * 3600.0};
}

/// 40 photos, 5 per participant: roughly half deliberately frame the church
/// from assorted directions, the rest miss it (background shots).
std::vector<PhotoEvent> demo_photos(const Vec2 church, Rng& rng) {
  std::vector<PhotoEvent> events;
  PhotoId next_id = 1;
  const double t0 = kHistoryHours * 3600.0;
  for (NodeId node = 1; node <= 8; ++node) {
    for (int k = 0; k < 5; ++k) {
      PhotoMeta p;
      p.id = next_id++;
      p.taken_by = node;
      p.taken_at = t0;
      p.size_bytes = 4'000'000;
      p.fov = deg_to_rad(rng.uniform(40.0, 60.0));
      p.range = 200.0;
      if (rng.bernoulli(0.5)) {
        // Frame the church from a random direction and distance.
        const double dir = rng.uniform(0.0, kTwoPi);
        p.location = church + Vec2::from_heading(dir) * rng.uniform(60.0, 150.0);
        p.orientation = normalize_angle(dir + std::numbers::pi +
                                        rng.uniform(-0.1, 0.1));
      } else {
        // Background shot somewhere else in the neighborhood.
        p.location = church + Vec2{rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)};
        p.orientation = rng.uniform(0.0, kTwoPi);
        if (p.location.distance_to(church) < 250.0)
          p.location = church + Vec2{500.0, 500.0};
      }
      events.push_back(PhotoEvent{t0, node, p});
    }
  }
  return events;
}

}  // namespace

int main() {
  const bench::BenchOptions opts = bench::options();
  std::cout << "==============================================================\n"
               "Figure 3 / Section IV: prototype demo (9 nodes, 40 photos,\n"
               "48 contacts, <=3 photos/contact, <=5 photos stored, theta=40deg)\n"
               "Claim: our scheme delivers fewer-but-better photos covering far\n"
               "more of the target than PhotoNet or Spray&Wait (paper: 346deg\n"
               "with 6 photos vs 160deg/171deg with 12 photos).\n"
               "==============================================================\n";

  const Vec2 church{0.0, 0.0};
  const CoverageModel model({PointOfInterest{0, church, 1.0, nullptr}}, deg_to_rad(40.0));

  SimConfig cfg;
  cfg.node_storage_bytes = 5ULL * 4'000'000;              // five photos
  cfg.bandwidth_bytes_per_s = 3.0 * 4'000'000.0 / 600.0;  // three photos per contact
  cfg.sample_interval_s = 24.0 * 3600.0;

  Table table({"scheme", "delivered", "covering target", "aspect covered (deg)"});
  for (const std::string& name : demo_scheme_names()) {
    Rng rng(7);  // identical trace and photos for every scheme
    ContactTrace trace = demo_trace(rng);
    std::vector<PhotoEvent> photos = demo_photos(church, rng);
    Simulator sim(model, trace, photos, cfg);
    auto scheme = make_scheme(name);
    const SimResult r = sim.run(*scheme);
    std::int64_t covering = 0;
    for (const PhotoMeta* p : sim.node(kCommandCenter).store().ordered())
      if (model.footprint_cached(*p).relevant()) ++covering;
    table.add_row({name, static_cast<std::int64_t>(r.delivered_photos), covering,
                   rad_to_deg(r.final_coverage.aspect)});
  }
  bench::emit(table, opts, "fig3_demo");
  std::cout << "(Paper reference: OurScheme 6 photos/346deg, PhotoNet 12/160deg,\n"
               " Spray&Wait 12/171deg — expect the same ordering, not the same\n"
               " absolute numbers, since the photo layout is synthesized.)\n";
  return 0;
}
