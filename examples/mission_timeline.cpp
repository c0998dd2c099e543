// Observability demo: read the run's event log (its trace view) and narrate
// a small crowdsourcing mission minute by minute — who photographed what,
// which contacts moved which photos, what got dropped as redundant, and when
// the command center received each view. Useful for debugging schemes and
// for teaching how the Section III algorithm behaves contact by contact.
//
// Run: ./mission_timeline
// Besides the console narration, the run records the obs layer's metrics
// and writes the same events to mission_trace.json — open it in
// chrome://tracing or https://ui.perfetto.dev to scrub the mission on a
// timeline (EXPERIMENTS.md has the recipe).
#include <cstdio>
#include <string>

#include "dtn/simulator.h"
#include "geometry/angle.h"
#include "obs/chrome_trace.h"
#include "schemes/factory.h"
#include "util/rng.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"

using namespace photodtn;

namespace {

/// One console line for `e`, or nothing for the events the narration
/// skips (coverage samples and OurScheme's selection decisions).
bool narrate(const obs::Event& e) {
  using Kind = obs::Event::Kind;
  const double h = e.ts_s / 3600.0;
  const auto photo = static_cast<unsigned long long>(e.photo);
  switch (e.kind) {
    case Kind::kContact:  // recorded after the transfers it carried
      std::printf("[%5.2fh] CONTACT  node %d <-> node %d: %.0f s, %.1f MB moved\n", h,
                  e.node, e.peer, e.aux, static_cast<double>(e.bytes) / 1e6);
      return true;
    case Kind::kCapture:
      std::printf("[%5.2fh] CAPTURE  scout %d takes photo #%llu\n", h, e.node, photo);
      return true;
    case Kind::kTransfer:
      std::printf("[%5.2fh] TRANSFER photo #%llu: %d -> %d\n", h, photo, e.node, e.peer);
      return true;
    case Kind::kDrop:
      std::printf("[%5.2fh] DROP     node %d drops photo #%llu (redundant/acked)\n", h,
                  e.node, photo);
      return true;
    case Kind::kDelivery:
      std::printf("[%5.2fh] DELIVERY photo #%llu reaches the command center via %d\n", h,
                  photo, e.peer);
      return true;
    case Kind::kLinkCut:
      std::printf("[%5.2fh] LINKCUT  link %d <-> %d dies%s\n", h, e.node, e.peer,
                  e.photo != 0 ? " mid-transfer (photo lost in flight)" : "");
      return true;
    case Kind::kCrash:
    case Kind::kCrashWipe:
      std::printf("[%5.2fh] CRASH    scout %d goes dark\n", h, e.node);
      return true;
    case Kind::kReboot:
      std::printf("[%5.2fh] REBOOT   scout %d back online\n", h, e.node);
      return true;
    default:
      return false;
  }
}

}  // namespace

int main() {
  std::printf("Mission timeline: 6 scouts, 3 targets, 12 hours, one uplink.\n\n");

  Rng rng(404);
  Rng poi_rng = rng.split("pois");
  const PoiList pois = generate_uniform_pois(3, 1200.0, poi_rng);
  const CoverageModel model(pois, deg_to_rad(30.0));

  SyntheticTraceConfig tc;
  tc.num_participants = 6;
  tc.duration_s = 12.0 * 3600.0;
  tc.base_pair_rate_per_hour = 1.2;
  tc.team_size = 3;
  tc.gateway_fraction = 1.0 / 6.0;
  tc.gateway_mean_interval_s = 3.0 * 3600.0;
  tc.seed = 404;
  const ContactTrace trace = generate_synthetic_trace(tc);

  ScenarioConfig wl = ScenarioConfig::mit(1);
  wl.region_m = 1200.0;
  wl.num_pois = pois.size();
  wl.photo_rate_per_hour = 6.0;
  PhotoGenOptions po;
  po.aimed_fraction = 0.9;
  po.aim_search_radius_m = 700.0;
  PhotoGenerator gen(wl, pois, po);
  Rng photo_rng = rng.split("photos");
  std::vector<PhotoEvent> events = gen.generate(trace.horizon(), 6, photo_rng);

  SimConfig cfg;
  cfg.node_storage_bytes = 4ULL * 4'000'000;  // four photos per scout
  cfg.bandwidth_bytes_per_s = 2.0e6;
  cfg.sample_interval_s = 1e9;
  // A taste of disruption (dtn/fault.h): scout 3's device dies mid-mission
  // and comes back empty three hours later; one contact in ten loses its
  // link partway through. Everything below stays deterministic.
  cfg.faults.scripted_downtime.push_back({3, 4.0 * 3600.0, 7.0 * 3600.0});
  cfg.faults.contact_interrupt_prob = 0.1;
  cfg.faults.interrupt_fraction_min = 0.2;
  cfg.faults.interrupt_fraction_max = 0.8;
  cfg.obs.metrics = true;  // record sim.*/scheme.* metrics ...
  cfg.obs.trace = true;    // ... and the events the trace view shows
  Simulator sim(model, trace, std::move(events), cfg);

  auto scheme = make_scheme("OurScheme");
  const SimResult r = sim.run(*scheme);
  std::size_t shown = 0;
  for (const obs::Event& e : r.obs.trace_events) {
    if (shown >= 60) break;  // keep the console readable
    if (narrate(e)) ++shown;
  }
  if (shown >= 60) std::printf("... (%s)\n", "timeline truncated at 60 events");
  std::printf("\nMission result: %.0f%% of targets covered, %.0f deg mean aspect, "
              "%llu photos delivered, %llu transfers, %llu drops.\n",
              100.0 * r.final_point_norm, rad_to_deg(r.final_aspect_norm),
              (unsigned long long)r.delivered_photos,
              (unsigned long long)r.counters.transfers,
              (unsigned long long)r.counters.drops);
  std::printf("Disruption: %llu link cuts, %llu contacts missed to downtime, "
              "%llu photos wiped in the crash.\n",
              (unsigned long long)r.counters.interrupted_contacts,
              (unsigned long long)r.counters.missed_contacts,
              (unsigned long long)r.counters.photos_lost_to_crash);
  const char* trace_path = "mission_trace.json";
  if (obs::write_chrome_trace(trace_path, r.obs.trace_events, &r.obs.metrics))
    std::printf("Trace: %zu events written to %s — open in chrome://tracing "
                "or ui.perfetto.dev.\n",
                r.obs.trace_events.size(), trace_path);
  return 0;
}
