// Observability bundle: one MetricsRegistry + one EventLog per simulation
// run, switched by ObsConfig and nothing else (no build option or
// environment variable reaches it).
//
// Cost tiers:
//   * Always-on: the simulator's own counters (SimCounters) live on the
//     registry unconditionally — a handle-indexed add costs what the old
//     struct increment cost, and golden outputs depend on them.
//   * ObsConfig::metrics (set by a --metrics-out or --trace-out sink):
//     scheme/selection metrics, histograms, and the metrics JSON sink.
//   * ObsConfig::trace (set by a --trace-out sink): the events the Chrome
//     trace shows (obs/event_log.h).
//   * ObsConfig::provenance (set by a --provenance-out sink): the per-photo
//     causal lifecycle events the provenance JSONL shows.
// The trace and provenance tiers share the one event log; each filters what
// it keeps at record time. With both off, log() is nullptr, so a hook site
//   if (obs::EventLog* log = obs.log()) log->record({...});
// costs one branch.
#pragma once

#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/fwd.h"

namespace photodtn::obs {

struct ObsConfig {
  bool metrics = false;  // scheme/selection metrics + metrics JSON sink
  bool trace = false;    // simulation-time trace events
  bool provenance = false;  // per-photo causal lifecycle events
};

/// What a run hands back: a metrics snapshot (empty when metrics were off)
/// and the log's two views, each empty while its tier was off.
struct ObsReport {
  MetricsSnapshot metrics;
  std::vector<Event> trace_events;
  std::vector<Event> prov_events;
};

class Obs {
 public:
  Obs() : Obs(ObsConfig{}) {}
  explicit Obs(ObsConfig cfg) : cfg_(cfg), log_(cfg.trace, cfg.provenance) {}

  bool metrics_on() const noexcept { return cfg_.metrics; }

  MetricsRegistry& registry() noexcept { return registry_; }
  const MetricsRegistry& registry() const noexcept { return registry_; }
  /// The event log, or nullptr while both the trace and provenance tiers
  /// are off.
  EventLog* log() noexcept { return cfg_.trace || cfg_.provenance ? &log_ : nullptr; }

  /// The run's trace and provenance views, each empty while its tier is off.
  void fill_views(ObsReport& report) const {
    if (cfg_.trace) report.trace_events = log_.view(View::kTrace);
    if (cfg_.provenance) report.prov_events = log_.view(View::kProvenance);
  }

  void audit() const {
    registry_.audit();
    log_.audit();
  }

 private:
  // The EVNT snapshot section reads and restores the log whatever the
  // config says, so its bytes never depend on it.
  friend struct persist::StateAccess;

  ObsConfig cfg_;
  MetricsRegistry registry_;
  EventLog log_;
};

}  // namespace photodtn::obs
