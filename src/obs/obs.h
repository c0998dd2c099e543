// Observability bundle: one MetricsRegistry + one TraceRecorder + one
// ProvenanceRecorder per simulation run, switched by ObsConfig and nothing
// else (no build option or environment variable reaches it).
//
// Cost tiers:
//   * Always-on: the simulator's own counters (SimCounters) live on the
//     registry unconditionally — a handle-indexed add costs what the old
//     struct increment cost, and golden outputs depend on them.
//   * ObsConfig::metrics (set by a --metrics-out or --trace-out sink):
//     scheme/selection metrics, histograms, and the metrics JSON sink.
//   * ObsConfig::trace (set by a --trace-out sink): simulation-time
//     span/instant events.
//   * ObsConfig::provenance (set by a --provenance-out sink): per-photo
//     causal lifecycle events (obs/provenance.h).
// An off tier costs one branch per instrumentation site: trace() and prov()
// hand out their recorder only while that tier is on, so a hook site is
//   if (obs::TraceRecorder* tr = obs.trace()) tr->instant(...);
// and cannot record into an off tier.
#pragma once

#include <vector>

#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace_recorder.h"
#include "persist/fwd.h"

namespace photodtn::obs {

struct ObsConfig {
  bool metrics = false;  // scheme/selection metrics + metrics JSON sink
  bool trace = false;    // simulation-time trace events
  bool provenance = false;  // per-photo causal lifecycle events
};

/// What a run hands back: a metrics snapshot (empty when metrics were off),
/// the deterministically merged trace events (empty when tracing off), and
/// the merged provenance events (empty when provenance was off).
struct ObsReport {
  MetricsSnapshot metrics;
  std::vector<TraceEvent> trace_events;
  std::vector<ProvEvent> prov_events;
};

class Obs {
 public:
  Obs() = default;
  explicit Obs(ObsConfig cfg) : cfg_(cfg) {}

  bool metrics_on() const noexcept { return cfg_.metrics; }

  MetricsRegistry& registry() noexcept { return registry_; }
  const MetricsRegistry& registry() const noexcept { return registry_; }
  /// The trace recorder, or nullptr when tracing is off.
  TraceRecorder* trace() noexcept { return cfg_.trace ? &trace_ : nullptr; }
  /// The provenance recorder, or nullptr when provenance is off.
  ProvenanceRecorder* prov() noexcept { return cfg_.provenance ? &prov_ : nullptr; }

  void audit() const {
    registry_.audit();
    trace_.audit();
    prov_.audit();
  }

 private:
  // The TRCE and PROV snapshot sections read and restore both recorders
  // whatever the config says, so their bytes never depend on it.
  friend struct persist::StateAccess;

  ObsConfig cfg_;
  MetricsRegistry registry_;
  TraceRecorder trace_;
  ProvenanceRecorder prov_;
};

}  // namespace photodtn::obs
