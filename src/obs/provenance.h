// Per-photo causal provenance log: the "why" behind every delivery, drop,
// and wasted wire byte. Where the trace recorder answers "what happened
// when" for humans scrubbing a timeline, the provenance recorder answers
// "where did each byte go and why" for the attribution pipeline
// (tools/obs/provenance_report.py): delivery latency by hop, bytes spent
// per delivered photo, wasted-byte buckets (interrupted transfers,
// duplicate pushes, photos relayed but never delivered), and coverage per
// wire byte per scheme — the paper's resource-awareness claim, measured.
//
// Events are pure numbers (no strings): kinds and outcomes are enums, every
// payload field is a fixed-width scalar. That keeps recording allocation-
// free, makes the persist round trip trivial (no interning), and pins the
// JSONL rendering to one place (sim/result_io.cpp).
//
// Determinism contract (same as TraceRecorder, see trace_recorder.h): a
// recorder belongs to one simulation run and its one writer, the event-loop
// thread, from which every simulator and scheme hook fires. Events go into
// one vector stamped from a plain sequence counter; merged() sorts by
// (simulation timestamp, sequence stamp). The merged stream is therefore
// byte-identical across PHOTODTN_THREADS and across checkpoint/restore (the
// PROV snapshot section re-injects events and the sequence clock verbatim).
//
// Hook sites reach the recorder through Obs::prov() (obs/obs.h), which is
// nullptr while the provenance tier is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "persist/fwd.h"

namespace photodtn::obs {

/// One causal event in a photo's lifecycle. Fields beyond (kind, outcome,
/// ts_s, photo, node) are kind-specific; unused ones stay zero/-1.
struct ProvEvent {
  enum class Kind : std::uint8_t {
    kCapture = 0,       // node took the photo; bytes = photo size
    kGossip = 1,        // node accepted metadata entries from peer;
                        // value = entries accepted
    kTransfer = 2,      // relay attempt node -> peer; outcome says how it
                        // ended; bytes = wire bytes burned (full size on
                        // kOk, the partial carry on kInterrupted, 0 on
                        // attempts rejected before touching the wire)
    kMetadataBytes = 3, // non-payload bytes charged to the contact
                        // (node -> peer direction-less; bytes = carried)
    kDrop = 4,          // node evicted the photo from its buffer
    kSprayDecrement = 5,// spray handoff node -> peer; value = copies the
                        // receiver was granted, aux = copies left at source
    kDelivery = 6,      // photo arrived at the command center from node
    kSelectCommit = 7,  // selection committed the photo at node; value/aux =
                        // marginal (point, aspect) gain at commit time
    kCrashWipe = 8,     // node crashed with storage wipe; value = photos lost
  };
  static constexpr std::uint8_t kMaxKind = 8;

  enum class Outcome : std::uint8_t {
    kOk = 0,
    kInterrupted = 1,  // link cut mid-flight; bytes burned, nothing arrived
    kNoBudget = 2,     // contact budget could not carry the photo
    kNoSpace = 3,      // receiver's buffer could not fit it
    kDuplicate = 4,    // receiver already held the photo
    kMissing = 5,      // source no longer held the photo
  };
  static constexpr std::uint8_t kMaxOutcome = 5;

  Kind kind = Kind::kCapture;
  Outcome outcome = Outcome::kOk;
  double ts_s = 0.0;          // simulation seconds
  std::uint64_t photo = 0;    // 0 when the event is not photo-specific
  std::int32_t node = -1;     // acting node
  std::int32_t peer = -1;     // counterpart node (-1 when none)
  std::uint64_t bytes = 0;    // wire bytes attributed to this event
  double value = 0.0;         // kind-specific payload (see Kind)
  double aux = 0.0;           // kind-specific payload (see Kind)
  std::uint64_t seq = 0;      // emission stamp; merge tie-break
};

/// Deterministic single-writer recorder for ProvEvents. Mirrors
/// TraceRecorder: one event vector, a plain sequence counter, and merged()
/// ordering by (ts_s, seq).
class ProvenanceRecorder {
 public:
  ProvenanceRecorder() = default;
  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  /// Records `ev` (seq is assigned here; any caller-set value is ignored).
  void record(ProvEvent ev);

  /// All events, sorted by (ts_s, seq).
  std::vector<ProvEvent> merged() const;

  std::size_t event_count() const noexcept { return events_.size(); }

  /// Deep invariant check: finite timestamps, kinds/outcomes in range,
  /// unique sequence stamps. Throws std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint reads merged() + the sequence clock; restore re-injects the
  // events through restore_events() so post-restore recording continues
  // with fresh unique stamps.
  friend struct persist::StateAccess;

  /// Replaces the events with `events` and sets the sequence clock.
  void restore_events(std::vector<ProvEvent> events, std::uint64_t next_seq);

  std::vector<ProvEvent> events_;  // unsorted; merged() orders them
  std::uint64_t next_seq_ = 0;
};

}  // namespace photodtn::obs
