// The run's event log: one append-only vector of fixed-width records, the
// single channel through which the simulator and the schemes report what
// happened. The Chrome trace (obs/chrome_trace.h) and the per-photo
// provenance JSONL (sim/result_io.h) are two filtered views of it: the trace
// answers "what happened when" for humans scrubbing a timeline, provenance
// answers "where did each byte go and why" for the attribution pipeline
// (tools/obs/provenance_report.py).
//
// Records are pure numbers (no strings): kinds and outcomes are enums and
// every payload field is a fixed-width scalar, so recording never allocates
// beyond the vector's growth and the snapshot round trip is verbatim.
//
// Determinism contract: a log belongs to one simulation run, and a run is
// single-threaded: its event-loop thread, from which every simulator and
// scheme hook fires, is the only writer. Emission order is the order every
// sink prints, and simulation time never decreases along it, so the log
// keeps no sequence stamps and is never sorted. Its views are therefore
// byte-identical across PHOTODTN_THREADS and across checkpoint/restore (the
// EVNT snapshot section re-injects the records verbatim).
//
// Tiers filter at record time: the log keeps a record only when a view that
// shows it is on (Obs::log() is nullptr while both are off).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "persist/fwd.h"

namespace photodtn::obs {

/// One simulation event. Fields beyond (kind, outcome, ts_s) are
/// kind-specific; unused ones stay zero/-1.
struct Event {
  enum class Kind : std::uint8_t {
    // Shown by the provenance view; the five marked "both" by the trace
    // view too.
    kCapture = 0,       // both: node took the photo; bytes = photo size
    kGossip = 1,        // node accepted metadata entries from peer;
                        // value = entries accepted
    kTransfer = 2,      // relay attempt node -> peer; outcome says how it
                        // ended; bytes = wire bytes burned (full size on
                        // kOk, the partial carry on kInterrupted, 0 on
                        // attempts rejected before touching the wire).
                        // both when outcome is kOk
    kMetadataBytes = 3, // non-payload bytes charged to the contact
                        // (node -> peer direction-less; bytes = carried)
    kDrop = 4,          // both: node evicted the photo from its buffer
    kSprayDecrement = 5,// spray handoff node -> peer; value = copies the
                        // receiver was granted, aux = copies left at source
    kDelivery = 6,      // both: photo arrived at the command center (node)
                        // from peer; bytes = photo size
    kSelectCommit = 7,  // selection committed the photo at node for the
                        // contact with peer; value/aux = marginal (point,
                        // aspect) gain at commit time
    kCrashWipe = 8,     // both: node crashed with storage wipe;
                        // value = photos lost
    // Shown by the trace view only.
    kCrash = 9,         // node crashed, storage kept
    kReboot = 10,       // node came back up
    kLinkCut = 11,      // the link node <-> peer died; photo = the transfer
                        // in flight (0 if it died between transfers)
    kContact = 12,      // a held contact node <-> peer, recorded when it
                        // ends at its start time; bytes = wire bytes moved,
                        // value = payload budget (-1 when unlimited),
                        // aux = duration in seconds
    kSample = 13,       // coverage sample: photo = photos delivered so far,
                        // bytes = bytes transferred so far, value = point
                        // coverage, aux = aspect coverage
    kSelect = 14,       // OurScheme's contact of participant node with the
                        // command center: value = pool size, aux = photos
                        // delivered
    kReallocate = 15,   // OurScheme's reallocation node <-> peer:
                        // value = pool size, aux = first target's size,
                        // bytes = second target's size
  };
  static constexpr std::uint8_t kMaxKind = 15;

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
};

/// The two views of the log, as bits of a view set.
enum class View : unsigned { kTrace = 1, kProvenance = 2 };

/// The set of views that show `ev` (bits of View).
inline unsigned views_of(const Event& ev) noexcept {
  constexpr unsigned kT = static_cast<unsigned>(View::kTrace);
  constexpr unsigned kP = static_cast<unsigned>(View::kProvenance);
  constexpr std::array<unsigned, Event::kMaxKind + 1> kByKind{
      kT | kP, kP, kT | kP, kP, kT | kP, kP, kT | kP, kP,
      kT | kP, kT, kT,      kT, kT,      kT, kT,      kT};
  if (ev.kind == Event::Kind::kTransfer && ev.outcome != Event::Outcome::kOk) return kP;
  const auto k = static_cast<std::size_t>(ev.kind);
  return k < kByKind.size() ? kByKind[k] : 0u;
}

inline bool shows(View view, const Event& ev) noexcept {
  return (views_of(ev) & static_cast<unsigned>(view)) != 0;
}

class EventLog {
 public:
  /// A log keeping what the trace view (`trace`) and the provenance view
  /// (`provenance`) show.
  EventLog(bool trace, bool provenance)
      : views_((trace ? static_cast<unsigned>(View::kTrace) : 0u) |
               (provenance ? static_cast<unsigned>(View::kProvenance) : 0u)) {}
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Whether some view this log keeps shows `ev`.
  bool keeps(const Event& ev) const noexcept { return (views_of(ev) & views_) != 0; }

  /// Appends `ev` if the log keeps it.
  void record(const Event& ev) {
    if (keeps(ev)) events_.push_back(ev);
  }

  std::span<const Event> events() const noexcept { return events_; }

  /// The events `view` shows, in emission order.
  std::vector<Event> view(View view) const;

  /// Deep invariant check: kinds and outcomes in range, finite timestamps
  /// and payloads, timestamps never decreasing, and every event kept by a
  /// view that is on. Throws std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint writes the events; restore validates and re-injects them.
  friend struct persist::StateAccess;

  unsigned views_;
  std::vector<Event> events_;
};

}  // namespace photodtn::obs
