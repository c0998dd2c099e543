// Deterministic span/instant recorder feeding the Chrome trace sink.
//
// Events are stamped with *simulation time* (seconds), never wall-clock —
// the rule that keeps traces byte-identical across reruns and thread counts
// (wall-clock perf data lives in the separate, non-golden wallPerf section;
// see obs/chrome_trace.h and the banned-wallclock lint rule). A recorder
// belongs to one simulation run, and a run is single-threaded: its
// event-loop thread is the only writer. Events go into one vector, each
// stamped from a plain sequence counter, and merged() sorts them by
// (timestamp, sequence stamp). A second writer thread would be a data race.
//
// Event names and categories are `const char*` and must point to storage
// outliving the recorder (string literals, or intern()'s process-lifetime
// pool for restored events): recording must not allocate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "persist/fwd.h"

namespace photodtn::obs {

/// One numeric event argument (rendered into the Chrome "args" object).
using TraceArg = std::pair<const char*, double>;

struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',  // span: ts + dur
    kInstant = 'i',
    kCounter = 'C',
  };
  static constexpr std::size_t kMaxArgs = 4;

  Phase phase = Phase::kInstant;
  const char* name = "";
  const char* cat = "";
  double ts_s = 0.0;   // simulation seconds
  double dur_s = 0.0;  // kComplete only
  std::int32_t tid = 0;
  std::uint64_t seq = 0;  // emission stamp; merge tie-break
  std::uint32_t nargs = 0;
  std::array<TraceArg, kMaxArgs> args{};
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A span covering [ts_s, ts_s + dur_s] of simulation time.
  void complete(const char* name, const char* cat, double ts_s, double dur_s,
                std::int32_t tid, std::initializer_list<TraceArg> args = {});

  /// A point event at ts_s.
  void instant(const char* name, const char* cat, double ts_s, std::int32_t tid,
               std::initializer_list<TraceArg> args = {});

  /// A counter track sample ("C" phase) at ts_s.
  void counter(const char* name, double ts_s, double value);

  /// All events, sorted by (ts_s, seq).
  std::vector<TraceEvent> merged() const;

  std::size_t event_count() const noexcept { return events_.size(); }

  /// Deep invariant check (audit builds / tests): every event has a name,
  /// finite non-negative duration, args within kMaxArgs, and a unique
  /// sequence stamp. Throws std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint reads merged() + the sequence clock; restore re-injects the
  // events through restore_events(). Snapshot strings become interned copies
  // (the recorder borrows string literals and owns no strings).
  friend struct persist::StateAccess;

  void push(TraceEvent ev, std::initializer_list<TraceArg> args);

  /// Returns a pointer to a deduplicated copy of `s` that lives until the
  /// process exits. Event name/cat/arg-key fields restored from a snapshot
  /// point here instead of at string literals; they must outlive the
  /// recorder, because the merged events are handed back in SimResult after
  /// the Simulator that owned it is gone. Snapshots this program writes
  /// carry only the fixed set of event literals, so the pool stays small.
  static const char* intern(const std::string& s);
  /// Replaces the events with `events` (whose string fields must already be
  /// interned or literal) and sets the sequence clock, so post-restore
  /// recording continues with fresh unique stamps.
  void restore_events(std::vector<TraceEvent> events, std::uint64_t next_seq);

  std::vector<TraceEvent> events_;  // unsorted; merged() orders them
  std::uint64_t next_seq_ = 0;
};

}  // namespace photodtn::obs
