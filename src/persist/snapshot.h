// Versioned, checksummed mid-run snapshots of a Simulator + Scheme pair.
//
// Format (all little-endian):
//   magic "PDTNSNP1" (8 bytes)
//   u32 version (currently 3; version 3 replaced the TRCE and PROV sections
//   with the one EVNT section of fixed-width event records, and dropped
//   metric gauges from OBS; older versions are rejected)
//   sections, in this fixed order: META SIM NODE OBS EVNT SCHM END
//     each: u32 fourcc | u64 payload length | u32 CRC-32 of payload | payload
//   (END has an empty payload; nothing may follow it)
//
// Contract — resume equals continuous: restore(snapshot at event k) followed
// by run() produces byte-identical results (samples, counters, metrics,
// traces, delivered ids) to the uninterrupted run, for any k and any
// PHOTODTN_THREADS setting. Everything order- or rounding-sensitive is
// serialized in the order the run produced it; everything that is a pure
// function of the scenario (fault plans, coverage footprints, per-PoI
// caches) is reconstructed, with a META fingerprint guarding against
// restoring into a different scenario.
//
// Contract — adversary-proof restore: any truncated, bit-flipped,
// version-skewed, or semantically inconsistent snapshot throws
// SnapshotError with a diagnostic; it never crashes, reads out of bounds,
// or silently installs wrong state. A restore that throws leaves the
// simulator partially written — discard it and construct a fresh one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "persist/codec.h"

namespace photodtn {
class Scheme;
class Simulator;
}  // namespace photodtn

namespace photodtn::persist {

inline constexpr std::string_view kSnapshotMagic = "PDTNSNP1";
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// The snapshot's self-description (META section).
struct SnapshotMeta {
  std::uint32_t version = 0;
  std::string scheme;            // Scheme::name() at checkpoint time
  std::uint64_t seed = 0;        // SimConfig::seed
  std::uint64_t event_index = 0; // event-loop iterations completed
  double now = 0.0;              // simulation clock at the checkpoint
  std::uint32_t fingerprint = 0; // scenario/config identity CRC
};

/// Serializes the complete deterministic state of a mid-run simulator and
/// its scheme. Valid only at the event-loop boundary — i.e. from inside a
/// Simulator checkpoint hook, or before run() starts.
std::string checkpoint(Simulator& sim, const Scheme& scheme);

/// Loads a snapshot into a freshly constructed simulator (same model, trace,
/// workload, and config as the checkpointed run — enforced via the META
/// fingerprint) and the matching scheme instance. Runs scheme.init() first,
/// then installs state, then deep-audits. After this, sim.run(scheme)
/// resumes from the checkpointed event. Throws SnapshotError on any
/// corruption, mismatch, or failed audit.
void restore(Simulator& sim, Scheme& scheme, std::string_view data);

/// Parses and checksums the container, returning the META section without
/// touching any simulator. Throws SnapshotError on malformed input.
SnapshotMeta peek_meta(std::string_view data);

}  // namespace photodtn::persist
