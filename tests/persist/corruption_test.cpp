// Adversarial snapshot corpus (registered as persist.corruption in ctest):
// every truncation, bit flip, version skew, and targeted semantic
// inconsistency must surface as a diagnostic SnapshotError — never a crash,
// an out-of-bounds read (ASan/UBSan watch the corpus run), or a restore
// that silently installs wrong state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dtn/simulator.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "schemes/factory.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"
#include "workload/scenario.h"

namespace photodtn {
namespace {

/// A deliberately tiny scenario so the corpus (quadratic in snapshot size
/// for the exhaustive truncation sweep) stays fast.
struct TinyRig {
  TinyRig() {
    ScenarioConfig sc = ScenarioConfig::mit(5);
    sc.num_pois = 8;
    sc.photo_rate_per_hour = 12.0;
    sc.trace.num_participants = 6;
    sc.trace.duration_s = 6.0 * 3600.0;
    sc.trace.seed = 5 ^ 0x7ace5eedULL;
    sc.sim.sample_interval_s = 2.0 * 3600.0;
    sc.sim.node_storage_bytes = 40'000'000;
    sc.sim.obs.metrics = true;  // populate the OBS and EVNT sections too
    sc.sim.obs.trace = true;
    sc.sim.seed = 5 ^ 0x51eedbeefULL;

    Rng root(5);
    Rng poi_rng = root.split("pois");
    Rng photo_rng = root.split("photos");
    pois = generate_uniform_pois(sc.num_pois, sc.region_m, poi_rng);
    model = std::make_unique<CoverageModel>(pois, sc.effective_angle);
    model->set_quality_threshold(sc.quality_threshold);
    trace = generate_synthetic_trace(sc.trace);
    PhotoGenerator gen(sc, pois, PhotoGenOptions{});
    events = gen.generate(trace.horizon(), trace.num_nodes() - 1, photo_rng);
    cfg = sc.sim;
  }

  std::unique_ptr<Simulator> make_sim() const {
    return std::make_unique<Simulator>(*model, trace, events, cfg);
  }
  std::unique_ptr<Scheme> make_scheme() const {
    return ::photodtn::make_scheme("OurScheme", SchemeOptions{});
  }

  /// A mid-run snapshot of this scenario.
  std::string make_snapshot(std::uint64_t at = 60) const {
    auto sim = make_sim();
    auto scheme = make_scheme();
    std::string snap;
    sim->set_checkpoint_hook([&](std::uint64_t event) {
      if (event == at) snap = persist::checkpoint(*sim, *scheme);
    });
    sim->run(*scheme);
    EXPECT_FALSE(snap.empty());
    return snap;
  }

  PoiList pois;
  std::unique_ptr<CoverageModel> model;
  ContactTrace trace;
  std::vector<PhotoEvent> events;
  SimConfig cfg;
};

const TinyRig& rig() {
  static const TinyRig* r = new TinyRig();
  return *r;
}

const std::string& snapshot() {
  static const std::string* s = new std::string(rig().make_snapshot());
  return *s;
}

/// Restoring `data` into a fresh simulator must throw SnapshotError (and
/// nothing else).
void expect_rejected(const std::string& data, const std::string& what) {
  auto sim = rig().make_sim();
  auto scheme = rig().make_scheme();
  try {
    persist::restore(*sim, *scheme, data);
    FAIL() << what << ": corrupt snapshot was accepted";
  } catch (const persist::SnapshotError& e) {
    EXPECT_STRNE(e.what(), "") << what;
  } catch (const std::exception& e) {
    FAIL() << what << ": wrong exception type: " << e.what();
  }
}

/// Container layout constants (persist/snapshot.h).
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kVersionBytes = 4;
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 4;  // fourcc + len + crc

std::uint64_t read_u64(const std::string& data, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, data.data() + at, sizeof v);
  return v;
}

void write_u32(std::string& data, std::size_t at, std::uint32_t v) {
  std::memcpy(data.data() + at, &v, sizeof v);
}

/// Recomputes the CRC of the section whose header starts at `hdr`, as an
/// adversary who edits a payload would.
void fix_crc(std::string& data, std::size_t hdr) {
  const std::uint64_t len = read_u64(data, hdr + 4);
  const std::uint32_t crc = persist::crc32(std::string_view(data).substr(
      hdr + kSectionHeaderBytes, static_cast<std::size_t>(len)));
  write_u32(data, hdr + 12, crc);
}

/// Offsets of each section header in the container, in order.
std::vector<std::size_t> section_offsets(const std::string& data) {
  std::vector<std::size_t> offsets;
  std::size_t pos = kMagicBytes + kVersionBytes;
  while (pos + kSectionHeaderBytes <= data.size()) {
    offsets.push_back(pos);
    const std::uint64_t len = read_u64(data, pos + 4);
    pos += kSectionHeaderBytes + static_cast<std::size_t>(len);
  }
  return offsets;
}

TEST(PersistCorruption, TruncationAtEveryLength) {
  const std::string& good = snapshot();
  ASSERT_GT(good.size(), 100u);
  // Exhaustive: every proper prefix must be rejected, which covers every
  // section boundary plus every interior byte.
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_rejected(good.substr(0, len),
                    "truncation to " + std::to_string(len) + " bytes");
  }
}

TEST(PersistCorruption, TrailingGarbage) {
  expect_rejected(snapshot() + std::string(1, '\0'), "one trailing byte");
  expect_rejected(snapshot() + "extra", "trailing bytes");
}

TEST(PersistCorruption, BitFlipAtEveryByte) {
  const std::string& good = snapshot();
  for (std::size_t at = 0; at < good.size(); ++at) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    expect_rejected(bad, "bit flip at offset " + std::to_string(at));
  }
}

TEST(PersistCorruption, WrongMagic) {
  std::string bad = snapshot();
  bad[0] = 'X';
  expect_rejected(bad, "wrong magic");
  expect_rejected("", "empty input");
  expect_rejected("PDTN", "short magic");
}

TEST(PersistCorruption, VersionSkew) {
  std::string bad = snapshot();
  write_u32(bad, kMagicBytes, persist::kSnapshotVersion + 1);
  expect_rejected(bad, "future version");
  write_u32(bad, kMagicBytes, 0);
  expect_rejected(bad, "version zero");
}

// An adversary who also fixes the section CRC gets past the checksum; the
// deep validation layer must still reject the payload cleanly.
TEST(PersistCorruption, CrcFixedSemanticCorruption) {
  const std::string& good = snapshot();
  const std::vector<std::size_t> sections = section_offsets(good);
  ASSERT_EQ(sections.size(), 7u);  // META SIM NODE OBS EVNT SCHM END

  // NODE section: smash the leading node-count u64 to a huge value. The
  // allocation-bomb guard must trip before any multi-gigabyte reserve.
  {
    std::string bad = good;
    const std::size_t node_hdr = sections[2];
    const std::size_t payload = node_hdr + kSectionHeaderBytes;
    const std::uint64_t len = read_u64(bad, node_hdr + 4);
    ASSERT_GE(len, 8u);
    for (std::size_t i = 0; i < 8; ++i) bad[payload + i] = '\xff';
    const std::uint32_t crc = persist::crc32(
        std::string_view(bad).substr(payload, static_cast<std::size_t>(len)));
    write_u32(bad, node_hdr + 12, crc);
    expect_rejected(bad, "CRC-fixed node-count bomb");
  }

  // SCHM section: replace the whole payload with noise bytes and fix the
  // CRC; the scheme's loader must fail validation, not install garbage.
  {
    std::string bad = good;
    const std::size_t schm_hdr = sections[5];
    const std::size_t payload = schm_hdr + kSectionHeaderBytes;
    const std::uint64_t len = read_u64(bad, schm_hdr + 4);
    ASSERT_GE(len, 8u);
    for (std::size_t i = 0; i < len; ++i)
      bad[payload + i] = static_cast<char>(0xa5u ^ (i * 7));
    const std::uint32_t crc = persist::crc32(
        std::string_view(bad).substr(payload, static_cast<std::size_t>(len)));
    write_u32(bad, schm_hdr + 12, crc);
    expect_rejected(bad, "CRC-fixed scheme payload noise");
  }
}

// The NODE section: per node, its photo store (a count, then 76 bytes per
// photo), its PROPHET table (aging clock f64, a count, then (peer i32,
// value f64) pairs) and its rate estimator (start f64, total u64, a count,
// then (peer i32, count u64) pairs). A PROPHET peer outside [0, node count)
// must be refused, naming the peer, before the table sizes itself from it.
TEST(PersistCorruption, CrcFixedProphetPeerOutsideTheNodeRange) {
  const std::string& good = snapshot();
  const std::size_t hdr = section_offsets(good)[2];
  std::size_t at = hdr + kSectionHeaderBytes;
  const std::uint64_t nodes = read_u64(good, at);
  at += 8;
  std::size_t peer_at = 0;
  for (std::uint64_t n = 0; n < nodes && peer_at == 0; ++n) {
    at += 8 + 76 * static_cast<std::size_t>(read_u64(good, at));
    const auto entries = static_cast<std::size_t>(read_u64(good, at + 8));
    if (entries > 0) peer_at = at + 16;
    at += 16 + 12 * entries;
    at += 24 + 12 * static_cast<std::size_t>(read_u64(good, at + 16));
  }
  ASSERT_NE(peer_at, 0u) << "no node of the snapshot has a PROPHET entry";
  for (const std::int32_t peer : {std::int32_t{-1}, std::numeric_limits<std::int32_t>::max()}) {
    std::string bad = good;
    std::memcpy(bad.data() + peer_at, &peer, sizeof peer);
    fix_crc(bad, hdr);
    auto sim = rig().make_sim();
    auto scheme = rig().make_scheme();
    try {
      persist::restore(*sim, *scheme, bad);
      ADD_FAILURE() << "PROPHET peer " << peer << " accepted";
    } catch (const persist::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("PROPHET peer " + std::to_string(peer) + " outside"),
                std::string::npos)
          << e.what();
    }
  }
}

// The EVNT section: a count, then one 50-byte record per event (kind u8,
// outcome u8, ts f64, photo u64, node i32, peer i32, bytes u64, value f64,
// aux f64). Each case edits one record, fixes the CRC, and must be rejected
// for the reason it plants.
TEST(PersistCorruption, CrcFixedEventLogCorruption) {
  const std::string& good = snapshot();
  const std::size_t hdr = section_offsets(good)[4];
  const std::size_t first = hdr + kSectionHeaderBytes + 8;
  const std::uint64_t count = read_u64(good, hdr + kSectionHeaderBytes);
  ASSERT_GE(count, 2u);
  const auto planted = [&](std::size_t offset, const void* bytes, std::size_t n,
                           const std::string& reason) {
    std::string bad = good;
    std::memcpy(bad.data() + first + offset, bytes, n);
    fix_crc(bad, hdr);
    auto sim = rig().make_sim();
    auto scheme = rig().make_scheme();
    try {
      persist::restore(*sim, *scheme, bad);
      ADD_FAILURE() << reason << ": accepted";
    } catch (const persist::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
    }
  };
  const std::uint8_t kind = 0x63;
  planted(0, &kind, 1, "event kind out of range");
  // The first event's timestamp far in the future: the second one decreases.
  const double future = 1e12;
  planted(2, &future, 8, "event timestamps decrease");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  planted(34, &nan, 8, "non-finite event payload");
  // The last event after the checkpoint's clock: the resumed run would
  // record earlier events after it.
  planted(50 * (count - 1) + 2, &future, 8, "event log runs past the simulation clock");
}

TEST(PersistCorruption, VersionTwoSnapshotIsRejectedNamingItsVersion) {
  // Version 2 kept the trace and provenance events in TRCE and PROV
  // sections; this build reads only version 3.
  std::string old = snapshot();
  write_u32(old, kMagicBytes, 2);
  try {
    persist::peek_meta(old);
    FAIL() << "a version-2 snapshot was accepted";
  } catch (const persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"), std::string::npos)
        << e.what();
  }
  expect_rejected(old, "version 2");
}

TEST(PersistCorruption, PeekMetaRejectsCorruptInput) {
  const std::string& good = snapshot();
  EXPECT_NO_THROW(persist::peek_meta(good));
  EXPECT_THROW(persist::peek_meta(good.substr(0, good.size() / 2)),
               persist::SnapshotError);
  std::string bad = good;
  bad[kMagicBytes + kVersionBytes + kSectionHeaderBytes] ^= 0x01;
  EXPECT_THROW(persist::peek_meta(bad), persist::SnapshotError);
}

}  // namespace
}  // namespace photodtn
