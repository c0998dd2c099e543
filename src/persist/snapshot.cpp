#include "persist/snapshot.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "persist/state_access.h"

namespace photodtn::persist {

namespace {

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

constexpr std::uint32_t kMeta = fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t kSim = fourcc('S', 'I', 'M', ' ');
constexpr std::uint32_t kNode = fourcc('N', 'O', 'D', 'E');
constexpr std::uint32_t kObs = fourcc('O', 'B', 'S', ' ');
constexpr std::uint32_t kEvnt = fourcc('E', 'V', 'N', 'T');
constexpr std::uint32_t kSchm = fourcc('S', 'C', 'H', 'M');
constexpr std::uint32_t kEnd = fourcc('E', 'N', 'D', ' ');

struct SectionSpec {
  std::uint32_t id;
  const char* name;
};

constexpr std::array<SectionSpec, 7> kSections{{
    {kMeta, "META"},
    {kSim, "SIM"},
    {kNode, "NODE"},
    {kObs, "OBS"},
    {kEvnt, "EVNT"},
    {kSchm, "SCHM"},
    {kEnd, "END"},
}};

void append_section(StateWriter& out, std::uint32_t id, std::string_view payload) {
  out.u32(id);
  out.u64(payload.size());
  out.u32(crc32(payload));
  out.raw(payload);
}

/// The section payloads, in kSections order (END's is empty).
struct Parsed {
  std::array<std::string_view, kSections.size()> payloads;
};

Parsed parse(std::string_view data) {
  StateReader r(data, "snapshot container");
  if (data.size() < kSnapshotMagic.size() ||
      data.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    throw SnapshotError("snapshot container: bad magic (not a photodtn snapshot)");
  }
  r.raw(kSnapshotMagic.size());
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot container: unsupported version " +
                        std::to_string(version) + " (this build reads version " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  Parsed parsed;
  for (std::size_t i = 0; i < kSections.size(); ++i) {
    const SectionSpec& spec = kSections[i];
    const std::uint32_t id = r.u32();
    if (id != spec.id) {
      r.fail(std::string("expected section ") + spec.name +
             " (sections are fixed-order)");
    }
    const std::uint64_t len = r.u64();
    if (r.remaining() < 4 || len > r.remaining() - 4) {
      r.fail(std::string("section ") + spec.name + " length " +
             std::to_string(len) + " exceeds the file");
    }
    const std::uint32_t stored_crc = r.u32();
    const std::string_view payload = r.raw(static_cast<std::size_t>(len));
    if (crc32(payload) != stored_crc) {
      throw SnapshotError(std::string("snapshot container: CRC mismatch in section ") +
                          spec.name + " (corrupt or tampered payload)");
    }
    parsed.payloads[i] = payload;
  }
  if (!parsed.payloads.back().empty()) {
    throw SnapshotError("snapshot container: END section must be empty");
  }
  r.expect_end();
  return parsed;
}

SnapshotMeta read_meta(std::string_view payload) {
  StateReader r(payload, "snapshot META section");
  SnapshotMeta m;
  m.version = kSnapshotVersion;
  m.scheme = r.str();
  m.seed = r.u64();
  m.event_index = r.u64();
  m.now = r.f64();
  m.fingerprint = r.u32();
  r.expect_end();
  return m;
}

std::uint32_t compute_fingerprint(Simulator& sim, const Scheme& scheme) {
  StateWriter basis;
  basis.str(scheme.name());
  StateAccess::write_fingerprint_basis(basis, sim);
  return crc32(basis.bytes());
}

}  // namespace

std::string checkpoint(Simulator& sim, const Scheme& scheme) {
  StateWriter meta;
  meta.str(scheme.name());
  meta.u64(sim.config().seed);
  meta.u64(sim.event_index());
  meta.f64(sim.now());
  meta.u32(compute_fingerprint(sim, scheme));

  StateWriter sim_w;
  StateAccess::save_sim(sim_w, sim);
  StateWriter node_w;
  StateAccess::save_nodes(node_w, sim);
  StateWriter obs_w;
  StateAccess::save_obs(obs_w, sim);
  StateWriter evnt_w;
  StateAccess::save_events(evnt_w, sim);
  StateWriter schm_w;
  scheme.save_persist_state(schm_w);

  StateWriter out;
  out.raw(kSnapshotMagic);
  out.u32(kSnapshotVersion);
  append_section(out, kMeta, meta.bytes());
  append_section(out, kSim, sim_w.bytes());
  append_section(out, kNode, node_w.bytes());
  append_section(out, kObs, obs_w.bytes());
  append_section(out, kEvnt, evnt_w.bytes());
  append_section(out, kSchm, schm_w.bytes());
  append_section(out, kEnd, {});
  return out.take();
}

void restore(Simulator& sim, Scheme& scheme, std::string_view data) {
  const Parsed parsed = parse(data);
  const SnapshotMeta meta = read_meta(parsed.payloads[0]);

  if (StateAccess::has_run(sim)) {
    throw SnapshotError(
        "snapshot: restore requires a freshly constructed simulator");
  }
  if (meta.scheme != scheme.name()) {
    throw SnapshotError("snapshot: taken under scheme '" + meta.scheme +
                        "', cannot restore into '" + scheme.name() + "'");
  }
  if (meta.fingerprint != compute_fingerprint(sim, scheme)) {
    throw SnapshotError(
        "snapshot: scenario fingerprint mismatch — the simulator was built "
        "from a different model/trace/workload/config than the checkpoint");
  }

  try {
    // init() first: it wires obs handles and resets scheme state, exactly as
    // the original run's init did; the loads below then overwrite the parts
    // the checkpoint captured. run() skips init for a restored simulator.
    scheme.init(sim);

    StateReader sim_r(parsed.payloads[1], "snapshot SIM section");
    StateAccess::load_sim(sim_r, sim);
    sim_r.expect_end();
    if (StateAccess::sim_event_index(sim) != meta.event_index) {
      throw SnapshotError("snapshot: META/SIM event index disagreement");
    }

    StateReader node_r(parsed.payloads[2], "snapshot NODE section");
    StateAccess::load_nodes(node_r, sim);
    node_r.expect_end();

    StateAccess::rebuild_cc_coverage(sim);

    StateReader obs_r(parsed.payloads[3], "snapshot OBS section");
    StateAccess::load_obs(obs_r, sim);
    obs_r.expect_end();

    StateReader evnt_r(parsed.payloads[4], "snapshot EVNT section");
    StateAccess::load_events(evnt_r, sim);
    evnt_r.expect_end();

    StateReader schm_r(parsed.payloads[5], "snapshot SCHM section");
    scheme.load_persist_state(schm_r, sim);
    schm_r.expect_end();

    StateAccess::mark_restored(sim);
  } catch (const std::logic_error& e) {
    // Contract checks and deep audits report programming errors; coming from
    // deserialized input they mean the snapshot is inconsistent, which is a
    // runtime condition the caller handles.
    throw SnapshotError(std::string("snapshot failed deep validation: ") +
                        e.what());
  }
}

SnapshotMeta peek_meta(std::string_view data) {
  return read_meta(parse(data).payloads[0]);
}

}  // namespace photodtn::persist
