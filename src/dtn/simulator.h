// Event-driven DTN simulator. Replays a contact trace plus a photo-capture
// workload against a pluggable dissemination Scheme, enforcing the paper's
// three resource constraints: contact opportunities (the trace), per-contact
// transmission capacity (bandwidth x duration), and per-node storage.
// Node 0 is the command center; its store is unbounded and photos arriving
// there count as delivered (it never drops — Section III-C).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coverage/coverage_map.h"
#include "coverage/coverage_model.h"
#include "dtn/fault.h"
#include "dtn/node.h"
#include "dtn/scheme.h"
#include "obs/obs.h"
#include "persist/fwd.h"
#include "trace/contact_trace.h"
#include "util/rng.h"

namespace photodtn {

struct SimConfig {
  /// Participant storage S_i in bytes (Table I sweeps 0.15–1.2 GB).
  std::uint64_t node_storage_bytes = 600ULL * 1000 * 1000;
  /// Pairwise transmission bandwidth (Section V-C uses 2 MB/s).
  double bandwidth_bytes_per_s = 2.0e6;
  /// Lift the per-contact byte budget entirely (BestPossible).
  bool unlimited_bandwidth = false;
  /// Lift participant storage limits (BestPossible).
  bool unlimited_storage = false;
  /// Link setup overhead per contact (neighbor discovery, pairing): the
  /// first `contact_setup_s` seconds of every contact carry no payload.
  /// The paper idealizes this away (0); the ablation bench sweeps it.
  double contact_setup_s = 0.0;
  /// Bandwidth cost of metadata, per photo record exchanged. The paper
  /// treats metadata as free ("just a couple of floating point numbers");
  /// schemes that exchange metadata charge this against the contact budget
  /// via ContactSession::consume.
  std::uint64_t metadata_bytes_per_photo = 0;
  /// Interval between coverage samples recorded in the result. Must be
  /// finite and positive (the Simulator constructor throws otherwise).
  double sample_interval_s = 10.0 * 3600.0;
  ProphetConfig prophet;
  /// Deterministic disruption plan (dtn/fault.h). Defaults to no faults, in
  /// which case behaviour is bit-identical to a simulator without the fault
  /// layer (the injector draws from its own streams, never from `seed`'s
  /// scheme-visible Rng).
  FaultConfig faults;
  /// Observability switches (obs/obs.h), used as given: nothing else turns
  /// a tier on. All default off and cost one branch per site when off.
  obs::ObsConfig obs;
  std::uint64_t seed = 1;
};

/// A photo-capture event in the workload.
struct PhotoEvent {
  double time = 0.0;
  NodeId node = -1;
  PhotoMeta photo;
};

/// One point of the coverage-vs-time series (normalized per Section V-B).
struct SimSample {
  double time = 0.0;
  double point_coverage = 0.0;   // fraction of PoI weight point-covered
  double aspect_coverage = 0.0;  // mean weighted aspect radians per PoI
  double full_view_coverage = 0.0;  // fraction of PoIs with the full 2*pi ring
  std::uint64_t delivered_photos = 0;
  std::uint64_t bytes_transferred = 0;
};

struct SimCounters {
  std::uint64_t contacts = 0;  // contacts actually held (missed ones excluded)
  std::uint64_t photos_taken = 0;
  std::uint64_t transfers = 0;
  std::uint64_t bytes_transferred = 0;  // completed transfers only
  std::uint64_t failed_transfers = 0;
  std::uint64_t drops = 0;
  // Fault-layer observability (all zero on a clean run).
  std::uint64_t interrupted_contacts = 0;  // links that died with traffic pending
  std::uint64_t interrupted_transfers = 0;  // photo transfers cut mid-flight
  std::uint64_t partial_bytes = 0;  // wire bytes burned by cut transfers/gossip
  std::uint64_t missed_contacts = 0;   // skipped: an endpoint was down
  std::uint64_t node_crashes = 0;
  std::uint64_t photos_lost_to_crash = 0;  // wiped from crashed buffers
  std::uint64_t photos_missed_down = 0;    // captures skipped: photographer down
  std::uint64_t gossip_losses = 0;  // lost metadata directions across contacts
};

struct SimResult {
  std::vector<SimSample> samples;
  CoverageValue final_coverage;
  double final_point_norm = 0.0;
  double final_aspect_norm = 0.0;
  std::uint64_t delivered_photos = 0;
  /// Ids of the photos the command center received, in delivery order.
  /// Lets callers re-evaluate the delivered set against ground-truth
  /// metadata when the workload applied sensor noise.
  std::vector<PhotoId> delivered_ids;
  SimCounters counters;
  /// Metrics snapshot + the event log's trace and provenance views; each
  /// empty unless the run enabled its ObsConfig switch. Never feeds golden
  /// comparisons.
  obs::ObsReport obs;
};

class Simulator;

/// A live contact: byte budget plus transfer primitive. When the fault
/// layer interrupts the contact, the link carries `cut_after_bytes` of
/// traffic (payload + metadata) and then dies: the transfer in flight at
/// that instant consumes its wire bytes but does NOT materialize at the
/// receiver, and every later operation fails. A severed session stays
/// severed — schemes cannot observe the cut in advance (can_transfer only
/// reflects the budget), exactly like a real link drop.
class ContactSession {
 public:
  /// `cut_after_bytes` == kNoCut: the link survives the whole contact.
  static constexpr std::uint64_t kNoCut = ~0ULL;

  ContactSession(Simulator& sim, const Contact& contact, std::uint64_t budget,
                 bool unlimited, std::uint64_t cut_after_bytes = kNoCut,
                 bool gossip_lost_ab = false, bool gossip_lost_ba = false);

  NodeId a() const noexcept { return contact_.a; }
  NodeId b() const noexcept { return contact_.b; }
  NodeId peer(NodeId n) const noexcept { return contact_.a == n ? contact_.b : contact_.a; }
  double start() const noexcept { return contact_.start; }
  double duration() const noexcept { return contact_.duration; }
  bool involves_command_center() const noexcept {
    return contact_.involves(kCommandCenter);
  }

  bool unlimited() const noexcept { return unlimited_; }
  std::uint64_t budget_bytes() const noexcept { return budget_; }
  /// Whether the budget admits `bytes` more. Deliberately blind to a
  /// pending interruption: the cut reveals itself only when traffic hits it.
  bool can_transfer(std::uint64_t bytes) const noexcept {
    return !severed_ && (unlimited_ || bytes <= budget_);
  }

  /// True once the fault layer cut this contact's link.
  bool severed() const noexcept { return severed_; }
  /// Total wire bytes this session moved (completed + partial).
  std::uint64_t bytes_used() const noexcept { return spent_; }
  /// True when the metadata gossip flowing from `from` to its peer was lost
  /// by the fault layer. Payload transfers are unaffected (acknowledged
  /// end-to-end); best-effort metadata is not.
  bool gossip_lost_from(NodeId from) const noexcept {
    return from == contact_.a ? gossip_lost_ab_ : gossip_lost_ba_;
  }

  /// Charges non-payload bytes (metadata exchange) against the budget.
  /// Returns false (consuming whatever remained) if the budget ran dry or
  /// the link was cut mid-exchange — the contact then has no capacity left
  /// for photos either.
  bool consume(std::uint64_t bytes);

  /// Copies `photo` from `from` to `to`, consuming budget. With
  /// keep_source=false the source's copy is removed after a successful
  /// transfer (a hand-off, e.g. spraying half the copies does NOT use this —
  /// only full relinquishment). Returns false without side effects if the
  /// photo is missing at the source, already present at the destination,
  /// the budget is insufficient, or the destination lacks space.
  bool transfer(PhotoId photo, NodeId from, NodeId to, bool keep_source = true);

 private:
  /// Charges `bytes` of wire traffic against the pending cut. Returns the
  /// bytes the link actually carried; severs the session (recording the
  /// interruption against `photo`) when the cut point is crossed.
  std::uint64_t wire_carry(std::uint64_t bytes, PhotoId photo);

  Simulator& sim_;
  Contact contact_;
  std::uint64_t budget_;
  bool unlimited_;
  std::uint64_t cut_after_;
  std::uint64_t spent_ = 0;
  bool severed_ = false;
  bool gossip_lost_ab_;
  bool gossip_lost_ba_;
};

class Simulator {
 public:
  /// `model` and `trace` must outlive the simulator. Throws
  /// std::logic_error when config.sample_interval_s is not finite and
  /// positive.
  Simulator(const CoverageModel& model, const ContactTrace& trace,
            std::vector<PhotoEvent> photo_events, SimConfig config);

  /// Runs the whole trace under `scheme` and returns the metric series.
  /// A Simulator instance is single-shot: construct a fresh one per run.
  /// After persist::restore() the same call resumes from the checkpointed
  /// event instead of the start (and skips scheme.init(), which restore
  /// already ran); the completed run is byte-identical to an uninterrupted
  /// one.
  SimResult run(Scheme& scheme);

  /// Called at the top of every event-loop iteration with the number of
  /// events already processed, *before* the next event executes — the
  /// instant at which the simulator's state is a consistent checkpoint
  /// surface. persist-aware runners snapshot from here. Set before run();
  /// nullptr (the default) costs one branch per event.
  void set_checkpoint_hook(std::function<void(std::uint64_t)> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Events processed so far (event-loop iterations completed). Identifies
  /// a checkpoint position.
  std::uint64_t event_index() const noexcept { return event_index_; }

  // The services a Scheme may use (dtn/scheme.h names them SimContext).
  double now() const { return now_; }
  const CoverageModel& model() const { return *model_; }
  Node& node(NodeId id);
  NodeId num_nodes() const { return static_cast<NodeId>(nodes_.size()); }
  const SimConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  /// Stores a photo at a node if it fits (no eviction); counts storage-full
  /// rejections. Used from on_photo_taken.
  bool store_photo(NodeId node, const PhotoMeta& photo);

  /// Drops a photo from a node's buffer. The command center never drops
  /// (returns false).
  bool drop_photo(NodeId node, PhotoId photo);

  /// The run's observability bundle; never null. Schemes must check
  /// metrics_on(), or take the log() pointer, before paying any
  /// instrumentation cost.
  obs::Obs* obs() { return &obs_; }

  /// Coverage achieved by the command center so far (read-only; schemes
  /// must not consult this — they only see metadata acknowledgments).
  const CoverageMap& command_center_coverage() const noexcept { return cc_coverage_; }

  /// The fault plan this run executes (disabled when config().faults is
  /// all-default). Read-only; exposed for tests and tooling.
  const FaultInjector& faults() const noexcept { return faults_; }
  /// True while `id` is crashed (always false for the command center).
  bool is_down(NodeId id) const;

 private:
  friend class ContactSession;
  friend struct persist::StateAccess;  // checkpoint/restore of all run state

  /// The simulator's own counters, pre-registered on the obs registry (the
  /// registry is the single source of truth; SimCounters is materialized
  /// from it at the end of run()). Registration order fixes the handle
  /// indices; the snapshot sorts by name, so output never depends on it.
  struct CounterIds {
    obs::MetricsRegistry::Counter contacts, photos_taken, transfers,
        bytes_transferred, failed_transfers, drops, delivered,
        interrupted_contacts, interrupted_transfers, partial_bytes,
        missed_contacts, node_crashes, photos_lost_to_crash,
        photos_missed_down, gossip_losses;
  };

  void register_delivery(NodeId from, const PhotoMeta& photo);
  void apply_churn(const ChurnTransition& tr, Scheme& scheme);
  void take_sample();
  SimCounters read_counters() const;
  void bump(obs::MetricsRegistry::Counter c, std::uint64_t n = 1) {
    obs_.registry().add(c, n);
  }
  /// Appends `ev` to the event log unless both of its tiers are off.
  void record(const obs::Event& ev) {
    if (obs::EventLog* log = obs_.log()) log->record(ev);
  }

  const CoverageModel* model_;
  const ContactTrace* trace_;
  std::vector<PhotoEvent> photo_events_;
  SimConfig config_;
  Rng rng_;

  FaultInjector faults_;
  std::vector<char> down_;  // per node: currently crashed
  std::vector<Node> nodes_;
  CoverageMap cc_coverage_;
  double now_ = 0.0;
  bool ran_ = false;
  // Event-loop cursors, members (not run() locals) so a checkpoint can
  // capture them and a restore can resume the loop mid-trace.
  std::size_t ci_ = 0;           // next contact
  std::size_t pi_ = 0;           // next photo event
  std::size_t fi_ = 0;           // next churn transition
  double next_sample_ = 0.0;     // next coverage-sample time
  std::uint64_t event_index_ = 0;  // loop iterations completed
  bool restored_ = false;        // run() resumes; scheme.init already ran
  std::function<void(std::uint64_t)> checkpoint_hook_;
  obs::Obs obs_;  // after config_: seeded from config_.obs
  CounterIds ids_;
  obs::MetricsRegistry::Histogram h_contact_bytes_;  // metrics tier only
  std::uint64_t delivered_ = 0;
  std::vector<PhotoId> delivered_ids_;
  std::vector<SimSample> samples_;
};

}  // namespace photodtn
