#include "dtn/simulator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace photodtn {

ContactSession::ContactSession(Simulator& sim, const Contact& contact,
                               std::uint64_t budget, bool unlimited,
                               std::uint64_t cut_after_bytes, bool gossip_lost_ab,
                               bool gossip_lost_ba)
    : sim_(sim),
      contact_(contact),
      budget_(budget),
      unlimited_(unlimited),
      cut_after_(cut_after_bytes),
      gossip_lost_ab_(gossip_lost_ab),
      gossip_lost_ba_(gossip_lost_ba) {}

std::uint64_t ContactSession::wire_carry(std::uint64_t bytes, PhotoId photo) {
  PHOTODTN_DCHECK_MSG(!severed_, "a severed session carries no traffic");
  const std::uint64_t remaining = cut_after_ - spent_;  // cut_after_ >= spent_
  if (bytes <= remaining) {
    spent_ += bytes;
    return bytes;
  }
  // The link dies mid-operation: `remaining` wire bytes were transmitted
  // and are gone, but the operation never completes.
  spent_ = cut_after_;
  severed_ = true;
  sim_.bump(sim_.ids_.interrupted_contacts);
  sim_.bump(sim_.ids_.partial_bytes, remaining);
  sim_.emit(SimEvent::Type::kContactInterrupted, contact_.a, contact_.b, photo);
  if (obs::TraceRecorder* tr = sim_.obs_.trace()) {
    tr->instant("linkcut", "fault", sim_.now_, contact_.a,
                {{"peer", static_cast<double>(contact_.b)},
                 {"photo", static_cast<double>(photo)}});
  }
  return remaining;
}

bool ContactSession::consume(std::uint64_t bytes) {
  if (severed_) return false;
  // The budget bounds what the wire can still carry; the cut may bound it
  // tighter. Charge only bytes that physically left an antenna.
  const std::uint64_t sendable = unlimited_ ? bytes : std::min(bytes, budget_);
  const std::uint64_t carried = wire_carry(sendable, 0);
  if (!unlimited_) budget_ -= carried;
  obs::ProvenanceRecorder* prov = sim_.obs_.prov();
  if (prov != nullptr && carried > 0) {
    prov->record({.kind = obs::ProvEvent::Kind::kMetadataBytes,
                  .ts_s = sim_.now_,
                  .node = static_cast<std::int32_t>(contact_.a),
                  .peer = static_cast<std::int32_t>(contact_.b),
                  .bytes = carried});
  }
  if (severed_) return false;
  if (sendable < bytes) {  // budget ran dry mid-exchange
    budget_ = 0;
    return false;
  }
  return true;
}

bool ContactSession::transfer(PhotoId photo, NodeId from, NodeId to, bool keep_source) {
  PHOTODTN_CHECK_MSG((from == contact_.a && to == contact_.b) ||
                         (from == contact_.b && to == contact_.a),
                     "transfer endpoints must match the contact");
  Node& src = sim_.node(from);
  Node& dst = sim_.node(to);
  const PhotoMeta* meta = src.store().find(photo);
  // One kTransfer provenance event per attempt, whatever the outcome: the
  // attribution pipeline buckets wasted bytes by these outcomes.
  const auto prov_attempt = [&](obs::ProvEvent::Outcome outcome,
                                std::uint64_t wire_bytes) {
    if (obs::ProvenanceRecorder* prov = sim_.obs_.prov()) {
      prov->record({.kind = obs::ProvEvent::Kind::kTransfer,
                    .outcome = outcome,
                    .ts_s = sim_.now_,
                    .photo = static_cast<std::uint64_t>(photo),
                    .node = static_cast<std::int32_t>(from),
                    .peer = static_cast<std::int32_t>(to),
                    .bytes = wire_bytes});
    }
  };
  if (meta == nullptr) {
    sim_.bump(sim_.ids_.failed_transfers);
    prov_attempt(obs::ProvEvent::Outcome::kMissing, 0);
    return false;
  }
  if (dst.store().contains(photo)) {
    sim_.bump(sim_.ids_.failed_transfers);
    prov_attempt(obs::ProvEvent::Outcome::kDuplicate, 0);
    return false;
  }
  const std::uint64_t bytes = meta->size_bytes;
  if (!can_transfer(bytes) || !dst.store().can_fit(bytes)) {
    sim_.bump(sim_.ids_.failed_transfers);
    prov_attempt(can_transfer(bytes) ? obs::ProvEvent::Outcome::kNoSpace
                                     : obs::ProvEvent::Outcome::kNoBudget,
                 0);
    return false;
  }
  const std::uint64_t carried = wire_carry(bytes, photo);
  if (!unlimited_) budget_ -= carried;
  if (carried < bytes) {
    // Interrupted mid-flight: the wire bytes are spent, the photo never
    // materializes at the receiver, and the source keeps its copy (a
    // half-received file is discarded, a half-sent one is still whole).
    sim_.bump(sim_.ids_.interrupted_transfers);
    sim_.bump(sim_.ids_.failed_transfers);
    prov_attempt(obs::ProvEvent::Outcome::kInterrupted, carried);
    return false;
  }
  const PhotoMeta copy = *meta;  // copy before any mutation invalidates `meta`
  const bool added = dst.store().add(copy);
  PHOTODTN_CHECK(added);
  sim_.bump(sim_.ids_.transfers);
  sim_.bump(sim_.ids_.bytes_transferred, bytes);
  sim_.emit(SimEvent::Type::kTransfer, from, to, photo);
  if (obs::TraceRecorder* tr = sim_.obs_.trace()) {
    tr->instant("transfer", "photo", sim_.now_, from,
                {{"photo", static_cast<double>(photo)},
                 {"to", static_cast<double>(to)},
                 {"bytes", static_cast<double>(bytes)}});
  }
  prov_attempt(obs::ProvEvent::Outcome::kOk, bytes);
  if (!keep_source) src.store().remove(photo);
  if (to == kCommandCenter) sim_.register_delivery(from, copy);
  return true;
}

Simulator::Simulator(const CoverageModel& model, const ContactTrace& trace,
                     std::vector<PhotoEvent> photo_events, SimConfig config)
    : model_(&model),
      trace_(&trace),
      photo_events_(std::move(photo_events)),
      config_(config),
      rng_(config.seed),
      faults_(config.faults, trace.num_nodes(), trace.horizon(), config.seed),
      down_(static_cast<std::size_t>(trace.num_nodes()), 0),
      cc_coverage_(model),
      obs_(config_.obs) {
  // run() steps next_sample_ by the interval until it passes each event: a
  // zero or negative interval would never pass it, and NaN or inf would
  // silently record a single sample.
  PHOTODTN_CHECK_MSG(std::isfinite(config_.sample_interval_s) &&
                         config_.sample_interval_s > 0.0,
                     "sample_interval_s must be finite and positive");
  // The sim's own counters live on the registry unconditionally: golden
  // outputs read them through SimCounters, and an indexed add costs what
  // the old struct increment did.
  obs::MetricsRegistry& reg = obs_.registry();
  ids_.contacts = reg.counter("sim.contacts");
  ids_.photos_taken = reg.counter("sim.photos_taken");
  ids_.transfers = reg.counter("sim.transfers");
  ids_.bytes_transferred = reg.counter("sim.bytes_transferred");
  ids_.failed_transfers = reg.counter("sim.failed_transfers");
  ids_.drops = reg.counter("sim.drops");
  ids_.delivered = reg.counter("sim.delivered");
  ids_.interrupted_contacts = reg.counter("sim.interrupted_contacts");
  ids_.interrupted_transfers = reg.counter("sim.interrupted_transfers");
  ids_.partial_bytes = reg.counter("sim.partial_bytes");
  ids_.missed_contacts = reg.counter("sim.missed_contacts");
  ids_.node_crashes = reg.counter("sim.node_crashes");
  ids_.photos_lost_to_crash = reg.counter("sim.photos_lost_to_crash");
  ids_.photos_missed_down = reg.counter("sim.photos_missed_down");
  ids_.gossip_losses = reg.counter("sim.gossip_losses");
  if (obs_.metrics_on()) {
    h_contact_bytes_ = reg.histogram(
        "sim.contact_bytes", obs::MetricsRegistry::exp_bounds(1024, 4.0, 12));
  }
  std::sort(photo_events_.begin(), photo_events_.end(),
            [](const PhotoEvent& x, const PhotoEvent& y) { return x.time < y.time; });
  const std::uint64_t storage =
      config_.unlimited_storage ? PhotoStore::kUnlimited : config_.node_storage_bytes;
  nodes_.reserve(static_cast<std::size_t>(trace.num_nodes()));
  for (NodeId i = 0; i < trace.num_nodes(); ++i) {
    nodes_.emplace_back(i, i == kCommandCenter ? PhotoStore::kUnlimited : storage,
                        config_.prophet);
  }
}

Node& Simulator::node(NodeId id) {
  PHOTODTN_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
                     "node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

bool Simulator::is_down(NodeId id) const {
  PHOTODTN_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < down_.size(),
                     "node id out of range");
  return down_[static_cast<std::size_t>(id)] != 0;
}

bool Simulator::store_photo(NodeId id, const PhotoMeta& photo) {
  return node(id).store().add(photo);
}

bool Simulator::drop_photo(NodeId id, PhotoId photo) {
  if (id == kCommandCenter) return false;  // the center never drops (§III-C)
  const bool removed = node(id).store().remove(photo);
  if (removed) {
    bump(ids_.drops);
    emit(SimEvent::Type::kDrop, id, -1, photo);
    if (obs::TraceRecorder* tr = obs_.trace()) {
      tr->instant("drop", "photo", now_, id,
                  {{"photo", static_cast<double>(photo)}});
    }
    if (obs::ProvenanceRecorder* prov = obs_.prov()) {
      prov->record({.kind = obs::ProvEvent::Kind::kDrop,
                    .ts_s = now_,
                    .photo = static_cast<std::uint64_t>(photo),
                    .node = static_cast<std::int32_t>(id)});
    }
  }
  return removed;
}

void Simulator::register_delivery(NodeId from, const PhotoMeta& photo) {
  ++delivered_;
  bump(ids_.delivered);
  delivered_ids_.push_back(photo.id);
  cc_coverage_.add(model_->footprint_cached(photo));
  emit(SimEvent::Type::kDelivery, from, kCommandCenter, photo.id);
  if (obs::TraceRecorder* tr = obs_.trace()) {
    tr->instant("delivery", "delivery", now_, kCommandCenter,
                {{"photo", static_cast<double>(photo.id)},
                 {"from", static_cast<double>(from)}});
  }
  if (obs::ProvenanceRecorder* prov = obs_.prov()) {
    prov->record({.kind = obs::ProvEvent::Kind::kDelivery,
                  .ts_s = now_,
                  .photo = static_cast<std::uint64_t>(photo.id),
                  .node = static_cast<std::int32_t>(kCommandCenter),
                  .peer = static_cast<std::int32_t>(from),
                  .bytes = photo.size_bytes});
  }
}

void Simulator::apply_churn(const ChurnTransition& tr, Scheme& scheme) {
  char& d = down_[static_cast<std::size_t>(tr.node)];
  if (!tr.up) {
    PHOTODTN_DCHECK_MSG(d == 0, "down transition for an already-down node");
    d = 1;
    bump(ids_.node_crashes);
    if (obs::TraceRecorder* rec = obs_.trace()) {
      rec->instant("crash", "fault", now_, tr.node, {{"wipe", tr.wipe ? 1.0 : 0.0}});
    }
    Node& n = node(tr.node);
    if (tr.wipe) {
      bump(ids_.photos_lost_to_crash, n.store().size());
      if (obs::ProvenanceRecorder* prov = obs_.prov()) {
        prov->record({.kind = obs::ProvEvent::Kind::kCrashWipe,
                      .ts_s = now_,
                      .node = static_cast<std::int32_t>(tr.node),
                      .value = static_cast<double>(n.store().size())});
      }
      n.store().clear();
      // Routing soft state dies with the flash: the reboot re-learns rates
      // and predictabilities from scratch (peers keep their view of us —
      // only real absence ages it, which is exactly the §III-B regime the
      // metadata-validity rule hedges against).
      n.prophet() = ProphetTable(config_.prophet, tr.node);
      n.rates() = RateEstimator(now_);
    }
    emit(SimEvent::Type::kNodeDown, tr.node, -1, 0);
    scheme.on_node_down(*this, tr.node, tr.wipe);
  } else {
    PHOTODTN_DCHECK_MSG(d == 1, "up transition for a node that is not down");
    d = 0;
    if (obs::TraceRecorder* rec = obs_.trace()) {
      rec->instant("reboot", "fault", now_, tr.node);
    }
    emit(SimEvent::Type::kNodeUp, tr.node, -1, 0);
    scheme.on_node_up(*this, tr.node);
  }
}

void Simulator::take_sample() {
  SimSample s;
  s.time = now_;
  s.point_coverage = cc_coverage_.normalized_point();
  s.aspect_coverage = cc_coverage_.normalized_aspect();
  s.full_view_coverage = cc_coverage_.full_view_fraction();
  s.delivered_photos = delivered_;
  s.bytes_transferred = obs_.registry().value(ids_.bytes_transferred);
  samples_.push_back(s);
  // Counter tracks for the trace timeline (Chrome renders them as area
  // charts above the event lanes).
  if (obs::TraceRecorder* tr = obs_.trace()) {
    tr->counter("delivered_photos", now_, static_cast<double>(s.delivered_photos));
    tr->counter("bytes_transferred", now_, static_cast<double>(s.bytes_transferred));
    tr->counter("point_coverage", now_, s.point_coverage);
    tr->counter("aspect_coverage", now_, s.aspect_coverage);
  }
}

SimResult Simulator::run(Scheme& scheme) {
  PHOTODTN_CHECK_MSG(!ran_, "Simulator::run is single-shot; construct a new instance");
  ran_ = true;

  // A restored simulator already had scheme.init() run by persist::restore
  // (the scheme's loaded state would be clobbered by a second init).
  if (!restored_) scheme.init(*this);

  const auto& contacts = trace_->contacts();
  const auto& churn = faults_.transitions();

  auto next_event_time = [&]() {
    double t = trace_->horizon();
    if (ci_ < contacts.size()) t = std::min(t, contacts[ci_].start);
    if (pi_ < photo_events_.size()) t = std::min(t, photo_events_[pi_].time);
    if (fi_ < churn.size()) t = std::min(t, churn[fi_].time);
    return t;
  };

  while (ci_ < contacts.size() || pi_ < photo_events_.size() || fi_ < churn.size()) {
    // Iteration top = the checkpoint surface: every cursor names the *next*
    // event, so a snapshot here plus a resume replays the remaining trace
    // exactly. event_index_ counts completed iterations; the first firing
    // after a restore re-checkpoints the restored position (harmless — the
    // bytes are identical).
    if (checkpoint_hook_) checkpoint_hook_(event_index_);
    ++event_index_;
    const double t = next_event_time();
    while (next_sample_ <= t) {
      now_ = next_sample_;
      take_sample();
      next_sample_ += config_.sample_interval_s;
    }
    now_ = t;
    // Churn strictly before concurrent photos and contacts: a node down at
    // instant t misses the contact at t; one rebooting at t attends it.
    if (fi_ < churn.size() && churn[fi_].time <= t) {
      apply_churn(churn[fi_++], scheme);
      continue;
    }
    // Photo events strictly before concurrent contacts: a photo taken at the
    // instant of a contact is available to that contact.
    if (pi_ < photo_events_.size() && photo_events_[pi_].time <= t &&
        (ci_ >= contacts.size() || photo_events_[pi_].time <= contacts[ci_].start)) {
      const PhotoEvent& ev = photo_events_[pi_++];
      PHOTODTN_CHECK_MSG(ev.node > kCommandCenter && ev.node < num_nodes(),
                         "photo taken by unknown node");
      if (down_[static_cast<std::size_t>(ev.node)]) {
        bump(ids_.photos_missed_down);  // a crashed device takes no photos
        continue;
      }
      bump(ids_.photos_taken);
      emit(SimEvent::Type::kPhotoTaken, ev.node, -1, ev.photo.id);
      if (obs::TraceRecorder* tr = obs_.trace()) {
        tr->instant("capture", "photo", now_, ev.node,
                    {{"photo", static_cast<double>(ev.photo.id)}});
      }
      if (obs::ProvenanceRecorder* prov = obs_.prov()) {
        prov->record({.kind = obs::ProvEvent::Kind::kCapture,
                      .ts_s = now_,
                      .photo = static_cast<std::uint64_t>(ev.photo.id),
                      .node = static_cast<std::int32_t>(ev.node),
                      .bytes = ev.photo.size_bytes});
      }
      scheme.on_photo_taken(*this, ev.node, ev.photo);
      continue;
    }
    const std::size_t contact_index = ci_;
    const Contact& c = contacts[ci_++];
    if (down_[static_cast<std::size_t>(c.a)] || down_[static_cast<std::size_t>(c.b)]) {
      // Real absence: no rate/PROPHET update, no metadata, no payload — the
      // surviving peer does not even know the opportunity existed.
      bump(ids_.missed_contacts);
      continue;
    }
    bump(ids_.contacts);
    emit(SimEvent::Type::kContact, c.a, c.b, 0);
    Node& na = node(c.a);
    Node& nb = node(c.b);
    na.rates().record_contact(c.b, c.start);
    nb.rates().record_contact(c.a, c.start);
    ProphetTable::encounter(na.prophet(), nb.prophet(), c.start);

    const bool unlimited = config_.unlimited_bandwidth;
    // Faults are keyed by trace position, not processing order, so one
    // contact's plan never shifts because an earlier one was missed.
    const ContactFault cf =
        faults_.enabled() ? faults_.contact_fault(contact_index) : ContactFault{};
    const std::uint64_t budget =
        unlimited ? ~0ULL
                  : contact_payload_budget(config_.bandwidth_bytes_per_s, c.duration,
                                           config_.contact_setup_s, cf.bandwidth_factor);
    std::uint64_t cut = ContactSession::kNoCut;
    if (cf.interrupted) {
      // The cut is a fraction of the link's *physical* capacity (nominal
      // bandwidth x jittered rate x airtime) — an unlimited-budget oracle
      // still suffers it; radios fail regardless of accounting policy.
      const std::uint64_t capacity =
          contact_payload_budget(config_.bandwidth_bytes_per_s, c.duration,
                                 config_.contact_setup_s, cf.bandwidth_factor);
      const double scaled = cf.keep_fraction * static_cast<double>(capacity);
      cut = scaled >= static_cast<double>(capacity)
                ? capacity
                : static_cast<std::uint64_t>(scaled);
    }
    bump(ids_.gossip_losses, static_cast<std::uint64_t>(cf.gossip_lost_ab) +
                                 (cf.gossip_lost_ba ? 1u : 0u));
    ContactSession session(*this, c, budget, unlimited, cut, cf.gossip_lost_ab,
                           cf.gossip_lost_ba);
    scheme.on_contact(*this, session);
    if (obs_.metrics_on()) {
      obs_.registry().record(h_contact_bytes_, session.bytes_used());
    }
    if (obs::TraceRecorder* tr = obs_.trace()) {
      tr->complete("contact", "contact", c.start, c.duration, c.a,
                   {{"peer", static_cast<double>(c.b)},
                    {"bytes", static_cast<double>(session.bytes_used())},
                    {"budget", session.unlimited() ? -1.0
                                                   : static_cast<double>(budget)}});
    }
  }

  // Trailing samples up to and including the horizon.
  while (next_sample_ <= trace_->horizon() + 1e-9) {
    now_ = next_sample_;
    take_sample();
    next_sample_ += config_.sample_interval_s;
  }

  SimResult result;
  result.samples = std::move(samples_);
  result.final_coverage = cc_coverage_.total();
  result.final_point_norm = cc_coverage_.normalized_point();
  result.final_aspect_norm = cc_coverage_.normalized_aspect();
  result.delivered_photos = delivered_;
  result.delivered_ids = std::move(delivered_ids_);
  result.counters = read_counters();
  PHOTODTN_AUDIT(obs_.audit());
  if (obs_.metrics_on()) result.obs.metrics = obs_.registry().snapshot();
  if (const obs::TraceRecorder* tr = obs_.trace()) {
    result.obs.trace_events = tr->merged();
  }
  if (const obs::ProvenanceRecorder* prov = obs_.prov()) {
    result.obs.prov_events = prov->merged();
  }
  return result;
}

SimCounters Simulator::read_counters() const {
  const obs::MetricsRegistry& reg = obs_.registry();
  SimCounters c;
  c.contacts = reg.value(ids_.contacts);
  c.photos_taken = reg.value(ids_.photos_taken);
  c.transfers = reg.value(ids_.transfers);
  c.bytes_transferred = reg.value(ids_.bytes_transferred);
  c.failed_transfers = reg.value(ids_.failed_transfers);
  c.drops = reg.value(ids_.drops);
  c.interrupted_contacts = reg.value(ids_.interrupted_contacts);
  c.interrupted_transfers = reg.value(ids_.interrupted_transfers);
  c.partial_bytes = reg.value(ids_.partial_bytes);
  c.missed_contacts = reg.value(ids_.missed_contacts);
  c.node_crashes = reg.value(ids_.node_crashes);
  c.photos_lost_to_crash = reg.value(ids_.photos_lost_to_crash);
  c.photos_missed_down = reg.value(ids_.photos_missed_down);
  c.gossip_losses = reg.value(ids_.gossip_losses);
  return c;
}

}  // namespace photodtn
