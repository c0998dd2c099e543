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
  sim_.record({.kind = obs::Event::Kind::kLinkCut,
               .ts_s = sim_.now_,
               .photo = photo,
               .node = contact_.a,
               .peer = contact_.b});
  return remaining;
}

bool ContactSession::consume(std::uint64_t bytes) {
  if (severed_) return false;
  // The budget bounds what the wire can still carry; the cut may bound it
  // tighter. Charge only bytes that physically left an antenna.
  const std::uint64_t sendable = unlimited_ ? bytes : std::min(bytes, budget_);
  const std::uint64_t carried = wire_carry(sendable, 0);
  if (!unlimited_) budget_ -= carried;
  if (carried > 0) {
    sim_.record({.kind = obs::Event::Kind::kMetadataBytes,
                 .ts_s = sim_.now_,
                 .node = contact_.a,
                 .peer = contact_.b,
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
  // One kTransfer event per attempt, whatever the outcome: the attribution
  // pipeline buckets wasted bytes by these outcomes (the trace shows only
  // the completed ones).
  using Outcome = obs::Event::Outcome;
  const auto record_attempt = [&](Outcome outcome, std::uint64_t wire_bytes) {
    sim_.record({.kind = obs::Event::Kind::kTransfer,
                 .outcome = outcome,
                 .ts_s = sim_.now_,
                 .photo = photo,
                 .node = from,
                 .peer = to,
                 .bytes = wire_bytes});
  };
  if (meta == nullptr) {
    sim_.bump(sim_.ids_.failed_transfers);
    record_attempt(Outcome::kMissing, 0);
    return false;
  }
  if (dst.store().contains(photo)) {
    sim_.bump(sim_.ids_.failed_transfers);
    record_attempt(Outcome::kDuplicate, 0);
    return false;
  }
  const std::uint64_t bytes = meta->size_bytes;
  if (!can_transfer(bytes) || !dst.store().can_fit(bytes)) {
    sim_.bump(sim_.ids_.failed_transfers);
    record_attempt(can_transfer(bytes) ? Outcome::kNoSpace : Outcome::kNoBudget, 0);
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
    record_attempt(Outcome::kInterrupted, carried);
    return false;
  }
  const PhotoMeta copy = *meta;  // copy before any mutation invalidates `meta`
  const bool added = dst.store().add(copy);
  PHOTODTN_CHECK(added);
  sim_.bump(sim_.ids_.transfers);
  sim_.bump(sim_.ids_.bytes_transferred, bytes);
  record_attempt(Outcome::kOk, bytes);
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
    record({.kind = obs::Event::Kind::kDrop, .ts_s = now_, .photo = photo, .node = id});
  }
  return removed;
}

void Simulator::register_delivery(NodeId from, const PhotoMeta& photo) {
  ++delivered_;
  bump(ids_.delivered);
  delivered_ids_.push_back(photo.id);
  cc_coverage_.add(model_->footprint_cached(photo));
  record({.kind = obs::Event::Kind::kDelivery,
          .ts_s = now_,
          .photo = photo.id,
          .node = kCommandCenter,
          .peer = from,
          .bytes = photo.size_bytes});
}

void Simulator::apply_churn(const ChurnTransition& tr, Scheme& scheme) {
  char& d = down_[static_cast<std::size_t>(tr.node)];
  if (!tr.up) {
    PHOTODTN_DCHECK_MSG(d == 0, "down transition for an already-down node");
    d = 1;
    bump(ids_.node_crashes);
    Node& n = node(tr.node);
    record({.kind = tr.wipe ? obs::Event::Kind::kCrashWipe : obs::Event::Kind::kCrash,
            .ts_s = now_,
            .node = tr.node,
            .value = tr.wipe ? static_cast<double>(n.store().size()) : 0.0});
    if (tr.wipe) {
      bump(ids_.photos_lost_to_crash, n.store().size());
      n.store().clear();
      // Routing soft state dies with the flash: the reboot re-learns rates
      // and predictabilities from scratch (peers keep their view of us —
      // only real absence ages it, which is exactly the §III-B regime the
      // metadata-validity rule hedges against).
      n.prophet() = ProphetTable(config_.prophet, tr.node);
      n.rates() = RateEstimator(now_);
    }
    scheme.on_node_down(*this, tr.node, tr.wipe);
  } else {
    PHOTODTN_DCHECK_MSG(d == 1, "up transition for a node that is not down");
    d = 0;
    record({.kind = obs::Event::Kind::kReboot, .ts_s = now_, .node = tr.node});
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
  record({.kind = obs::Event::Kind::kSample,
          .ts_s = now_,
          .photo = s.delivered_photos,
          .bytes = s.bytes_transferred,
          .value = s.point_coverage,
          .aux = s.aspect_coverage});
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
      record({.kind = obs::Event::Kind::kCapture,
              .ts_s = now_,
              .photo = ev.photo.id,
              .node = ev.node,
              .bytes = ev.photo.size_bytes});
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
    // Stamped with now_, which is c.start unless the contact starts past
    // the horizon: the log's time never runs backwards.
    record({.kind = obs::Event::Kind::kContact,
            .ts_s = now_,
            .node = c.a,
            .peer = c.b,
            .bytes = session.bytes_used(),
            .value = session.unlimited() ? -1.0 : static_cast<double>(budget),
            .aux = c.duration});
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
  obs_.fill_views(result.obs);
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
