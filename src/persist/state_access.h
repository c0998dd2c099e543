// The snapshot codec's single privileged accessor (declared in persist/fwd.h,
// befriended by every state-bearing class). All checkpoint/restore field
// access funnels through the static methods here, so the serialization
// surface is greppable in one place and no class grows restore-only public
// mutators.
//
// Header-only on purpose: scheme translation units serialize their own
// private state (metadata caches, selection engines, spray counters) through
// these methods while linking only the low-level persist codec — the
// full-snapshot assembly (persist/snapshot.h) is the only code that needs
// the simulator-level methods.
//
// Determinism rules, enforced here:
//   * unordered containers serialize sorted by key (insertion order is an
//     implementation detail the output must not depend on);
//   * SelectionEnvironment cover lists serialize in *list order* — refresh()
//     folds floating-point miss products in that order, so preserving it is
//     what makes the rebuilt cached state bit-identical; a restored engine
//     owns digests rebuilt from those lists;
//   * ArcSet intervals restore verbatim (re-adding could renormalize with
//     different rounding), then audit.
//
// Failure rules: every load validates what the CRC cannot — semantic
// invariants like matching element counts, probabilities in range, monotone
// ids — and reports through StateReader::fail (SnapshotError). Deep audit()
// checks run at the end of each structured load.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dtn/simulator.h"
#include "geometry/arc_set.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/codec.h"
#include "routing/prophet.h"
#include "routing/rate_estimator.h"
#include "routing/spray_counter.h"
#include "selection/greedy_selector.h"
#include "selection/metadata_cache.h"
#include "selection/poi_cover.h"
#include "selection/selection_env.h"
#include "util/rng.h"

namespace photodtn::persist {

struct StateAccess {
  // ------------------------------------------------------------- primitives

  template <typename Map>
  static std::vector<typename Map::key_type> sorted_keys(const Map& m) {
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto& kv : m) keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  static void save(StateWriter& w, const Rng& rng) {
    for (const std::uint64_t word : rng.state_) w.u64(word);
  }
  static void load(StateReader& r, Rng& rng) {
    for (std::uint64_t& word : rng.state_) word = r.u64();
  }

  static void save(StateWriter& w, std::span<const ArcInterval> intervals) {
    w.u64(intervals.size());
    for (const auto& [lo, hi] : intervals) {
      w.f64(lo);
      w.f64(hi);
    }
  }
  static void load(StateReader& r, ArcSet& arcs) {
    const std::size_t n = r.count(16);
    arcs.intervals_.clear();
    arcs.intervals_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = r.f64();
      const double hi = r.f64();
      arcs.intervals_.emplace_back(lo, hi);
    }
    arcs.audit();  // canonical form: sorted, disjoint, normalized
  }

  static void save(StateWriter& w, const PhotoMeta& m) {
    w.u64(m.id);
    w.i32(m.taken_by);
    w.f64(m.location.x);
    w.f64(m.location.y);
    w.f64(m.range);
    w.f64(m.fov);
    w.f64(m.orientation);
    w.u64(m.size_bytes);
    w.f64(m.taken_at);
    w.f64(m.quality);
  }
  static void load(StateReader& r, PhotoMeta& m) {
    // Every real field must be finite: the stores order photos by taken_at,
    // and no audit would catch a NaN in a one-photo store.
    const auto finite = [&](const char* field) {
      const double v = r.f64();
      if (!std::isfinite(v)) r.fail(std::string("non-finite photo ") + field);
      return v;
    };
    m.id = r.u64();
    m.taken_by = r.i32();
    m.location.x = finite("location.x");
    m.location.y = finite("location.y");
    m.range = finite("range");
    m.fov = finite("fov");
    m.orientation = finite("orientation");
    m.size_bytes = r.u64();
    m.taken_at = finite("taken_at");
    m.quality = finite("quality");
  }

  // Capacity is reconstruction state (node config), not snapshot state: only
  // the stored photos serialize, sorted by id.
  static void save(StateWriter& w, const PhotoStore& store) {
    const std::vector<PhotoMeta> photos = store.photos();
    w.u64(photos.size());
    for (const PhotoMeta& m : photos) save(w, m);
  }
  static void load(StateReader& r, PhotoStore& store) {
    if (!store.empty()) r.fail("photo store not empty before restore");
    const std::size_t n = r.count(8);
    PhotoId prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      PhotoMeta m;
      load(r, m);
      if (i > 0 && m.id <= prev) r.fail("photo store ids not strictly increasing");
      prev = m.id;
      if (!store.add(m)) {
        r.fail("photo " + std::to_string(m.id) +
               " rejected by the store (duplicate or over capacity)");
      }
    }
    store.audit();
  }

  // Config and self id are reconstruction state; the aging clock and the
  // predictability table are the run state, written as (peer, value) pairs
  // in peer order.
  static void save(StateWriter& w, const ProphetTable& p) {
    w.f64(p.last_aged_);
    const auto entries = static_cast<std::size_t>(
        std::count(p.known_.begin(), p.known_.end(), std::uint8_t{1}));
    w.u64(entries);
    for (std::size_t peer = 0; peer < p.known_.size(); ++peer) {
      if (p.known_[peer] == 0) continue;
      w.i32(static_cast<NodeId>(peer));
      w.f64(p.p_[peer]);
    }
  }
  // A peer is a node id, checked against the node count before the table
  // grows to it.
  static void load(StateReader& r, ProphetTable& p, std::size_t node_count) {
    p.last_aged_ = r.f64();
    const std::size_t n = r.count(12);
    p.p_.clear();
    p.known_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId peer = r.i32();
      if (peer < 0 || static_cast<std::size_t>(peer) >= node_count) {
        r.fail("PROPHET peer " + std::to_string(peer) + " outside [0, " +
               std::to_string(node_count) + ")");
      }
      const auto at = static_cast<std::size_t>(peer);
      p.grow(at + 1);
      if (p.known_[at] != 0) r.fail("duplicate PROPHET peer entry");
      p.known_[at] = 1;
      p.p_[at] = r.f64();
    }
    p.audit();
  }

  static void save(StateWriter& w, const RateEstimator& e) {
    w.f64(e.start_);
    w.u64(e.total_);
    const auto peers = sorted_keys(e.counts_);
    w.u64(peers.size());
    for (const NodeId peer : peers) {
      w.i32(peer);
      w.u64(e.counts_.at(peer));
    }
  }
  static void load(StateReader& r, RateEstimator& e) {
    e.start_ = r.f64();
    e.total_ = r.u64();
    const std::size_t n = r.count(12);
    e.counts_.clear();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId peer = r.i32();
      if (e.counts_.count(peer) != 0) r.fail("duplicate rate-estimator peer");
      const std::uint64_t c = r.u64();
      if (c == 0) r.fail("zero-count rate-estimator entry");
      e.counts_[peer] = static_cast<std::size_t>(c);
      sum += c;
    }
    if (sum != e.total_) r.fail("rate-estimator total does not match per-peer sum");
  }

  static void save(StateWriter& w, const SprayCounter& c) {
    w.u32(c.initial_copies_);
    const auto photos = sorted_keys(c.copies_);
    w.u64(photos.size());
    for (const PhotoId id : photos) {
      w.u64(id);
      w.u32(c.copies_.at(id));
    }
  }
  static void load(StateReader& r, SprayCounter& c) {
    c.initial_copies_ = r.u32();
    const std::size_t n = r.count(12);
    c.copies_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const PhotoId id = r.u64();
      if (c.copies_.count(id) != 0) r.fail("duplicate spray-counter photo");
      const std::uint32_t copies = r.u32();
      if (copies == 0) r.fail("zero-copy spray-counter entry");
      c.copies_[id] = copies;
    }
  }

  static void save(StateWriter& w, const MetadataCache& c) {
    w.f64(c.p_thld_);
    w.u64(c.next_revision_);
    const auto owners = sorted_keys(c.entries_);
    w.u64(owners.size());
    for (const NodeId owner : owners) {
      const MetadataEntry& e = c.entries_.at(owner);
      w.i32(e.owner);
      w.f64(e.observed_at);
      w.f64(e.lambda);
      w.f64(e.delivery_prob);
      w.u64(e.revision);
      w.u64(e.snapshot->photos.size());
      for (const PhotoMeta& m : e.snapshot->photos) save(w, m);
    }
  }
  // Each restored entry gets a snapshot of its own, digested against
  // `model`; snapshots the checkpointed caches shared are not reunited.
  static void load(StateReader& r, MetadataCache& c, const CoverageModel& model) {
    c.p_thld_ = r.f64();
    c.next_revision_ = r.u64();
    const std::size_t n = r.count(36);
    c.entries_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      MetadataEntry e;
      e.owner = r.i32();
      e.observed_at = r.f64();
      e.lambda = r.f64();
      e.delivery_prob = r.f64();
      e.revision = r.u64();
      const std::size_t count = r.count(8);
      std::vector<PhotoMeta> photos(count);
      for (PhotoMeta& m : photos) load(r, m);
      if (c.entries_.count(e.owner) != 0) r.fail("duplicate metadata-cache owner");
      e.snapshot = std::make_shared<const MetadataSnapshot>(std::move(photos), model);
      c.entries_[e.owner] = std::move(e);
    }
    c.audit();
  }

  // Cover lists serialize in list order and the cached per-PoI factors are
  // *recomputed* through refresh() — a pure function of the ordered list —
  // rather than serialized, so the restored floating-point state is the
  // product of the same multiplications in the same order. A cover entry is
  // a view of its collection's arc digest; the registry saves each
  // collection's PoIs, and restore gathers every collection's saved
  // intervals back into a digest the engine owns.
  static void save(StateWriter& w, const SelectionEnvironment& env) {
    w.u64(env.rebuilds_);
    w.u64(env.covers_.size());
    for (std::size_t poi = 0; poi < env.covers_.size(); ++poi) {
      const auto& covers = env.covers_[poi];
      w.u64(covers.size());
      for (const CoverView& c : covers) {
        w.i32(c.node);
        w.f64(c.p);
        save(w, c.arcs);
      }
      w.boolean(env.dirty_[poi] != 0);
    }
    w.u64(env.loaded_.size());
    for (const SelectionEnvironment::Loaded& entry : env.loaded_) {
      const ArcDigest& digest = *entry.digest;
      w.i32(entry.node);
      w.f64(entry.delivery_prob);
      w.u64(digest.size());
      for (std::size_t k = 0; k < digest.size(); ++k) w.u64(digest.poi(k));
    }
  }
  static void load(StateReader& r, SelectionEnvironment& env) {
    const std::size_t pois = env.covers_.size();  // sized by the model at construction
    env.rebuilds_ = 0;
    const std::uint64_t saved_rebuilds = r.u64();
    if (r.u64() != pois) r.fail("selection environment PoI count mismatch");
    std::vector<std::vector<NodePoiCover>> saved(pois);
    for (std::size_t poi = 0; poi < pois; ++poi) {
      const std::size_t covers = r.count(12);
      saved[poi].resize(covers);
      for (NodePoiCover& c : saved[poi]) {
        c.node = r.i32();
        c.p = r.f64();
        load(r, c.arcs);
      }
      env.dirty_[poi] = r.boolean() ? 1 : 0;
    }
    const std::size_t nodes = r.count(12);
    env.loaded_.clear();
    env.loaded_.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      SelectionEnvironment::Loaded entry;
      entry.node = r.i32();
      if (i > 0 && entry.node == env.loaded_.back().node)
        r.fail("duplicate environment collection");
      if (i > 0 && entry.node < env.loaded_.back().node)
        r.fail("environment collections not in node order");
      entry.delivery_prob = r.f64();
      auto digest = std::make_shared<ArcDigest>();
      const std::size_t touched = r.count(8);
      for (std::size_t k = 0; k < touched; ++k) {
        const std::uint64_t poi = r.u64();
        if (poi >= pois) r.fail("environment touched-PoI index out of range");
        if (!digest->empty() && poi <= digest->poi(digest->size() - 1))
          r.fail("environment touched PoIs not ascending");
        const auto& list = saved[poi];
        const auto it =
            std::find_if(list.begin(), list.end(),
                         [&](const NodePoiCover& c) { return c.node == entry.node; });
        if (it == list.end()) r.fail("environment touched PoI has no cover for the node");
        digest->append(static_cast<std::size_t>(poi), it->arcs.intervals());
      }
      entry.digest = std::move(digest);
      env.loaded_.push_back(std::move(entry));
    }
    // The cover lists, in saved order, as views of the rebuilt digests.
    for (std::size_t poi = 0; poi < pois; ++poi) {
      env.covers_[poi].clear();
      env.covers_[poi].reserve(saved[poi].size());
      for (const NodePoiCover& c : saved[poi]) {
        const SelectionEnvironment::Loaded* entry = env.find_loaded(c.node);
        const std::size_t k = entry == nullptr ? 0 : entry->digest->find(poi);
        if (entry == nullptr || k == entry->digest->size())
          r.fail("environment cover entry of no loaded collection");
        env.covers_[poi].push_back(CoverView{c.node, c.p, entry->digest->arcs(k)});
      }
    }
    // Rebuild the cached factors of every clean PoI now (dirty ones rebuild
    // lazily, exactly as they would have mid-run), then pin the rebuild
    // counter back to the checkpointed reading — consumers diff it.
    for (std::size_t poi = 0; poi < pois; ++poi) {
      if (!env.dirty_[poi]) env.refresh(poi);
    }
    env.rebuilds_ = saved_rebuilds;
    env.audit();
  }

  static void save(StateWriter& w, const SelectionStats& s) {
    w.u64(s.gain_evals);
    w.u64(s.reevals);
    w.u64(s.commits);
  }
  static void load(StateReader& r, SelectionStats& s) {
    s.gain_evals = r.u64();
    s.reevals = r.u64();
    s.commits = r.u64();
  }

  static void save(StateWriter& w, const GreedySelector& sel) {
    save(w, sel.stats_);
    save(w, sel.totals_);
  }
  static void load(StateReader& r, GreedySelector& sel) {
    load(r, sel.stats_);
    load(r, sel.totals_);
  }

  // ---------------------------------------------------------- observability

  static void save(StateWriter& w, const obs::MetricsRegistry& reg) {
    // Serialize by sorted name: handle indices depend on registration order,
    // which restore does not replay.
    auto sorted_index = [](const std::vector<std::string>& names) {
      std::vector<std::size_t> idx(names.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return names[a] < names[b];
      });
      return idx;
    };
    const auto cidx = sorted_index(reg.counter_names_);
    w.u64(cidx.size());
    for (const std::size_t i : cidx) {
      w.str(reg.counter_names_[i]);
      w.u64(reg.counter_values_[i]);
    }
    const auto hidx = sorted_index(reg.histogram_names_);
    w.u64(hidx.size());
    for (const std::size_t i : hidx) {
      const auto& h = reg.histograms_[i];
      w.str(reg.histogram_names_[i]);
      w.u64(h.bounds.size());
      for (const std::uint64_t b : h.bounds) w.u64(b);
      w.u64(h.counts.size());
      for (const std::uint64_t c : h.counts) w.u64(c);
      w.u64(h.count);
      w.u64(h.sum);
      w.u64(h.min);
      w.u64(h.max);
    }
  }
  static void load(StateReader& r, obs::MetricsRegistry& reg) {
    // Find-or-create by name, then write the value through the handle: names
    // already registered (simulator ctor, scheme init) are updated in place,
    // snapshot-only names register fresh.
    const std::size_t counters = r.count(12);
    for (std::size_t i = 0; i < counters; ++i) {
      const std::string name = r.str();
      if (name.empty()) r.fail("empty counter name");
      const std::uint64_t value = r.u64();
      reg.counter_values_[reg.counter(name).idx] = value;
    }
    const std::size_t histograms = r.count(28);
    for (std::size_t i = 0; i < histograms; ++i) {
      const std::string name = r.str();
      if (name.empty()) r.fail("empty histogram name");
      const std::size_t nbounds = r.count(8);
      std::vector<std::uint64_t> bounds;
      bounds.reserve(nbounds);
      for (std::size_t k = 0; k < nbounds; ++k) bounds.push_back(r.u64());
      const std::size_t ncounts = r.count(8);
      if (ncounts != nbounds + 1) r.fail("histogram bucket count mismatch");
      obs::HistogramSnapshot st;
      st.bounds = bounds;
      st.counts.reserve(ncounts);
      for (std::size_t k = 0; k < ncounts; ++k) st.counts.push_back(r.u64());
      st.count = r.u64();
      st.sum = r.u64();
      st.min = r.u64();
      st.max = r.u64();
      // histogram() validates the bounds (and bounds-equality when the name
      // was pre-registered); bad bounds throw logic_error, which the restore
      // wrapper converts to SnapshotError.
      const auto h = reg.histogram(name, std::move(bounds));
      reg.histograms_[h.idx] = std::move(st);
    }
    reg.audit();
  }

  // One fixed-width record per event, in emission order.
  static void save(StateWriter& w, const obs::EventLog& log) {
    w.u64(log.events_.size());
    for (const obs::Event& ev : log.events_) {
      w.u8(static_cast<std::uint8_t>(ev.kind));
      w.u8(static_cast<std::uint8_t>(ev.outcome));
      w.f64(ev.ts_s);
      w.u64(ev.photo);
      w.i32(ev.node);
      w.i32(ev.peer);
      w.u64(ev.bytes);
      w.f64(ev.value);
      w.f64(ev.aux);
    }
  }
  static void load(StateReader& r, obs::EventLog& log) {
    const std::size_t n = r.count(50);
    std::vector<obs::Event> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      obs::Event ev;
      const std::uint8_t kind = r.u8();
      if (kind > obs::Event::kMaxKind) r.fail("event kind out of range");
      ev.kind = static_cast<obs::Event::Kind>(kind);
      const std::uint8_t outcome = r.u8();
      if (outcome > obs::Event::kMaxOutcome) r.fail("event outcome out of range");
      ev.outcome = static_cast<obs::Event::Outcome>(outcome);
      ev.ts_s = r.f64();
      ev.photo = r.u64();
      ev.node = r.i32();
      ev.peer = r.i32();
      ev.bytes = r.u64();
      ev.value = r.f64();
      ev.aux = r.f64();
      if (!std::isfinite(ev.ts_s) || !std::isfinite(ev.value) || !std::isfinite(ev.aux))
        r.fail("non-finite event payload");
      if (!events.empty() && ev.ts_s < events.back().ts_s) r.fail("event timestamps decrease");
      if (!log.keeps(ev)) r.fail("event shown by no tier this run records");
      events.push_back(ev);
    }
    log.events_ = std::move(events);
    log.audit();
  }

  // ----------------------------------------------------------- simulator

  static void save_sim(StateWriter& w, Simulator& sim) {
    w.u64(sim.event_index_);
    w.f64(sim.now_);
    w.u64(sim.ci_);
    w.u64(sim.pi_);
    w.u64(sim.fi_);
    w.f64(sim.next_sample_);
    save(w, sim.rng_);
    w.u64(sim.down_.size());
    for (const char d : sim.down_) w.boolean(d != 0);
    w.u64(sim.delivered_);
    w.u64(sim.delivered_ids_.size());
    for (const PhotoId id : sim.delivered_ids_) w.u64(id);
    w.u64(sim.samples_.size());
    for (const SimSample& s : sim.samples_) {
      w.f64(s.time);
      w.f64(s.point_coverage);
      w.f64(s.aspect_coverage);
      w.f64(s.full_view_coverage);
      w.u64(s.delivered_photos);
      w.u64(s.bytes_transferred);
    }
  }
  static void load_sim(StateReader& r, Simulator& sim) {
    sim.event_index_ = r.u64();
    sim.now_ = r.f64();
    sim.ci_ = static_cast<std::size_t>(r.u64());
    sim.pi_ = static_cast<std::size_t>(r.u64());
    sim.fi_ = static_cast<std::size_t>(r.u64());
    sim.next_sample_ = r.f64();
    load(r, sim.rng_);
    if (sim.ci_ > sim.trace_->contacts().size()) r.fail("contact cursor out of range");
    if (sim.pi_ > sim.photo_events_.size()) r.fail("photo cursor out of range");
    if (sim.fi_ > sim.faults_.transitions().size()) r.fail("churn cursor out of range");
    const std::size_t down = r.count(1);
    if (down != sim.down_.size()) r.fail("node count mismatch in down flags");
    for (std::size_t i = 0; i < down; ++i) sim.down_[i] = r.boolean() ? 1 : 0;
    sim.delivered_ = r.u64();
    const std::size_t ids = r.count(8);
    if (ids != sim.delivered_) r.fail("delivered count does not match id list");
    sim.delivered_ids_.clear();
    sim.delivered_ids_.reserve(ids);
    for (std::size_t i = 0; i < ids; ++i) sim.delivered_ids_.push_back(r.u64());
    const std::size_t samples = r.count(48);
    sim.samples_.clear();
    sim.samples_.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      SimSample s;
      s.time = r.f64();
      s.point_coverage = r.f64();
      s.aspect_coverage = r.f64();
      s.full_view_coverage = r.f64();
      s.delivered_photos = r.u64();
      s.bytes_transferred = r.u64();
      sim.samples_.push_back(s);
    }
  }

  static void save_nodes(StateWriter& w, Simulator& sim) {
    w.u64(sim.nodes_.size());
    for (const Node& n : sim.nodes_) {
      save(w, n.store());
      save(w, n.prophet());
      save(w, n.rates());
    }
  }
  static void load_nodes(StateReader& r, Simulator& sim) {
    const std::size_t n = r.count(24);
    if (n != sim.nodes_.size()) r.fail("node count mismatch");
    for (Node& node : sim.nodes_) {
      load(r, node.store());
      load(r, node.prophet(), sim.nodes_.size());
      load(r, node.rates());
    }
  }

  static void save_obs(StateWriter& w, Simulator& sim) {
    save(w, sim.obs_.registry());
  }
  static void load_obs(StateReader& r, Simulator& sim) {
    load(r, sim.obs_.registry());
  }
  static void save_events(StateWriter& w, Simulator& sim) {
    save(w, sim.obs_.log_);
  }
  static void load_events(StateReader& r, Simulator& sim) {
    load(r, sim.obs_.log_);
    // The resumed run records from now_ on, so nothing may come later.
    const std::span<const obs::Event> events = sim.obs_.log_.events();
    if (!events.empty() && events.back().ts_s > sim.now_)
      r.fail("event log runs past the simulation clock");
  }

  /// Replays the delivered-id list against the restored command-center store
  /// to rebuild the coverage map in original delivery order — the same adds
  /// in the same order produce the same floating-point accumulation.
  static void rebuild_cc_coverage(Simulator& sim) {
    const Node& center = sim.nodes_.at(0);
    for (const PhotoId id : sim.delivered_ids_) {
      const PhotoMeta* meta = center.store().find(id);
      if (meta == nullptr) {
        throw SnapshotError("snapshot: delivered photo " + std::to_string(id) +
                            " missing from the command-center store");
      }
      sim.cc_coverage_.add(sim.model_->footprint_cached(*meta));
    }
  }

  static bool has_run(const Simulator& sim) { return sim.ran_; }
  static void mark_restored(Simulator& sim) { sim.restored_ = true; }
  static std::uint64_t sim_event_index(const Simulator& sim) {
    return sim.event_index_;
  }

  /// The scenario identity a snapshot is only valid against: everything that
  /// shapes the event sequence. Serialized canonically and CRC'd into the
  /// META fingerprint; a restore against a different scenario/config fails
  /// fast with a diagnostic instead of deep in an audit.
  static void write_fingerprint_basis(StateWriter& w, Simulator& sim) {
    w.i32(sim.trace_->num_nodes());
    w.f64(sim.trace_->horizon());
    w.u64(sim.trace_->contacts().size());
    w.u64(sim.photo_events_.size());
    w.u64(sim.faults_.transitions().size());
    w.u64(sim.config_.seed);
    w.u64(sim.config_.node_storage_bytes);
    w.f64(sim.config_.bandwidth_bytes_per_s);
    w.boolean(sim.config_.unlimited_bandwidth);
    w.boolean(sim.config_.unlimited_storage);
    w.f64(sim.config_.contact_setup_s);
    w.u64(sim.config_.metadata_bytes_per_photo);
    w.f64(sim.config_.sample_interval_s);
    w.u64(sim.model_->pois().size());
    w.boolean(sim.obs_.cfg_.metrics);
    w.boolean(sim.obs_.cfg_.trace);
    w.boolean(sim.obs_.cfg_.provenance);
  }
};

}  // namespace photodtn::persist
