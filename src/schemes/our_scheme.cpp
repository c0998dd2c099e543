#include "schemes/our_scheme.h"

#include <algorithm>
#include <optional>

#include "persist/state_access.h"
#include "schemes/common.h"
#include "util/check.h"

namespace photodtn {

namespace {

/// `ids` in ascending order, for binary-search membership tests.
std::vector<PhotoId> sorted_ids(std::vector<PhotoId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool holds(const std::vector<PhotoId>& sorted, PhotoId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

}  // namespace

OurScheme::OurScheme(OurSchemeConfig cfg) : cfg_(cfg), selector_(cfg.greedy) {}

std::unique_ptr<OurScheme> OurScheme::no_metadata() {
  OurSchemeConfig cfg;
  cfg.metadata_enabled = false;
  return std::make_unique<OurScheme>(cfg);
}

void OurScheme::init(SimContext& ctx) {
  hooks_ = ObsHooks{};
  last_totals_ = SelectionStats{};
  obs::Obs* o = ctx.obs();
  // The event log is independent of the metrics tier: resolve it before the
  // metrics early-return. The commit log stays off (zero per-commit cost)
  // unless the log keeps select commits (the provenance tier is on).
  log_ = o->log();
  selector_.enable_commit_log(
      log_ != nullptr && log_->keeps({.kind = obs::Event::Kind::kSelectCommit}));
  if (!o->metrics_on()) return;
  hooks_.obs = o;
  obs::MetricsRegistry& reg = o->registry();
  hooks_.gossip_records = reg.counter("scheme.gossip_records");
  hooks_.gossip_accepted = reg.counter("scheme.gossip_accepted");
  hooks_.cache_invalidations = reg.counter("scheme.cache_invalidations");
  hooks_.cache_updates = reg.counter("scheme.cache_updates");
  hooks_.engine_syncs = reg.counter("scheme.engine_syncs");
  hooks_.engine_loads = reg.counter("scheme.engine_loads");
  hooks_.engine_unloads = reg.counter("scheme.engine_unloads");
  hooks_.poi_rebuilds = reg.counter("scheme.poi_rebuilds");
  hooks_.gain_evals = reg.counter("selection.gain_evals");
  hooks_.reevals = reg.counter("selection.reevals");
  hooks_.commits = reg.counter("selection.commits");
  hooks_.pool_size =
      reg.histogram("selection.pool_size", obs::MetricsRegistry::exp_bounds(1, 2.0, 12));
  hooks_.gossip_per_contact = reg.histogram(
      "scheme.gossip_records_per_contact", obs::MetricsRegistry::exp_bounds(1, 4.0, 10));
}

void OurScheme::record_engine_rebuilds(NodeId viewer) {
  if (hooks_.obs == nullptr) return;
  const auto it = engines_.find(viewer);
  if (it == engines_.end()) return;
  EngineState& st = it->second;
  const std::uint64_t rb = st.env.rebuild_count();
  hooks_.obs->registry().add(hooks_.poi_rebuilds, rb - st.last_rebuilds);
  st.last_rebuilds = rb;
}

void OurScheme::record_selection_delta() {
  if (hooks_.obs == nullptr) return;
  const SelectionStats& t = selector_.totals();
  obs::MetricsRegistry& reg = hooks_.obs->registry();
  reg.add(hooks_.gain_evals, t.gain_evals - last_totals_.gain_evals);
  reg.add(hooks_.reevals, t.reevals - last_totals_.reevals);
  reg.add(hooks_.commits, t.commits - last_totals_.commits);
  last_totals_ = t;
}

void OurScheme::record_select_commit(double now, NodeId node, NodeId peer,
                                     const SelectCommit& c) {
  log_->record({.kind = obs::Event::Kind::kSelectCommit,
                .ts_s = now,
                .photo = c.id,
                .node = node,
                .peer = peer,
                .value = c.gain.point,
                .aux = c.gain.aspect});
}

void OurScheme::emit_select_commits(double now, NodeId node, NodeId peer) {
  if (log_ == nullptr) return;
  for (const SelectCommit& c : selector_.take_commit_log())
    record_select_commit(now, node, peer, c);
}

MetadataCache& OurScheme::cache(NodeId node) {
  auto it = caches_.find(node);
  if (it == caches_.end()) it = caches_.emplace(node, MetadataCache{cfg_.p_thld}).first;
  return it->second;
}

const MetadataCache& OurScheme::cache_of(NodeId node) const {
  const auto it = caches_.find(node);
  PHOTODTN_CHECK_MSG(it != caches_.end(), "no cache for node yet");
  return it->second;
}

void OurScheme::on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) {
  if (ctx.store_photo(node, photo)) return;
  // Buffer full. Keep the new photo only if it beats the weakest stored
  // photos by standalone coverage; the redundancy-aware reshuffle happens at
  // the next contact (Section III-D enforces storage at contacts — capture-
  // time policy is an engineering choice documented in DESIGN.md).
  const CoverageModel& model = ctx.model();
  const CoverageValue incoming = standalone_value(model, photo);
  if (incoming.is_zero()) return;  // irrelevant: never keep under pressure
  Node& n = ctx.node(node);
  std::vector<std::pair<CoverageValue, PhotoId>> ranked;
  ranked.reserve(n.store().size());
  for (const PhotoMeta* p : n.store().ordered())
    ranked.push_back({standalone_value(model, *p), p->id});
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::size_t i = 0;
  while (!n.store().can_fit(photo.size_bytes) && i < ranked.size() &&
         ranked[i].first < incoming) {
    ctx.drop_photo(node, ranked[i].second);
    ++i;
  }
  if (n.store().can_fit(photo.size_bytes)) ctx.store_photo(node, photo);
}

void OurScheme::on_node_down(SimContext& ctx, NodeId node, bool storage_wiped) {
  (void)ctx;
  if (!cfg_.metadata_enabled) return;
  // photodtn-lint: allow(unordered-iter): per-cache erase of one key, caches independent
  for (auto& [holder, c] : caches_) c.erase(node);
  // Holders' engines reconcile lazily: the erased entry is missing from the
  // valid entries on their next sync_engine, which unloads the collection.
  if (storage_wiped) {
    // The crashed node's own soft state is gone. clear() keeps its revision
    // counter monotone and the engine is dropped outright, so post-reboot
    // gossip can never stamp-match pre-crash engine contents.
    if (auto it = caches_.find(node); it != caches_.end()) it->second.clear();
    engines_.erase(node);
  }
}

MetadataEntry OurScheme::snapshot(SimContext& ctx, NodeId node, double now) const {
  Node& n = ctx.node(node);
  MetadataEntry e;
  e.owner = node;
  // Digested once here; every cache that accepts the entry and every engine
  // that loads it shares this record.
  e.snapshot =
      std::make_shared<const MetadataSnapshot>(sorted_photos(n.store()), ctx.model());
  e.observed_at = now;
  e.lambda = n.rates().aggregate_rate(now);
  e.delivery_prob = n.delivery_prob(now);
  return e;
}

void OurScheme::exchange_metadata(SimContext& ctx, NodeId a, NodeId b, double now,
                                  bool b_to_a, bool a_to_b) {
  (void)ctx;
  MetadataCache& ca = cache(a);
  MetadataCache& cb = cache(b);
  // Gossip cached third-party metadata both ways — unless the fault layer
  // lost a direction, leaving the caches stale and asymmetric (the scheme
  // carries on; eq. (1) bounds how long the staleness can mislead it). Then
  // drop entries eq. (1) invalidates. The parties' own fresh snapshots are
  // exchanged after the reallocation (on_contact), so caches reflect
  // post-contact collections.
  std::size_t accepted = 0;
  if (b_to_a) {
    const std::size_t acc = ca.merge_from(cb, a);
    accepted += acc;
    if (log_ != nullptr) {
      log_->record({.kind = obs::Event::Kind::kGossip,
                    .ts_s = now,
                    .node = a,
                    .peer = b,
                    .value = static_cast<double>(acc)});
    }
  }
  if (a_to_b) {
    const std::size_t acc = cb.merge_from(ca, b);
    accepted += acc;
    if (log_ != nullptr) {
      log_->record({.kind = obs::Event::Kind::kGossip,
                    .ts_s = now,
                    .node = b,
                    .peer = a,
                    .value = static_cast<double>(acc)});
    }
  }
  const std::size_t invalidated = ca.prune(now) + cb.prune(now);
  if (hooks_.obs != nullptr) {
    obs::MetricsRegistry& reg = hooks_.obs->registry();
    reg.add(hooks_.gossip_accepted, accepted);
    reg.add(hooks_.cache_invalidations, invalidated);
  }
}

SelectionEnvironment& OurScheme::sync_engine(SimContext& ctx, NodeId viewer,
                                             NodeId exclude_a, NodeId exclude_b,
                                             double now) {
  auto it = engines_.find(viewer);
  if (it == engines_.end()) it = engines_.try_emplace(viewer, ctx.model()).first;
  EngineState& st = it->second;
  if (hooks_.obs != nullptr) hooks_.obs->registry().add(hooks_.engine_syncs);

  // Desired contents: the viewer's validly cached collections, minus the
  // contact parties (they are live in the reallocation, not environment).
  std::vector<const MetadataEntry*>& want = valid_scratch_;
  want.clear();
  if (cfg_.metadata_enabled) {
    if (const auto cit = caches_.find(viewer); cit != caches_.end())
      cit->second.valid_entries(now, want);
  }

  // Both lists are sorted by owner, so one walk reconciles them. A loaded
  // collection whose entry disappeared (pruned or excluded) or was
  // restamped by a fresher snapshot is unloaded; one whose revision still
  // matches stays, with exactly its cached per-PoI factors. New and
  // refreshed entries load in owner order, so engine state never depends
  // on cache hash order. (Unloads interleave with loads here, but an unload
  // erases list entries in place and a load appends, so every PoI's cover
  // list ends up the same as unloading everything first.)
  const std::vector<std::pair<NodeId, std::uint64_t>>& loaded = st.loaded_revs;
  std::vector<std::pair<NodeId, std::uint64_t>>& kept = revs_scratch_;
  kept.clear();
  std::uint64_t unloads = 0;
  std::uint64_t loads = 0;
  std::size_t li = 0;
  auto unload_next = [&] {
    st.env.remove_collection(loaded[li++].first);
    ++unloads;
  };
  for (const MetadataEntry* e : want) {
    if (e->owner == exclude_a || e->owner == exclude_b) continue;
    while (li < loaded.size() && loaded[li].first < e->owner) unload_next();
    if (li < loaded.size() && loaded[li].first == e->owner) {
      if (loaded[li].second == e->revision) {
        kept.push_back(loaded[li++]);
        continue;
      }
      unload_next();
    }
    const double p = e->owner == kCommandCenter ? 1.0 : e->delivery_prob;
    const ArcDigest& digest = e->snapshot->digest;
    if (digest.empty() || p <= 0.0) continue;
    // Shares the snapshot's ownership: no arcs are copied.
    st.env.add_collection(e->owner, p,
                          std::shared_ptr<const ArcDigest>(e->snapshot, &digest));
    kept.emplace_back(e->owner, e->revision);
    ++loads;
  }
  while (li < loaded.size()) unload_next();
  st.loaded_revs.swap(kept);
  if (hooks_.obs != nullptr) {
    obs::MetricsRegistry& reg = hooks_.obs->registry();
    reg.add(hooks_.engine_unloads, unloads);
    reg.add(hooks_.engine_loads, loads);
  }
  PHOTODTN_AUDIT(st.env.audit());
  return st.env;
}

void OurScheme::on_contact(SimContext& ctx, ContactSession& session) {
  const double now = ctx.now();
  if (cfg_.metadata_enabled) {
    // Metadata is nearly free but not literally free: when the simulator
    // prices it, charge one record per photo in the snapshots and gossiped
    // cache entries before any payload moves.
    if (const std::uint64_t per_photo = ctx.config().metadata_bytes_per_photo;
        per_photo > 0 || hooks_.obs != nullptr) {
      std::uint64_t records = ctx.node(session.a()).store().size() +
                              ctx.node(session.b()).store().size();
      for (const NodeId n : {session.a(), session.b()})
        // photodtn-lint: allow(unordered-iter): commutative integer sum
        for (const auto& [owner, entry] : cache(n).entries())
          records += entry.snapshot->photos.size();
      if (per_photo > 0) session.consume(records * per_photo);
      if (hooks_.obs != nullptr) {
        obs::MetricsRegistry& reg = hooks_.obs->registry();
        reg.add(hooks_.gossip_records, records);
        reg.record(hooks_.gossip_per_contact, records);
      }
    }
    // A direction's gossip is lost when the fault layer dropped it — or when
    // the link died while the metadata itself was on the wire.
    exchange_metadata(ctx, session.a(), session.b(), now,
                      !session.severed() && !session.gossip_lost_from(session.b()),
                      !session.severed() && !session.gossip_lost_from(session.a()));
  }

  if (session.involves_command_center()) {
    contact_with_center(ctx, session);
  } else {
    contact_between_participants(ctx, session);
  }

  if (cfg_.metadata_enabled) {
    // Post-contact snapshots: each side leaves knowing the other's final
    // collection; a center snapshot doubles as the delivery acknowledgment.
    // A cut link (possibly severed mid-payload above) or a lost gossip
    // direction forfeits the closing snapshot too — the holder keeps
    // whatever stale view it had.
    std::size_t updates = 0;
    if (!session.severed() && !session.gossip_lost_from(session.b()))
      updates += cache(session.a()).update(snapshot(ctx, session.b(), now)) ? 1 : 0;
    if (!session.severed() && !session.gossip_lost_from(session.a()))
      updates += cache(session.b()).update(snapshot(ctx, session.a(), now)) ? 1 : 0;
    if (hooks_.obs != nullptr)
      hooks_.obs->registry().add(hooks_.cache_updates, updates);
  }
  record_selection_delta();
}

void OurScheme::contact_with_center(SimContext& ctx, ContactSession& session) {
  const double now = ctx.now();
  const NodeId part = session.peer(kCommandCenter);
  Node& center = ctx.node(kCommandCenter);
  Node& np = ctx.node(part);
  const CoverageModel& model = ctx.model();

  // The participant's persistent engine holds the cached third-party
  // collections; the center's *live* collection (not its cached snapshot)
  // joins for the duration of the contact and is removed before returning.
  SelectionEnvironment& senv = sync_engine(ctx, part, part, kCommandCenter, now);
  NodeCollection cc;
  cc.node = kCommandCenter;
  cc.delivery_prob = 1.0;
  // Id order, not hash order: footprint load order must not depend on the
  // store's hashing even though ArcSet unions are insertion-order-invariant.
  for (const PhotoMeta& p : center.store().photos()) {
    const PhotoFootprint& fp = model.footprint_cached(p);
    if (fp.relevant()) cc.footprints.push_back(&fp);
  }
  senv.add_collection(cc);

  // Phase 1 — the center (p = 1) selects which of the participant's photos
  // are worth delivering, against its own collection plus cached metadata.
  const std::vector<PhotoMeta> pool = sorted_photos(np.store());
  if (hooks_.obs != nullptr)
    hooks_.obs->registry().record(hooks_.pool_size, pool.size());
  std::vector<const PhotoFootprint*> delivered;
  {
    GreedyPhase phase(senv, 1.0, selector_.phase_buffers());
    const std::vector<PhotoId> to_deliver =
        selector_.select(model, pool, PhotoStore::kUnlimited, phase);
    emit_select_commits(now, kCommandCenter, part);
    for (const PhotoId id : to_deliver) {
      if (center.store().contains(id)) continue;
      if (!session.transfer(id, part, kCommandCenter, /*keep_source=*/true)) break;
      delivered.push_back(&model.footprint_cached(*center.store().find(id)));
    }
  }

  // Phase 2 — the participant reselects its own buffer against the updated
  // center collection (freshly delivered photos now have zero further value
  // and are evicted, freeing space). Purely local: no bandwidth needed. The
  // center never drops photos, so the deliveries extend its live collection
  // in place — only the PoIs they cover get rebuilt.
  senv.extend_collection(kCommandCenter, 1.0, delivered);
  {
    GreedyPhase phase(senv, std::max(np.delivery_prob(now), cfg_.greedy.p_floor),
                      selector_.phase_buffers());
    const std::vector<PhotoMeta> own_pool = sorted_photos(np.store());
    const std::vector<PhotoId> keep =
        selector_.select(model, own_pool, np.store().capacity_bytes(), phase);
    emit_select_commits(now, part, kCommandCenter);
    const std::vector<PhotoId> keep_ids = sorted_ids(keep);
    for (const PhotoMeta& p : own_pool)
      if (!holds(keep_ids, p.id)) ctx.drop_photo(part, p.id);
  }
  senv.remove_collection(kCommandCenter);
  record_engine_rebuilds(part);
  if (log_ != nullptr) {
    log_->record({.kind = obs::Event::Kind::kSelect,
                  .ts_s = now,
                  .node = part,
                  .peer = kCommandCenter,
                  .value = static_cast<double>(pool.size()),
                  .aux = static_cast<double>(delivered.size())});
  }
}

void OurScheme::contact_between_participants(SimContext& ctx, ContactSession& session) {
  const double now = ctx.now();
  const NodeId a = session.a();
  const NodeId b = session.b();
  Node& na = ctx.node(a);
  Node& nb = ctx.node(b);
  const CoverageModel& model = ctx.model();

  const double pa = na.delivery_prob(now);
  const double pb = nb.delivery_prob(now);
  const std::vector<PhotoMeta> pool = union_pool(na.store(), nb.store());
  if (pool.empty()) return;
  if (hooks_.obs != nullptr)
    hooks_.obs->registry().record(hooks_.pool_size, pool.size());
  SelectionEnvironment& env = sync_engine(ctx, a, a, b, now);

  const ReallocationPlan plan = selector_.reallocate(
      model, pool, a, pa, na.store().capacity_bytes(), b, pb,
      nb.store().capacity_bytes(), env);
  record_engine_rebuilds(a);
  if (log_ != nullptr) {
    // The commit log holds both phases back to back: the first
    // first_target.size() entries are the first node's commits.
    const std::vector<SelectCommit> commits = selector_.take_commit_log();
    const std::size_t nfirst = plan.first_target.size();
    for (std::size_t i = 0; i < commits.size(); ++i) {
      const bool in_first = i < nfirst;
      record_select_commit(now, in_first ? plan.first : plan.second,
                           in_first ? plan.second : plan.first, commits[i]);
    }
    log_->record({.kind = obs::Event::Kind::kReallocate,
                  .ts_s = now,
                  .node = a,
                  .peer = b,
                  .bytes = plan.second_target.size(),
                  .value = static_cast<double>(pool.size()),
                  .aux = static_cast<double>(plan.first_target.size())});
  }

  // The pool and both targets sorted by id, for the lookups below.
  std::vector<const PhotoMeta*> by_id;
  by_id.reserve(pool.size());
  for (const PhotoMeta& p : pool) by_id.push_back(&p);
  std::sort(by_id.begin(), by_id.end(),
            [](const PhotoMeta* x, const PhotoMeta* y) { return x->id < y->id; });
  const std::vector<PhotoId> first_ids = sorted_ids(plan.first_target);
  const std::vector<PhotoId> second_ids = sorted_ids(plan.second_target);

  const bool ok_first = realize_target(ctx, session, plan.first, plan.first_target,
                                       first_ids, second_ids, by_id);
  const bool ok_second =
      ok_first && realize_target(ctx, session, plan.second, plan.second_target,
                                 second_ids, first_ids, by_id);

  if (ok_first && ok_second) {
    // Untruncated: the collections become exactly the solution — pool photos
    // outside a node's target are dropped (this is where acknowledged and
    // redundant photos leave the network).
    auto drop_leftovers = [&](NodeId holder, const std::vector<PhotoId>& target_ids) {
      Node& h = ctx.node(holder);
      for (const PhotoMeta& p : pool)
        if (!holds(target_ids, p.id) && h.store().contains(p.id))
          ctx.drop_photo(holder, p.id);
    };
    drop_leftovers(plan.first, first_ids);
    drop_leftovers(plan.second, second_ids);
  }
}

bool OurScheme::realize_target(SimContext& ctx, ContactSession& session, NodeId holder,
                               const std::vector<PhotoId>& target,
                               const std::vector<PhotoId>& target_ids,
                               const std::vector<PhotoId>& peer_ids,
                               std::span<const PhotoMeta* const> pool_by_id) {
  Node& h = ctx.node(holder);
  const NodeId peer = session.peer(holder);
  Node& hp = ctx.node(peer);

  // Eviction preference when making room: (1) photos no plan wants,
  // (2) photos the peer's plan wants but the peer already holds, (3) photos
  // the peer's plan wants that only we hold (last resort — may lose them).
  auto pick_victim = [&]() -> std::optional<PhotoId> {
    std::optional<PhotoId> best;
    int best_rank = 4;
    CoverageValue best_value;
    // Strict-minimum selection over the total order (rank, value, id): the
    // id tie-break makes the winner unique, whatever the visit order.
    for (const PhotoMeta* p : h.store().ordered()) {
      const PhotoId id = p->id;
      if (holds(target_ids, id)) continue;
      int rank = 3;
      if (!holds(peer_ids, id)) {
        rank = 1;
      } else if (hp.store().contains(id)) {
        rank = 2;
      }
      const CoverageValue v = standalone_value(ctx.model(), *p);
      if (rank < best_rank || (rank == best_rank && v < best_value) ||
          (rank == best_rank && v == best_value && (!best || id < *best))) {
        best_rank = rank;
        best_value = v;
        best = id;
      }
    }
    return best;
  };

  for (const PhotoId id : target) {
    if (h.store().contains(id)) continue;
    // From the pool, not the peer's store: an earlier eviction may have
    // dropped the photo, and the failed transfer below must still happen.
    const auto it = std::lower_bound(
        pool_by_id.begin(), pool_by_id.end(), id,
        [](const PhotoMeta* p, PhotoId v) { return p->id < v; });
    PHOTODTN_CHECK_MSG(it != pool_by_id.end() && (*it)->id == id,
                       "target photo missing from the contact pool");
    const PhotoMeta& meta = **it;
    if (!session.can_transfer(meta.size_bytes)) return false;  // budget exhausted
    while (!h.store().can_fit(meta.size_bytes)) {
      const auto victim = pick_victim();
      if (!victim) return false;  // cannot make room
      ctx.drop_photo(holder, *victim);
    }
    if (!session.transfer(id, peer, holder, /*keep_source=*/true)) return false;
  }
  return true;
}

void OurScheme::save_persist_state(persist::StateWriter& w) const {
  using persist::StateAccess;
  StateAccess::save(w, selector_);
  StateAccess::save(w, last_totals_);
  const auto cache_nodes = StateAccess::sorted_keys(caches_);
  w.u64(cache_nodes.size());
  for (const NodeId node : cache_nodes) {
    w.i32(node);
    StateAccess::save(w, caches_.at(node));
  }
  const auto engine_nodes = StateAccess::sorted_keys(engines_);
  w.u64(engine_nodes.size());
  for (const NodeId node : engine_nodes) {
    const EngineState& es = engines_.at(node);
    w.i32(node);
    w.u64(es.last_rebuilds);
    w.u64(es.loaded_revs.size());
    for (const auto& [owner, revision] : es.loaded_revs) {
      w.i32(owner);
      w.u64(revision);
    }
    StateAccess::save(w, es.env);
  }
}

void OurScheme::load_persist_state(persist::StateReader& r, SimContext& ctx) {
  using persist::StateAccess;
  StateAccess::load(r, selector_);
  StateAccess::load(r, last_totals_);
  const std::size_t ncaches = r.count(28);
  caches_.clear();
  for (std::size_t i = 0; i < ncaches; ++i) {
    const NodeId node = r.i32();
    if (caches_.count(node) != 0) r.fail("duplicate metadata-cache node");
    StateAccess::load(r, cache(node), ctx.model());
  }
  const std::size_t nengines = r.count(28);
  engines_.clear();
  for (std::size_t i = 0; i < nengines; ++i) {
    const NodeId node = r.i32();
    if (engines_.count(node) != 0) r.fail("duplicate selection-engine node");
    EngineState& es =
        engines_.emplace(node, EngineState(ctx.model())).first->second;
    es.last_rebuilds = r.u64();
    const std::size_t owners = r.count(12);
    es.loaded_revs.reserve(owners);
    for (std::size_t k = 0; k < owners; ++k) {
      const NodeId owner = r.i32();
      if (k > 0 && owner == es.loaded_revs.back().first)
        r.fail("duplicate engine revision");
      if (k > 0 && owner < es.loaded_revs.back().first)
        r.fail("engine revisions not in owner order");
      es.loaded_revs.emplace_back(owner, r.u64());
    }
    StateAccess::load(r, es.env);
  }
}

}  // namespace photodtn
