#include "selection/selection_env.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geometry/angle.h"
#include "util/check.h"
#include "util/prob.h"

namespace photodtn {

// ------------------------------------------------------------ PiecewiseMiss

namespace {
// The sweep keeps its running product inside [2^-500, 2^500] by exact
// power-of-two rescales, so hundreds of small factors never underflow it.
constexpr int kRescaleBits = 500;
constexpr double kRescaleLow = 0x1p-500;
constexpr double kRescaleHigh = 0x1p500;
}  // namespace

void PiecewiseMiss::rebuild(std::span<const CoverView> covers,
                            const AspectProfile* profile, Scratch& scratch) {
  const bool weighted = profile != nullptr && !profile->is_uniform();
  // Every cover's boundaries, then the profile's breakpoints. Covers often
  // share boundaries (gossip spreads the same photos), so the cuts are
  // deduplicated in scratch and cuts_ keeps only the distinct ones.
  std::vector<double>& cuts = scratch.cuts;
  cuts.clear();
  for (const CoverView& c : covers) append_arc_boundaries(c.arcs, cuts);
  if (weighted)
    cuts.insert(cuts.end(), profile->breakpoints().begin(), profile->breakpoints().end());

  if (cuts.empty()) {
    // Either nothing covers this PoI (constant 1) or some set is the full
    // circle (constant product); the profile is uniform here, since a
    // non-uniform one always contributes breakpoints.
    double miss = 1.0;
    for (const CoverView& c : covers)
      if (arcs_full(c.arcs)) miss *= 1.0 - c.p;
    constant_ = miss;
    cuts_.clear();
    vals_.clear();
    weights_.clear();
    rates_.clear();
    prefix_.clear();
    return;
  }
  constant_ = 1.0;

  cuts.push_back(0.0);
  std::sort(cuts.begin(), cuts.end());
  cuts_.assign(cuts.begin(), std::unique(cuts.begin(), cuts.end()));

  // Sweep the circle once: each cover interval opens at its start and
  // closes at its end; the running product of active (1 - p) factors is the
  // segment value. A zero factor (p = 1, the command center) is tracked as
  // a count so closing it never divides by zero. The events are pushed and
  // sorted in a fixed order, so equal angles always apply in the same order
  // and the product is the same bits on every rebuild.
  std::vector<Scratch::Event>& events = scratch.events;
  events.clear();
  for (const CoverView& c : covers) {
    const double f = 1.0 - c.p;
    for (const auto& [s, e] : c.arcs) {
      events.push_back({s, f, true});
      if (e < kTwoPi) events.push_back({e, f, false});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Scratch::Event& x, const Scratch::Event& y) {
              return x.angle < y.angle;
            });

  const std::size_t n = cuts_.size();
  vals_.resize(n);
  if (weighted) {
    weights_.resize(n);
  } else {
    weights_.clear();
  }
  rates_.resize(n);
  prefix_.resize(n + 1);
  prefix_[0] = 0.0;
  // The env value is product * 2^-scale. Power-of-two scaling is exact for
  // normal doubles, so a product that never leaves the normal range yields
  // the bits an unscaled product would.
  double product = 1.0;
  int scale = 0;
  int zeros = 0;
  std::size_t next_event = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double lo = cuts_[k];
    const double hi = (k + 1 < n) ? cuts_[k + 1] : kTwoPi;
    // Interval endpoints are a subset of the cuts (up to the boundary
    // dedup epsilon, whose slivers the old midpoint sampling misclassified
    // the same way); apply everything up to and including this cut.
    while (next_event < events.size() && events[next_event].angle <= lo) {
      const Scratch::Event& ev = events[next_event++];
      if (ev.factor == 0.0) {
        zeros += ev.open ? 1 : -1;
        continue;
      }
      if (ev.open) {
        product *= ev.factor;
      } else {
        product /= ev.factor;
      }
      if (product < kRescaleLow) {
        product = std::ldexp(product, kRescaleBits);
        scale += kRescaleBits;
      } else if (product > kRescaleHigh) {
        product = std::ldexp(product, -kRescaleBits);
        scale -= kRescaleBits;
      }
    }
    vals_[k] = zeros > 0 ? 0.0 : (scale == 0 ? product : std::ldexp(product, -scale));
    if (weighted) weights_[k] = profile->weight_at(normalize_angle(lo + (hi - lo) / 2.0));
    // Fused rate array: rate(k) on the integration hot path reads one dense
    // double instead of re-multiplying value by weight per probe.
    rates_[k] = vals_[k] * (weighted ? weights_[k] : 1.0);
    prefix_[k + 1] = prefix_[k] + rates_[k] * (hi - lo);
  }
}

std::size_t PiecewiseMiss::segment_of(double a) const noexcept {
  // cuts_[0] == 0 <= a, so the segment is the last cut at or below a; a ==
  // 2*pi (an integral's hi end) lands in the final segment.
  return static_cast<std::size_t>(
             std::upper_bound(cuts_.begin(), cuts_.end(), a) - cuts_.begin()) -
         1;
}

double PiecewiseMiss::value_at(double angle) const noexcept {
  if (cuts_.empty()) return constant_;
  return vals_[segment_of(normalize_angle(angle))];
}

double PiecewiseMiss::integral(double lo, double hi) const noexcept {
  if (hi <= lo) return 0.0;
  if (cuts_.empty()) return constant_ * (hi - lo);
  const std::size_t a = segment_of(lo);
  const std::size_t b = segment_of(hi);  // hi == 2*pi lands in the last segment
  if (a == b) return rate(a) * (hi - lo);
  double total = rate(a) * (cuts_[a + 1] - lo);
  total += prefix_[b] - prefix_[a + 1];
  total += rate(b) * (hi - cuts_[b]);
  return total;
}

double PiecewiseMiss::integrate_excluding(double lo, double hi,
                                          const ArcSet& exclude) const {
  PHOTODTN_CHECK(lo >= -1e-12 && hi <= kTwoPi + 1e-12 && lo <= hi + 1e-12);
  lo = std::max(lo, 0.0);
  hi = std::min(hi, kTwoPi);
  if (hi <= lo) return 0.0;
  double total = integral(lo, hi);
  // Subtract the excluded intervals' weighted mass. Intervals are disjoint
  // and sorted, so both starts and ends are sorted: binary-search the first
  // interval ending after lo and walk while intervals start before hi.
  const auto& iv = exclude.intervals();
  auto it = std::lower_bound(
      iv.begin(), iv.end(), lo,
      [](const ArcInterval& seg, double v) { return seg.second <= v; });
  for (; it != iv.end() && it->first < hi; ++it)
    total -= integral(std::max(lo, it->first), std::min(hi, it->second));
  return std::max(0.0, total);
}

double PiecewiseMiss::full_integral() const noexcept {
  if (cuts_.empty()) return constant_ * kTwoPi;
  return prefix_.back();
}

void PiecewiseMiss::audit() const {
  PHOTODTN_CHECK_MSG(std::isfinite(constant_) && constant_ >= 0.0 && constant_ <= 1.0,
                     "PiecewiseMiss constant must be a probability");
  if (cuts_.empty()) {
    PHOTODTN_CHECK_MSG(vals_.empty() && weights_.empty() && rates_.empty() &&
                           prefix_.empty(),
                       "constant PiecewiseMiss must carry no segments");
    return;
  }
  PHOTODTN_CHECK_MSG(cuts_.front() == 0.0, "PiecewiseMiss cuts must start at 0");
  PHOTODTN_CHECK_MSG(vals_.size() == cuts_.size() &&
                         rates_.size() == cuts_.size() &&
                         prefix_.size() == cuts_.size() + 1 &&
                         (weights_.empty() || weights_.size() == cuts_.size()),
                     "PiecewiseMiss parallel arrays must agree in size");
  for (std::size_t k = 0; k < cuts_.size(); ++k) {
    PHOTODTN_CHECK_MSG(cuts_[k] >= 0.0 && cuts_[k] < kTwoPi,
                       "PiecewiseMiss cut outside [0, 2*pi)");
    if (k > 0)
      PHOTODTN_CHECK_MSG(cuts_[k - 1] < cuts_[k], "PiecewiseMiss cuts must ascend");
    // The sweep's multiply/divide bookkeeping may leave ~ulp dust just
    // outside [0, 1]; anything beyond that is a real invariant break.
    PHOTODTN_CHECK_MSG(std::isfinite(vals_[k]) && vals_[k] >= -1e-12 &&
                           vals_[k] <= 1.0 + 1e-9,
                       "PiecewiseMiss value must be a probability");
    if (!weights_.empty())
      PHOTODTN_CHECK_MSG(std::isfinite(weights_[k]) && weights_[k] >= 0.0,
                         "PiecewiseMiss weight must be non-negative");
    PHOTODTN_CHECK_MSG(
        rates_[k] == vals_[k] * (weights_.empty() ? 1.0 : weights_[k]),
        "fused rate out of sync with value * weight");
    const double hi = (k + 1 < cuts_.size()) ? cuts_[k + 1] : kTwoPi;
    const double expect = prefix_[k] + rate(k) * (hi - cuts_[k]);
    PHOTODTN_CHECK_MSG(std::fabs(prefix_[k + 1] - expect) <=
                           1e-9 * std::max(1.0, std::fabs(expect)),
                       "PiecewiseMiss prefix sums inconsistent with rates");
  }
}

// ----------------------------------------------------- SelectionEnvironment

SelectionEnvironment::SelectionEnvironment(const CoverageModel& model)
    : model_(&model),
      covers_(model.pois().size()),
      pt_miss_(model.pois().size(), 1.0),
      miss_(model.pois().size()),
      dirty_(model.pois().size(), 1) {}

SelectionEnvironment::SelectionEnvironment(const CoverageModel& model,
                                           std::span<const NodeCollection> others)
    : SelectionEnvironment(model) {
  for (const NodeCollection& nc : others) add_collection(nc);
}

auto SelectionEnvironment::slot_of(NodeId node) const noexcept
    -> std::vector<Loaded>::const_iterator {
  return std::lower_bound(loaded_.begin(), loaded_.end(), node,
                          [](const Loaded& l, NodeId n) { return l.node < n; });
}

const SelectionEnvironment::Loaded* SelectionEnvironment::find_loaded(
    NodeId node) const noexcept {
  const auto it = slot_of(node);
  return it != loaded_.end() && it->node == node ? &*it : nullptr;
}

void SelectionEnvironment::add_collection(NodeId node, double delivery_prob,
                                          std::shared_ptr<const ArcDigest> digest) {
  PHOTODTN_CHECK_MSG(!has_collection(node),
                     "environment already holds this node's collection");
  PHOTODTN_CHECK_MSG(is_probability(delivery_prob),
                     "collection delivery probability must be in [0, 1]");
  PHOTODTN_CHECK_MSG(digest != nullptr, "a loaded collection needs its arc digest");
  PHOTODTN_CHECK_MSG(digest->empty() || digest->poi(digest->size() - 1) < covers_.size(),
                     "arc digest covers a PoI outside the model");
  // One cover entry per covered PoI, a view of the digest's intervals.
  for (std::size_t k = 0; k < digest->size(); ++k) {
    const std::size_t poi = digest->poi(k);
    covers_[poi].push_back(CoverView{node, delivery_prob, digest->arcs(k)});
    dirty_[poi] = 1;
  }
  loaded_.insert(slot_of(node), Loaded{node, delivery_prob, std::move(digest)});
}

void SelectionEnvironment::add_collection(const NodeCollection& collection) {
  add_collection(collection.node, collection.delivery_prob,
                 std::make_shared<const ArcDigest>(collection.footprints));
}

void SelectionEnvironment::extend_collection(
    NodeId node, double delivery_prob, std::span<const PhotoFootprint* const> extra) {
  const Loaded* found = find_loaded(node);
  if (found == nullptr) {
    NodeCollection nc;
    nc.node = node;
    nc.delivery_prob = delivery_prob;
    nc.footprints.assign(extra.begin(), extra.end());
    add_collection(nc);
    return;
  }
  Loaded& entry = loaded_[static_cast<std::size_t>(found - loaded_.data())];
  PHOTODTN_CHECK_MSG(entry.delivery_prob == delivery_prob,
                     "extend_collection must keep the delivery probability");
  const ArcDigest added(extra);
  if (added.empty()) return;
  // The grown digest merges the two ascending PoI lists: a PoI only one
  // side covers keeps that side's intervals, a PoI both cover gets their
  // union. The old digest is never written — another engine may share it.
  const ArcDigest& old = *entry.digest;
  auto grown = std::make_shared<ArcDigest>();
  ArcSet merged;
  std::size_t i = 0;
  for (std::size_t j = 0; j < added.size(); ++j) {
    const std::size_t poi = added.poi(j);
    for (; i < old.size() && old.poi(i) < poi; ++i)
      grown->append(old.poi(i), old.arcs(i));
    if (i < old.size() && old.poi(i) == poi) {
      merged.assign(old.arcs(i));
      merged.unite(added.arcs(j));
      // Unchanged intervals: nothing new on this PoI.
      if (!std::ranges::equal(merged.intervals(), old.arcs(i))) dirty_[poi] = 1;
      grown->append(poi, merged.intervals());
      ++i;
    } else {
      grown->append(poi, added.arcs(j));
      dirty_[poi] = 1;
    }
  }
  for (; i < old.size(); ++i) grown->append(old.poi(i), old.arcs(i));
  // Point the node's cover entries at the grown digest, each in its place
  // in its PoI's list; PoIs the node newly covers get an entry at the end.
  for (std::size_t k = 0; k < grown->size(); ++k) {
    std::vector<CoverView>& covers = covers_[grown->poi(k)];
    const auto cover = std::find_if(covers.begin(), covers.end(),
                                    [&](const CoverView& c) { return c.node == node; });
    if (cover == covers.end()) {
      covers.push_back(CoverView{node, delivery_prob, grown->arcs(k)});
    } else {
      cover->arcs = grown->arcs(k);
    }
  }
  entry.digest = std::move(grown);
}

bool SelectionEnvironment::remove_collection(NodeId node) {
  const Loaded* found = find_loaded(node);
  if (found == nullptr) return false;
  const ArcDigest& digest = *found->digest;
  for (std::size_t k = 0; k < digest.size(); ++k) {
    const std::size_t poi = digest.poi(k);
    std::vector<CoverView>& covers = covers_[poi];
    const auto cover = std::find_if(covers.begin(), covers.end(),
                                    [&](const CoverView& c) { return c.node == node; });
    PHOTODTN_CHECK_MSG(cover != covers.end(),
                       "environment cover list out of sync with registry");
    covers.erase(cover);
    dirty_[poi] = 1;
  }
  loaded_.erase(loaded_.begin() + (found - loaded_.data()));
  return true;
}

void SelectionEnvironment::refresh(std::size_t poi) const {
  ++rebuilds_;
  double miss = 1.0;
  for (const CoverView& c : covers_[poi]) miss *= 1.0 - c.p;
  pt_miss_[poi] = miss;
  miss_[poi].rebuild(covers_[poi], model_->pois()[poi].profile(), rebuild_scratch_);
  dirty_[poi] = 0;
  PHOTODTN_AUDIT(miss_[poi].audit());
}

double SelectionEnvironment::point_miss(std::size_t poi) const {
  if (dirty_.at(poi)) refresh(poi);
  return pt_miss_[poi];
}

const PiecewiseMiss& SelectionEnvironment::aspect_miss(std::size_t poi) const {
  if (dirty_.at(poi)) refresh(poi);
  return miss_[poi];
}

CoverageValue SelectionEnvironment::total() const {
  CoverageValue out;
  for (std::size_t poi = 0; poi < dirty_.size(); ++poi) {
    if (dirty_[poi]) refresh(poi);
    const PointOfInterest& p = model_->pois()[poi];
    const double w_max =
        p.profile() != nullptr && !p.profile()->is_uniform() ? p.profile()->total()
                                                             : kTwoPi;
    out.point += p.weight * (1.0 - pt_miss_[poi]);
    out.aspect += p.weight * (w_max - miss_[poi].full_integral());
  }
  return out;
}

void SelectionEnvironment::audit() const {
  PHOTODTN_CHECK_MSG(covers_.size() == model_->pois().size() &&
                         pt_miss_.size() == covers_.size() &&
                         miss_.size() == covers_.size() &&
                         dirty_.size() == covers_.size(),
                     "environment per-PoI arrays must match the model");
  // Every digest entry has exactly one cover entry viewing it: each one is
  // found in its PoI's list below, and the lists hold no more entries than
  // the digests have in all.
  std::size_t digest_entries = 0;
  for (std::size_t i = 0; i < loaded_.size(); ++i) {
    const Loaded& entry = loaded_[i];
    PHOTODTN_CHECK_MSG(i == 0 || loaded_[i - 1].node < entry.node,
                       "loaded collections must be sorted by unique node id");
    PHOTODTN_CHECK_MSG(is_probability(entry.delivery_prob),
                       "loaded collection delivery probability must be in [0, 1]");
    PHOTODTN_CHECK_MSG(entry.digest != nullptr, "loaded collection lost its arc digest");
    const ArcDigest& digest = *entry.digest;
    digest.audit();
    digest_entries += digest.size();
    for (std::size_t k = 0; k < digest.size(); ++k) {
      const std::size_t poi = digest.poi(k);
      PHOTODTN_CHECK_MSG(poi < covers_.size(), "digest PoI out of range");
      const auto& covers = covers_[poi];
      const auto it = std::find_if(covers.begin(), covers.end(), [&](const CoverView& c) {
        return c.node == entry.node;
      });
      PHOTODTN_CHECK_MSG(it != covers.end(),
                         "covered PoI missing this node's cover entry");
      PHOTODTN_CHECK_MSG(it->p == entry.delivery_prob && !it->arcs.empty() &&
                             it->arcs.data() == digest.arcs(k).data() &&
                             it->arcs.size() == digest.arcs(k).size(),
                         "cover entry must view the collection's p and digest arcs");
    }
  }
  std::size_t cover_entries = 0;
  for (const auto& covers : covers_) cover_entries += covers.size();
  PHOTODTN_CHECK_MSG(cover_entries == digest_entries,
                     "cover list holds entries no loaded collection owns");
  for (std::size_t poi = 0; poi < covers_.size(); ++poi) {
    if (dirty_[poi]) continue;  // cached terms not built yet — nothing to verify
    double miss = 1.0;
    for (const CoverView& c : covers_[poi]) miss *= 1.0 - c.p;
    PHOTODTN_CHECK_MSG(std::fabs(pt_miss_[poi] - miss) <= 1e-12,
                       "cached point-miss product out of date");
    miss_[poi].audit();
    // Cross-check the cached miss function against direct products at the
    // covers' interval midpoints (the same probe the pre-sweep builder used).
    for (const CoverView& c : covers_[poi]) {
      for (const auto& [s, e] : c.arcs) {
        const double mid = s + (e - s) / 2.0;
        double expect = 1.0;
        for (const CoverView& o : covers_[poi])
          if (arcs_contain(o.arcs, mid)) expect *= 1.0 - o.p;
        PHOTODTN_CHECK_MSG(std::fabs(miss_[poi].value_at(mid) - expect) <= 1e-9,
                           "cached miss function out of date");
      }
    }
  }
}

// ------------------------------------------------------------- GreedyPhase

GreedyPhase::GreedyPhase(const SelectionEnvironment& env, double delivery_prob,
                         Buffers& buffers)
    : env_(&env), p_(delivery_prob), buf_(&buffers) {
  start();
}

GreedyPhase::GreedyPhase(const SelectionEnvironment& env, double delivery_prob)
    : env_(&env),
      p_(delivery_prob),
      owned_(std::make_unique<Buffers>()),
      buf_(owned_.get()) {
  start();
}

void GreedyPhase::start() {
  PHOTODTN_CHECK_MSG(p_ > 0.0 && p_ <= 1.0, "selection needs p in (0, 1]");
  PHOTODTN_CHECK_MSG(!buf_->in_use, "phase buffers are in use by another phase");
  // Clean buffers stay clean when resized: every PoI starts uncovered.
  const std::size_t npois = env_->model().pois().size();
  buf_->own_arcs.resize(npois);
  buf_->own_covered.resize(npois, 0);
  buf_->in_use = true;
}

GreedyPhase::~GreedyPhase() {
  for (const std::size_t poi : buf_->touched) {
    buf_->own_arcs[poi].clear();
    buf_->own_covered[poi] = 0;
  }
  buf_->touched.clear();
  buf_->in_use = false;
}

CoverageValue GreedyPhase::gain(const PhotoFootprint& fp) const {
  CoverageValue g;
  const std::vector<char>& own_covered = buf_->own_covered;
  for (const PoiArc& pa : fp.arcs) {
    const PointOfInterest& poi = env_->model().pois()[pa.poi_index];
    if (!own_covered[pa.poi_index])
      g.point += poi.weight * env_->point_miss(pa.poi_index) * p_;
    // Split a wrapping arc into linear pieces.
    const double start = normalize_angle(pa.arc.start);
    const double end = start + std::min(pa.arc.length, kTwoPi);
    const PiecewiseMiss& env_fn = env_->aspect_miss(pa.poi_index);
    const ArcSet& own = buf_->own_arcs[pa.poi_index];
    double integral = 0.0;
    if (end <= kTwoPi) {
      integral = env_fn.integrate_excluding(start, end, own);
    } else {
      integral = env_fn.integrate_excluding(start, kTwoPi, own) +
                 env_fn.integrate_excluding(0.0, end - kTwoPi, own);
    }
    g.aspect += poi.weight * p_ * integral;
  }
  return g;
}

void GreedyPhase::commit(const PhotoFootprint& fp) {
  for (const PoiArc& pa : fp.arcs) {
    if (!buf_->own_covered[pa.poi_index]) {
      buf_->own_covered[pa.poi_index] = 1;
      buf_->touched.push_back(pa.poi_index);
    }
    buf_->own_arcs[pa.poi_index].add(pa.arc);
  }
  PHOTODTN_AUDIT(audit());
}

void GreedyPhase::audit() const {
  const Buffers& b = *buf_;
  PHOTODTN_CHECK_MSG(b.in_use && b.own_arcs.size() == b.own_covered.size() &&
                         b.own_arcs.size() == env_->model().pois().size(),
                     "GreedyPhase parallel arrays must agree in size");
  std::size_t covered = 0;
  for (std::size_t poi = 0; poi < b.own_arcs.size(); ++poi) {
    b.own_arcs[poi].audit();
    PHOTODTN_CHECK_MSG((b.own_covered[poi] != 0) == !b.own_arcs[poi].empty(),
                       "point-covered flag must match committed arc presence");
    if (b.own_covered[poi] != 0) ++covered;
  }
  PHOTODTN_CHECK_MSG(covered == b.touched.size(),
                     "touched list must name each covered PoI once");
  for (const std::size_t poi : b.touched)
    PHOTODTN_CHECK_MSG(poi < b.own_covered.size() && b.own_covered[poi] != 0,
                       "touched list must name only covered PoIs");
}

}  // namespace photodtn
