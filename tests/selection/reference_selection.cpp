#include "selection/reference_selection.h"

#include <algorithm>
#include <cmath>

#include "geometry/angle.h"

namespace photodtn::test {

namespace {

constexpr double kEps = 1e-12;

void insert_linear(Intervals& intervals, double lo, double hi) {
  if (hi - lo <= kEps) return;
  Intervals out;
  out.reserve(intervals.size() + 1);
  bool placed = false;
  for (const auto& [s, e] : intervals) {
    if (e < lo - kEps) {
      out.push_back({s, e});
    } else if (s > hi + kEps) {
      if (!placed) {
        out.push_back({lo, hi});
        placed = true;
      }
      out.push_back({s, e});
    } else {
      lo = std::min(lo, s);
      hi = std::max(hi, e);
    }
  }
  if (!placed) out.push_back({lo, hi});
  std::sort(out.begin(), out.end());
  intervals = std::move(out);
}

std::vector<double> boundaries(const ArcSet& arcs) {
  std::vector<double> out;
  out.reserve(arcs.intervals().size() * 2);
  for (const auto& [s, e] : arcs.intervals()) {
    out.push_back(normalize_angle(s));
    out.push_back(e >= kTwoPi - kEps ? 0.0 : normalize_angle(e));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](double a, double b) { return std::fabs(a - b) <= kEps; }),
            out.end());
  return out;
}

}  // namespace

void reference_add(Intervals& intervals, Arc arc) {
  if (arc.length <= kEps) return;
  if (arc.length >= kTwoPi - kEps) {
    intervals = {{0.0, kTwoPi}};
    return;
  }
  const double start = normalize_angle(arc.start);
  const double end = start + arc.length;
  if (end <= kTwoPi) {
    insert_linear(intervals, start, end);
  } else {
    insert_linear(intervals, start, kTwoPi);
    insert_linear(intervals, 0.0, end - kTwoPi);
  }
}

void reference_unite(Intervals& intervals, const Intervals& other) {
  for (const auto& [s, e] : other) insert_linear(intervals, s, e);
}

ReferencePiecewiseMiss ReferencePiecewiseMiss::build(
    std::span<const std::pair<double, const ArcSet*>> covers,
    const AspectProfile* profile) {
  const bool weighted = profile != nullptr && !profile->is_uniform();
  ReferencePiecewiseMiss out;
  std::vector<double> cuts;
  for (const auto& [p, arcs] : covers)
    for (const double b : boundaries(*arcs)) cuts.push_back(b);
  if (weighted)
    for (const double b : profile->breakpoints()) cuts.push_back(b);

  if (cuts.empty()) {
    double miss = 1.0;
    for (const auto& [p, arcs] : covers)
      if (arcs->full()) miss *= 1.0 - p;
    out.constant_ = miss;
    return out;
  }

  cuts.push_back(0.0);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  struct Event {
    double angle;
    double factor;
    bool open;
  };
  std::vector<Event> events;
  for (const auto& [p, arcs] : covers) {
    const double f = 1.0 - p;
    for (const auto& [s, e] : arcs->intervals()) {
      events.push_back({s, f, true});
      if (e < kTwoPi) events.push_back({e, f, false});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.angle < y.angle; });

  const std::size_t n = cuts.size();
  out.cuts_ = std::move(cuts);
  out.vals_.resize(n);
  if (weighted) out.weights_.resize(n);
  double product = 1.0;
  int zeros = 0;
  std::size_t next_event = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double lo = out.cuts_[k];
    while (next_event < events.size() && events[next_event].angle <= lo) {
      const Event& ev = events[next_event++];
      if (ev.factor == 0.0) {
        zeros += ev.open ? 1 : -1;
      } else if (ev.open) {
        product *= ev.factor;
      } else {
        product /= ev.factor;
      }
    }
    out.vals_[k] = zeros > 0 ? 0.0 : product;
    if (weighted) {
      const double hi = (k + 1 < n) ? out.cuts_[k + 1] : kTwoPi;
      out.weights_[k] = profile->weight_at(normalize_angle(lo + (hi - lo) / 2.0));
    }
  }

  out.rates_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    out.rates_[k] = out.vals_[k] * (weighted ? out.weights_[k] : 1.0);

  out.prefix_.resize(n + 1);
  out.prefix_[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double hi = (k + 1 < n) ? out.cuts_[k + 1] : kTwoPi;
    out.prefix_[k + 1] = out.prefix_[k] + out.rates_[k] * (hi - out.cuts_[k]);
  }

  return out;
}

std::size_t ReferencePiecewiseMiss::segment_of(double a) const noexcept {
  return static_cast<std::size_t>(
             std::upper_bound(cuts_.begin(), cuts_.end(), a) - cuts_.begin()) -
         1;
}

double ReferencePiecewiseMiss::value_at(double angle) const noexcept {
  if (cuts_.empty()) return constant_;
  return vals_[segment_of(normalize_angle(angle))];
}

double ReferencePiecewiseMiss::integral(double lo, double hi) const noexcept {
  if (hi <= lo) return 0.0;
  if (cuts_.empty()) return constant_ * (hi - lo);
  const std::size_t a = segment_of(lo);
  const std::size_t b = segment_of(hi);
  if (a == b) return rates_[a] * (hi - lo);
  double total = rates_[a] * (cuts_[a + 1] - lo);
  total += prefix_[b] - prefix_[a + 1];
  total += rates_[b] * (hi - cuts_[b]);
  return total;
}

double ReferencePiecewiseMiss::full_integral() const noexcept {
  if (cuts_.empty()) return constant_ * kTwoPi;
  return prefix_.back();
}

double ReferencePiecewiseMiss::integrate_excluding_scan(double lo, double hi,
                                                        const ArcSet& exclude) const {
  lo = std::max(lo, 0.0);
  hi = std::min(hi, kTwoPi);
  if (hi <= lo) return 0.0;
  auto piece = [&](double l, double h, double val) {
    if (h <= l || val == 0.0) return 0.0;
    const double len = (h - l) - exclude.overlap_linear(l, h);
    return val * std::max(0.0, len);
  };
  if (cuts_.empty()) return piece(lo, hi, constant_);
  double total = 0.0;
  const std::size_t n = cuts_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double seg_hi = (k + 1 < n) ? cuts_[k + 1] : kTwoPi;
    total += piece(std::max(lo, cuts_[k]), std::min(hi, seg_hi), rates_[k]);
  }
  return total;
}

std::vector<PhotoId> plain_greedy_select(const CoverageModel& model,
                                         std::span<const PhotoMeta> pool,
                                         std::uint64_t capacity_bytes,
                                         GreedyPhase& phase, double eps) {
  std::vector<const PhotoFootprint*> fps;
  model.footprints_cached(pool, fps);
  std::vector<PhotoId> chosen;
  std::vector<char> taken(pool.size(), 0);
  std::uint64_t used = 0;
  for (;;) {
    const std::size_t none = pool.size();
    std::size_t best = none;
    CoverageValue best_gain;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i] || used + pool[i].size_bytes > capacity_bytes) continue;
      const CoverageValue g = phase.gain(*fps[i]);
      if (best == none || g > best_gain ||
          (g == best_gain && pool[i].id < pool[best].id)) {
        best = i;
        best_gain = g;
      }
    }
    if (best == none) break;
    if (best_gain.point <= eps && best_gain.aspect <= eps) break;
    taken[best] = 1;
    used += pool[best].size_bytes;
    phase.commit(*fps[best]);
    chosen.push_back(pool[best].id);
  }
  return chosen;
}

std::vector<PhotoId> greedy_select(bool lazy, const CoverageModel& model,
                                   std::span<const PhotoMeta> pool,
                                   std::uint64_t capacity_bytes, GreedyPhase& phase,
                                   double eps) {
  if (!lazy) return plain_greedy_select(model, pool, capacity_bytes, phase, eps);
  GreedyParams params;
  params.eps = eps;
  return GreedySelector(params).select(model, pool, capacity_bytes, phase);
}

}  // namespace photodtn::test
