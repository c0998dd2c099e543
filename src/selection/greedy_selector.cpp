#include "selection/greedy_selector.h"

#include <algorithm>

#include "util/check.h"

namespace photodtn {

namespace {

bool gain_worth_taking(const CoverageValue& g, double eps) {
  return g.point > eps || g.aspect > eps;
}

/// Removes a temporarily-added collection even when selection throws, so a
/// persistent engine is never left polluted with a tentative phase-1 set.
class ScopedCollection {
 public:
  ScopedCollection(SelectionEnvironment& env, const NodeCollection& collection)
      : env_(&env), node_(collection.node) {
    env_->add_collection(collection);
  }
  ~ScopedCollection() { env_->remove_collection(node_); }
  ScopedCollection(const ScopedCollection&) = delete;
  ScopedCollection& operator=(const ScopedCollection&) = delete;

 private:
  SelectionEnvironment* env_;
  NodeId node_;
};

}  // namespace

std::vector<PhotoId> GreedySelector::select(const CoverageModel& model,
                                            std::span<const PhotoMeta> pool,
                                            std::uint64_t capacity_bytes,
                                            GreedyPhase& phase) const {
  // Resolve every candidate's footprint once up front — gain evaluation then
  // never touches the model's hash cache (the greedy inner loop re-evaluates
  // candidates many times).
  model.footprints_cached(pool, fps_);
  stats_ = SelectionStats{};
  // A max-heap in heap_, kept by std::push_heap/pop_heap: the operations a
  // std::priority_queue runs on its vector, so the pops are the same.
  const auto less = [](const Cand& x, const Cand& y) {
    // Exact ties broken toward the lower PhotoId, matching plain greedy
    // (which scans the pool but prefers the smaller id on equal gain).
    if (x.gain != y.gain) return x.gain < y.gain;
    return x.id > y.id;
  };
  std::vector<Cand>& heap = heap_;
  heap.clear();
  auto push = [&](const Cand& c) {
    heap.push_back(c);
    std::push_heap(heap.begin(), heap.end(), less);
  };
  // Fill the CELF heap with every candidate's first gain, in pool order.
  stats_.gain_evals += pool.size();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const CoverageValue g = phase.gain(*fps_[i]);
    if (gain_worth_taking(g, params_.eps)) push({g, pool[i].id, i, 0});
  }
  std::vector<PhotoId> chosen;
  std::uint64_t used = 0;
  std::uint64_t commit_stamp = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), less);
    Cand top = heap.back();
    heap.pop_back();
    if (used + pool[top.idx].size_bytes > capacity_bytes) continue;  // never fits again
    if (top.stamp != commit_stamp) {
      // Stale: re-evaluate against the current selection. Submodularity
      // guarantees the fresh gain is <= the cached one, so reinsertion keeps
      // the heap order consistent with plain greedy.
      top.gain = phase.gain(*fps_[top.idx]);
      top.stamp = commit_stamp;
      ++stats_.gain_evals;
      ++stats_.reevals;
      if (gain_worth_taking(top.gain, params_.eps)) push(top);
      continue;
    }
    phase.commit(*fps_[top.idx]);
    used += pool[top.idx].size_bytes;
    chosen.push_back(top.id);
    if (log_commits_) commit_log_.push_back({top.id, top.gain});
    ++commit_stamp;
    ++stats_.commits;
  }
  totals_.gain_evals += stats_.gain_evals;
  totals_.reevals += stats_.reevals;
  totals_.commits += stats_.commits;
  return chosen;
}

ReallocationPlan GreedySelector::reallocate(
    const CoverageModel& model, std::span<const PhotoMeta> pool, NodeId node_a,
    double p_a, std::uint64_t cap_a, NodeId node_b, double p_b, std::uint64_t cap_b,
    SelectionEnvironment& env) const {
  PHOTODTN_CHECK_MSG(!env.has_collection(node_a) && !env.has_collection(node_b),
                     "reallocation environment must exclude the contact parties");
  // Higher delivery probability selects first; the command center (p = 1,
  // id 0) always wins ties by id for determinism.
  bool a_first = p_a > p_b || (p_a == p_b && node_a < node_b);
  ReallocationPlan plan;
  plan.first = a_first ? node_a : node_b;
  plan.second = a_first ? node_b : node_a;
  const double p_first = std::max(a_first ? p_a : p_b, params_.p_floor);
  const double p_second = std::max(a_first ? p_b : p_a, params_.p_floor);
  const std::uint64_t cap_first = a_first ? cap_a : cap_b;
  const std::uint64_t cap_second = a_first ? cap_b : cap_a;

  // Phase 1: maximize C_ex(F_first, ∅) — the peer's collection is excluded,
  // the rest of M stays.
  {
    GreedyPhase phase_first(env, p_first, phase_buffers_);
    plan.first_target = select(model, pool, cap_first, phase_first);
  }

  // Phase 2: the second node selects from the SAME pool, now against the
  // environment plus the first node's tentative selection. The engine only
  // rebuilds the PoIs that selection touches; the guard removes the
  // tentative collection on every exit path.
  NodeCollection first_sel;
  first_sel.node = plan.first;
  // The environment must weigh the first node's photos by its *actual*
  // delivery probability (not the floored one): if p_first is truly tiny,
  // the second node should still duplicate valuable photos (Section III-D).
  first_sel.delivery_prob = a_first ? p_a : p_b;
  // Footprints in pool order (a binary search per photo, not a pool scan
  // per selected id — contact pools reach hundreds of photos).
  std::vector<PhotoId> first_ids = plan.first_target;
  std::sort(first_ids.begin(), first_ids.end());
  for (const PhotoMeta& p : pool)
    if (std::binary_search(first_ids.begin(), first_ids.end(), p.id))
      first_sel.footprints.push_back(&model.footprint_cached(p));

  ScopedCollection guard(env, first_sel);
  GreedyPhase phase_second(env, p_second, phase_buffers_);
  plan.second_target = select(model, pool, cap_second, phase_second);
  return plan;
}

}  // namespace photodtn
