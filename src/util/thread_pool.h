// Deterministic shared thread pool: a fixed set of workers executing
// *chunked* jobs whose chunk -> data mapping is decided entirely by the
// caller. Its job is fanning whole simulation runs out (run_experiment's
// seeds, one chunk per run); a run itself is single-threaded, so everything
// it records has one writer. The pool never reorders, splits, or merges
// chunks; which worker runs a chunk is scheduling noise that must not be
// observable. Determinism therefore rests on two caller-side rules:
//
//   1. Each chunk writes only its own output slots (results[k] per run).
//      Writes to disjoint slots commute, so the result is bit-identical for
//      any worker count, including zero workers.
//   2. Reductions fold the per-chunk partials *in chunk order* after the
//      barrier (parallel_reduce, run_experiment's seed-order merge).
//
// The shared() pool is sized by PHOTODTN_THREADS (default: hardware
// concurrency) and replaces the old per-seed std::async fan-out — bounded
// oversubscription instead of one OS thread per seed. parallel_chunks is
// re-entrant: a chunk body may itself call parallel_chunks on the same pool
// (the caller always participates, so nested calls make progress even when
// every worker is busy with long outer tasks).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace photodtn {

/// Wall-clock execution stats, collected for every queued chunk (see
/// obs/wall_clock.h). Non-deterministic by nature: surfaced only through the
/// non-golden wallPerf trace section.
struct ThreadPoolStats {
  struct Lane {
    std::uint64_t chunks = 0;   // chunks this lane executed
    std::uint64_t busy_ns = 0;  // wall time spent inside chunk bodies
  };
  /// One entry per dedicated worker, then one aggregating every calling
  /// thread (the caller always participates in parallel_chunks).
  std::vector<Lane> lanes;
  /// Per-chunk wall-latency histogram shared by all lanes; counts has one
  /// trailing overflow bucket.
  std::vector<std::uint64_t> task_latency_bounds_ns;
  std::vector<std::uint64_t> task_latency_counts;
};

class ThreadPool {
 public:
  /// `concurrency` counts the calling thread: a pool built with 1 spawns no
  /// workers and runs every chunk inline on the caller, in chunk order.
  /// 0 is clamped to 1.
  explicit ThreadPool(std::size_t concurrency);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized by PHOTODTN_THREADS at first use
  /// (unset or <= 0 falls back to std::thread::hardware_concurrency).
  static ThreadPool& shared();

  std::size_t concurrency() const noexcept { return concurrency_; }

  /// Runs fn(chunk) for every chunk in [0, chunks), blocking until all
  /// complete. The caller participates; with no workers (or from inside a
  /// busy pool) it simply runs the chunks itself in ascending order. The
  /// first exception a chunk throws is rethrown here after the barrier.
  void parallel_chunks(std::size_t chunks,
                       const std::function<void(std::size_t)>& fn);

  /// Ordered reduction: partial = map(chunk) for each chunk in parallel,
  /// then acc = combine(acc, partial) serially *in ascending chunk order*.
  /// With a deterministic map and this fixed fold order, the result is
  /// bit-identical for any concurrency.
  template <typename T, typename MapFn, typename CombineFn>
  T parallel_reduce(std::size_t chunks, T init, const MapFn& map,
                    const CombineFn& combine) {
    std::vector<T> parts(chunks);
    parallel_chunks(chunks,
                    [&](std::size_t c) { parts[c] = map(c); });
    T acc = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c)
      acc = combine(std::move(acc), std::move(parts[c]));
    return acc;
  }

  /// Snapshot of the wall-clock execution stats. Excludes the inline fast
  /// path (single-chunk or single-thread jobs), which never enters the
  /// queue.
  ThreadPoolStats stats() const;

 private:
  /// One parallel_chunks invocation: workers and the caller race on `next`
  /// (claiming chunks), and the caller waits until `done` reaches `total`.
  /// `fn` and `total` are written once before the job is published and read
  /// lock-free afterwards; the mutable progress state is capability-checked.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t total = 0;
    Mutex mu;
    std::size_t next PHOTODTN_GUARDED_BY(mu) = 0;
    std::size_t done PHOTODTN_GUARDED_BY(mu) = 0;
    std::exception_ptr error PHOTODTN_GUARDED_BY(mu);
    CondVar all_done;
  };

  /// Per-lane wall-clock counters (relaxed atomics: each is a monotone sum,
  /// read only by stats()).
  struct LaneCounters {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  static constexpr std::array<std::uint64_t, 7> kTaskLatencyBoundsNs = {
      1'000,         10'000,        100'000,      1'000'000,
      10'000'000,    100'000'000,   1'000'000'000};

  void worker_loop(std::size_t lane);
  /// Claims and runs chunks of `job` until none are left, accounting the
  /// work to `lane`.
  void drain(Job& job, LaneCounters& lane);

  std::size_t concurrency_;
  /// concurrency_ entries: one per worker plus the shared caller lane.
  std::vector<LaneCounters> lanes_;
  std::array<std::atomic<std::uint64_t>, kTaskLatencyBoundsNs.size() + 1>
      latency_counts_{};
  std::vector<std::thread> workers_;
  Mutex queue_mu_;
  CondVar queue_cv_;
  /// One entry per pending helper slot of a published job.
  std::deque<std::shared_ptr<Job>> queue_ PHOTODTN_GUARDED_BY(queue_mu_);
  bool stopping_ PHOTODTN_GUARDED_BY(queue_mu_) = false;
};

}  // namespace photodtn
