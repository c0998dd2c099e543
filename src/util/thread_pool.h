// Deterministic run fan-out. parallel_chunks(n, fn) runs fn(0) .. fn(n - 1)
// on the caller and on lanes lent to that call; the chunk -> data mapping is
// decided entirely by the caller. Its job is fanning whole simulation runs
// out (run_experiment's seeds, one chunk per run); a run itself is
// single-threaded, so everything it records has one writer. The fan-out
// never reorders, splits, or merges chunks; which lane runs a chunk is
// scheduling noise that must not be observable. Determinism therefore rests
// on two caller-side rules:
//
//   1. Each chunk writes only its own output slots (results[k] per run).
//      Writes to disjoint slots commute, so the result is bit-identical for
//      any lane count, including the inline path.
//   2. Anything combined across chunks is folded *in chunk order* after the
//      call returns (run_experiment's seed-order merge).
//
// The shared() pool is sized by PHOTODTN_THREADS (default: hardware
// concurrency). Its lanes are threads started with the pool and parked
// between calls, because a thread's allocator caches die with it: building
// one run's inputs on a lane started for the call took 1.6-1.7x as long as
// on a parked lane (4-core x86-64, glibc 2.36). parallel_chunks is
// re-entrant: a call made while the lanes are lent out (one nested in a
// chunk) runs on its caller alone.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace photodtn {

class ThreadPool {
 public:
  /// `concurrency` counts the calling thread: a pool of 1 starts no lanes
  /// and runs every chunk inline on the caller, in chunk order. 0 is clamped
  /// to 1.
  explicit ThreadPool(std::size_t concurrency);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized at first use by
  /// concurrency_from_env(PHOTODTN_THREADS).
  static ThreadPool& shared();

  /// The concurrency PHOTODTN_THREADS asks for, given the variable's text
  /// (nullptr when unset). Unset or empty means hardware concurrency;
  /// anything but an integer in [1, 256] throws std::invalid_argument
  /// naming the variable and the value.
  static std::size_t concurrency_from_env(const char* value);

  std::size_t concurrency() const noexcept { return concurrency_; }

  /// Runs fn(chunk) for every chunk in [0, chunks) and returns when all are
  /// done. The caller takes chunks too, beside min(concurrency() - 1,
  /// chunks - 1) lanes lent to this call, so at most concurrency() chunk
  /// bodies run at once. With one chunk, a pool of 1, or the lanes lent to
  /// another call, the caller runs the chunks itself in ascending order.
  /// Once a chunk throws, no further chunk starts; the exception of the
  /// lowest-indexed failing chunk is rethrown after every lane has finished,
  /// which is the exception the inline path would throw.
  void parallel_chunks(std::size_t chunks,
                       const std::function<void(std::size_t)>& fn);

 private:
  class Fanout;
  class Lane;

  /// Lends the lanes to the calling parallel_chunks; false while another
  /// call has them.
  bool lend();
  void give_back();

  std::size_t concurrency_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // concurrency_ - 1 threads
  Mutex mu_;
  bool lent_ PHOTODTN_GUARDED_BY(mu_) = false;
};

}  // namespace photodtn
