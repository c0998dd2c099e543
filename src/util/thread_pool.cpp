#include "util/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <semaphore>
#include <stop_token>
#include <thread>

#include "util/env.h"

namespace photodtn {

namespace {

/// Most lanes PHOTODTN_THREADS may ask for.
constexpr std::int64_t kMaxConcurrency = 256;

}  // namespace

/// The progress of one parallel_chunks call. Its lanes and the caller claim
/// chunk indices in ascending order until none are left or a chunk failed.
/// `total_` and `fn_` are set before any lane is handed the fan-out and only
/// read after; the rest is guarded by `mu_`.
class ThreadPool::Fanout {
 public:
  Fanout(std::size_t total, const std::function<void(std::size_t)>& fn)
      : total_(total), fn_(fn) {}

  /// Claims and runs chunks until none are left to start.
  void drain() {
    for (;;) {
      std::size_t chunk;
      {
        MutexLock lk(mu_);
        if (next_ >= total_ || error_) return;
        chunk = next_++;
      }
      try {
        fn_(chunk);
      } catch (...) {
        MutexLock lk(mu_);
        if (!error_ || chunk < error_chunk_) {
          error_ = std::current_exception();
          error_chunk_ = chunk;
        }
      }
    }
  }

  /// Rethrows the lowest-indexed failing chunk's exception, if any. Call
  /// after every lane has finished.
  void rethrow_if_failed() {
    MutexLock lk(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const std::size_t total_;
  const std::function<void(std::size_t)>& fn_;  // the caller's; outlives the call
  Mutex mu_;
  std::size_t next_ PHOTODTN_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ PHOTODTN_GUARDED_BY(mu_);
  std::size_t error_chunk_ PHOTODTN_GUARDED_BY(mu_) = 0;
};

/// A thread parked between calls: start() hands it a fan-out to drain, and
/// finish() waits until it has, or takes the hand-off back from a lane that
/// has not woken for it yet, so a call never waits on a lane it did not need.
class ThreadPool::Lane {
 public:
  Lane() : thread_([this](const std::stop_token& stop) { run(stop); }) {}
  ~Lane() {
    thread_.request_stop();
    go_.release();
  }  // thread_ joins first: it is the last member
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  void start(Fanout& fanout) {
    fanout_ = &fanout;
    go_.release();
  }
  void finish() {
    if (!go_.try_acquire()) done_.acquire();
  }

 private:
  void run(const std::stop_token& stop) {
    for (;;) {
      go_.acquire();
      if (stop.stop_requested()) return;
      fanout_->drain();
      done_.release();
    }
  }

  std::binary_semaphore go_{0};
  std::binary_semaphore done_{0};
  Fanout* fanout_ = nullptr;  // written before go_ is released, read after
  std::jthread thread_;       // last: starts once the members above exist
};

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(std::max<std::size_t>(1, concurrency)) {
  lanes_.reserve(concurrency_ - 1);
  for (std::size_t i = 0; i + 1 < concurrency_; ++i)
    lanes_.push_back(std::make_unique<Lane>());
}

ThreadPool::~ThreadPool() = default;

ThreadPool& ThreadPool::shared() {
  // getenv is MT-safe as long as nothing calls setenv concurrently; the
  // process never mutates its environment.
  static ThreadPool pool(concurrency_from_env(
      std::getenv("PHOTODTN_THREADS")));  // NOLINT(concurrency-mt-unsafe)
  return pool;
}

std::size_t ThreadPool::concurrency_from_env(const char* value) {
  if (value == nullptr || *value == '\0')
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(
      parse_env_int("PHOTODTN_THREADS", value, 1, kMaxConcurrency));
}

bool ThreadPool::lend() {
  MutexLock lk(mu_);
  if (lent_) return false;
  lent_ = true;
  return true;
}

void ThreadPool::give_back() {
  MutexLock lk(mu_);
  lent_ = false;
}

void ThreadPool::parallel_chunks(std::size_t chunks,
                                 const std::function<void(std::size_t)>& fn) {
  const std::size_t extra = chunks > 1 ? std::min(lanes_.size(), chunks - 1) : 0;
  if (extra == 0 || !lend()) {
    // Inline path: ascending chunk order on the caller. This is also the
    // PHOTODTN_THREADS=1 reference execution the determinism tests compare
    // the parallel runs against.
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  Fanout fanout(chunks, fn);
  for (std::size_t i = 0; i < extra; ++i) lanes_[i]->start(fanout);
  fanout.drain();
  for (std::size_t i = 0; i < extra; ++i) lanes_[i]->finish();
  give_back();
  fanout.rethrow_if_failed();
}

}  // namespace photodtn
