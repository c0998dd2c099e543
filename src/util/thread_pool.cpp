#include "util/thread_pool.h"

#include <algorithm>

#include "obs/wall_clock.h"
#include "util/env.h"

namespace photodtn {

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(std::max<std::size_t>(1, concurrency)),
      lanes_(concurrency_) {
  workers_.reserve(concurrency_ - 1);
  for (std::size_t i = 0; i + 1 < concurrency_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    const std::int64_t n = env_int("PHOTODTN_THREADS", 0);
    if (n > 0) return static_cast<std::size_t>(std::min<std::int64_t>(n, 256));
    return static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }());
  return pool;
}

void ThreadPool::drain(Job& job, LaneCounters& lane) {
  // Every chunk is timed (a chunk is a whole run, so two clock reads are
  // noise); the readings feed only the non-golden wallPerf trace section
  // (obs/chrome_trace.h) and never affect scheduling.
  for (;;) {
    std::size_t chunk;
    {
      MutexLock lk(job.mu);
      if (job.next >= job.total) return;
      chunk = job.next++;
    }
    const std::int64_t t0 = obs::wall_now_ns();
    std::exception_ptr err;
    try {
      (*job.fn)(chunk);
    } catch (...) {
      err = std::current_exception();
    }
    const std::int64_t dt = obs::wall_now_ns() - t0;
    const std::uint64_t ns = dt > 0 ? static_cast<std::uint64_t>(dt) : 0;
    lane.chunks.fetch_add(1, std::memory_order_relaxed);
    lane.busy_ns.fetch_add(ns, std::memory_order_relaxed);
    std::size_t bucket = kTaskLatencyBoundsNs.size();
    for (std::size_t i = 0; i < kTaskLatencyBoundsNs.size(); ++i) {
      if (ns <= kTaskLatencyBoundsNs[i]) {
        bucket = i;
        break;
      }
    }
    latency_counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    MutexLock lk(job.mu);
    if (err && !job.error) job.error = err;
    if (++job.done == job.total) job.all_done.notify_all();
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  out.lanes.resize(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    out.lanes[i].chunks = lanes_[i].chunks.load(std::memory_order_relaxed);
    out.lanes[i].busy_ns = lanes_[i].busy_ns.load(std::memory_order_relaxed);
  }
  out.task_latency_bounds_ns.assign(kTaskLatencyBoundsNs.begin(),
                                    kTaskLatencyBoundsNs.end());
  out.task_latency_counts.resize(latency_counts_.size());
  for (std::size_t i = 0; i < latency_counts_.size(); ++i) {
    out.task_latency_counts[i] = latency_counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::worker_loop(std::size_t lane) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      // Predicate-free wait loop: the guarded reads stay in this scope, where
      // the capability analysis can see queue_mu_ is held.
      MutexLock lk(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(queue_mu_);
      if (queue_.empty()) return;  // stopping, nothing left to help with
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    drain(*job, lanes_[lane]);
  }
}

void ThreadPool::parallel_chunks(std::size_t chunks,
                                 const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  if (chunks == 1 || concurrency_ == 1) {
    // Inline fast path: ascending chunk order on the caller, no queue
    // traffic. This is also the PHOTODTN_THREADS=1 reference execution the
    // determinism tests compare the parallel runs against.
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->total = chunks;
  const std::size_t helpers = std::min(concurrency_ - 1, chunks - 1);
  {
    MutexLock lk(queue_mu_);
    for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(job);
  }
  if (helpers == 1) {
    queue_cv_.notify_one();
  } else {
    queue_cv_.notify_all();
  }
  drain(*job, lanes_.back());  // the caller is always one of the executors
  MutexLock lk(job->mu);
  while (job->done != job->total) job->all_done.wait(job->mu);
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace photodtn
