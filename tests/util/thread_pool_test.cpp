// Tests for the deterministic shared thread pool: chunk coverage (each
// chunk exactly once), inline edge cases, nesting, exception propagation,
// per-slot writes, and the ordered reduction contract that the experiment
// layer builds its bit-identity on.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace photodtn {
namespace {

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  for (std::size_t conc : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(conc);
    EXPECT_EQ(pool.concurrency(), conc);
    std::vector<std::atomic<int>> hits(97);
    pool.parallel_chunks(hits.size(),
                         [&](std::size_t c) { hits[c].fetch_add(1); });
    for (std::size_t c = 0; c < hits.size(); ++c)
      EXPECT_EQ(hits[c].load(), 1) << "chunk " << c << " conc " << conc;
  }
}

TEST(ThreadPool, ZeroChunksIsANoOpAndZeroConcurrencyClamps) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  bool ran = false;
  pool.parallel_chunks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleChunkRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_chunks(1, [&](std::size_t c) {
    EXPECT_EQ(c, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, OrderedReduceFoldsInChunkOrder) {
  // String concatenation is non-commutative: any fold-order deviation under
  // concurrency changes the result.
  ThreadPool serial(1), wide(4);
  auto run = [](ThreadPool& pool) {
    return pool.parallel_reduce(
        26, std::string{},
        [](std::size_t c) { return std::string(1, static_cast<char>('a' + c)); },
        [](std::string acc, std::string part) { return acc + part; });
  };
  EXPECT_EQ(run(serial), "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(run(wide), "abcdefghijklmnopqrstuvwxyz");
}

TEST(ThreadPool, NestedParallelChunksMakesProgress) {
  // A chunk body may re-enter the same pool; the caller drains its own job,
  // so this must not deadlock even when every worker is busy with outer
  // chunks.
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  pool.parallel_chunks(4, [&](std::size_t) {
    pool.parallel_chunks(8, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ThreadPool, FirstChunkExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  auto boom = [](std::size_t c) {
    if (c == 5) throw std::runtime_error("chunk 5 failed");
  };
  EXPECT_THROW(pool.parallel_chunks(16, boom), std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> hits{0};
  pool.parallel_chunks(16, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, PerSlotWritesAreIdenticalAcrossPoolSizes) {
  // The canonical usage pattern, run_experiment's one chunk per seed: each
  // chunk writes its own slot. The filled vector must be bit-identical for
  // any pool size.
  auto fill = [](ThreadPool& pool) {
    std::vector<double> out(257);
    pool.parallel_chunks(out.size(), [&](std::size_t i) {
      out[i] = 1.0 / (1.0 + static_cast<double>(i) * 0.37);
    });
    return out;
  };
  ThreadPool serial(1), wide(4);
  const auto a = fill(serial), b = fill(wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // exact: same expression, same slot
  }
}

TEST(ThreadPool, SharedPoolIsASingletonWithPositiveConcurrency) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.concurrency(), 1u);
}

}  // namespace
}  // namespace photodtn
