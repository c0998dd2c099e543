// Tests for the deterministic run fan-out: chunk coverage (each chunk
// exactly once), inline edge cases, nesting, the concurrency bound,
// exception propagation, per-slot writes, and the PHOTODTN_THREADS parse.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
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

TEST(ThreadPool, RethrowsTheLowestIndexedFailingChunk) {
  // Chunk 3 throws at once; with more than one lane, chunk 1 throws only
  // after chunk 3 has. Whichever threw first, the fan-out rethrows chunk 1's
  // error, which is what the inline path throws.
  for (std::size_t conc : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(conc);
    std::atomic<bool> three_threw{false};
    const auto body = [&](std::size_t c) {
      if (c == 3) {
        three_threw.store(true);
        throw std::runtime_error("chunk 3 failed");
      }
      if (c == 1) {
        if (pool.concurrency() > 1) {
          while (!three_threw.load()) std::this_thread::yield();
          // Let chunk 3's failure reach the fan-out before this one does.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        throw std::runtime_error("chunk 1 failed");
      }
    };
    try {
      pool.parallel_chunks(8, body);
      ADD_FAILURE() << "no exception at concurrency " << conc;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 1 failed") << "concurrency " << conc;
    }
  }
}

TEST(ThreadPool, RunsAtMostConcurrencyChunksAtOnce) {
  for (std::size_t conc : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                           std::size_t{4}}) {
    ThreadPool pool(conc);
    std::atomic<std::size_t> running{0}, peak{0};
    pool.parallel_chunks(32, [&](std::size_t) {
      const std::size_t now = running.fetch_add(1) + 1;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      running.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 1u);
    EXPECT_LE(peak.load(), conc) << "concurrency " << conc;
  }
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

TEST(ThreadPool, ConcurrencyFromEnvIsAnIntegerFromOneTo256) {
  const std::size_t hardware = ThreadPool::concurrency_from_env(nullptr);
  EXPECT_GE(hardware, 1u);
  EXPECT_EQ(ThreadPool::concurrency_from_env(""), hardware);
  EXPECT_EQ(ThreadPool::concurrency_from_env("1"), 1u);
  EXPECT_EQ(ThreadPool::concurrency_from_env("4"), 4u);
  EXPECT_EQ(ThreadPool::concurrency_from_env("256"), 256u);
  for (const char* bad : {"abc", "4x", "0", "-3", "257", "100000", " 4", "+4", "2.5",
                          "99999999999999999999999"}) {
    try {
      ThreadPool::concurrency_from_env(bad);
      ADD_FAILURE() << "accepted PHOTODTN_THREADS=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("PHOTODTN_THREADS=") + bad + " is not an integer in [1, 256]");
    }
  }
}

}  // namespace
}  // namespace photodtn
