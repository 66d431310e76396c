// The thread-pool utility: width resolution, dynamic fan-out, ordered
// reduction, exception propagation, and safe nesting.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace relb::util {
namespace {

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolveThreadCount(0), 1);
  EXPECT_EQ(resolveThreadCount(1), 1);
  EXPECT_EQ(resolveThreadCount(7), 7);
  EXPECT_EQ(resolveThreadCount(-3), 1);
}

TEST(ThreadPool, BackToBackTinyBatchesStress) {
  // Tiny batches issued back to back: the calling lane often drains a batch
  // before a worker wakes, so workers regularly wake to a batch that is
  // already over -- or to the next one.  Each batch's job and slots live on
  // this frame only for that batch; a worker running a stale job would write
  // into a dead vector or call through a dead std::function.
  for (const int width : {2, 4, 8}) {
    ThreadPool pool(width);
    for (int batch = 0; batch < 5000; ++batch) {
      std::vector<int> visits(2 + batch % 3, 0);
      const std::function<void(std::size_t)> job = [&](std::size_t i) {
        ++visits[i];
      };
      pool.forEachIndex(visits.size(), job);
      for (const int v : visits) ASSERT_EQ(v, 1) << width << " " << batch;
    }
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(1000);
    parallel_for(threads, visits.size(),
                 [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, SlotWritesAreDeterministic) {
  // Results written into index-addressed slots are identical across widths.
  std::vector<std::vector<long>> results;
  for (const int threads : {1, 2, 8}) {
    std::vector<long> out(5000);
    parallel_for(threads, out.size(),
                 [&](std::size_t i) { out[i] = static_cast<long>(i * i % 97); });
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelFor, WidthBeyondHardwareConcurrencyWorks) {
  // Explicit widths are honored even on small machines (this is what lets
  // the engine determinism tests genuinely multithread on any box).
  std::atomic<long> sum{0};
  parallel_for(8, 10000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
  EXPECT_GE(ThreadPool::global().concurrency(), 8);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        parallel_for(threads, 100,
                     [&](std::size_t i) {
                       if (i == 37) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A parallel_for issued from inside a pool task must not deadlock; it runs
  // inline on the worker.
  std::vector<std::atomic<int>> visits(64 * 16);
  parallel_for(4, 64, [&](std::size_t outer) {
    parallel_for(4, 16, [&](std::size_t inner) {
      visits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelReduce, CombinesChunksInOrder) {
  // Concatenation is order-sensitive; chunk-ordered combining must rebuild
  // the identity permutation for any width.
  std::vector<int> serial(1000);
  std::iota(serial.begin(), serial.end(), 0);
  for (const int threads : {1, 2, 8}) {
    const auto out = parallel_reduce(
        threads, serial.size(), std::vector<int>{},
        [](std::size_t begin, std::size_t end) {
          std::vector<int> part;
          for (std::size_t i = begin; i < end; ++i) {
            part.push_back(static_cast<int>(i));
          }
          return part;
        },
        [](std::vector<int> acc, std::vector<int> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const auto out = parallel_reduce(
      4, 0, 42, [](std::size_t, std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(out, 42);
}

TEST(ThreadPool, StandalonePoolRunsBatches) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3);
  std::vector<std::atomic<int>> visits(100);
  for (int round = 0; round < 10; ++round) {
    pool.forEachIndex(visits.size(),
                      [&](std::size_t i) { visits[i].fetch_add(1); });
  }
  for (const auto& v : visits) EXPECT_EQ(v.load(), 10);
}

}  // namespace
}  // namespace relb::util
