#include "numeric/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tsv::num {
namespace {

TEST(Parallel, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_EQ(resolve_thread_count(0), hardware_thread_count());
  EXPECT_GE(hardware_thread_count(), 1u);
}

TEST(Parallel, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  parallel_for_chunks(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  parallel_for(n, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(Parallel, RangeSmallerThanThreadCount) {
  const std::size_t n = 3;
  std::vector<int> hits(n, 0);
  parallel_for(n, 16, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(Parallel, ChunksPartitionTheRangeInOrder) {
  const std::size_t n = 103;
  const std::size_t threads = 7;
  std::vector<std::pair<std::size_t, std::size_t>> bounds(threads,
                                                          {n + 1, n + 1});
  parallel_for_chunks(n, threads,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        ASSERT_LT(c, threads);
                        bounds[c] = {b, e};
                      });
  EXPECT_EQ(bounds.front().first, 0u);
  EXPECT_EQ(bounds.back().second, n);
  for (std::size_t c = 1; c < threads; ++c) {
    EXPECT_EQ(bounds[c].first, bounds[c - 1].second) << c;
    EXPECT_LT(bounds[c].first, bounds[c].second) << c;
  }
}

// Dynamic claiming visits every index once, on workers numbered below the
// thread count, and never runs two items of one worker at once.
TEST(Parallel, DynamicClaimingVisitsEveryIndexOnce) {
  const std::size_t n = 1000;
  for (const std::size_t threads : {1u, 3u, 4u}) {
    std::vector<int> hits(n, 0);
    std::vector<std::atomic<int>> busy(threads);
    std::atomic<bool> overlap{false};
    parallel_for_dynamic(n, threads, [&](std::size_t i, std::size_t worker) {
      ASSERT_LT(worker, threads);
      if (busy[worker].fetch_add(1) != 0) overlap = true;
      ++hits[i];
      busy[worker].fetch_sub(1);
    });
    EXPECT_FALSE(overlap.load()) << threads;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
  }
  EXPECT_THROW(parallel_for_dynamic(100, 4,
                                    [](std::size_t i, std::size_t) {
                                      if (i == 37)
                                        throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("worker boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an aborted region.
  std::atomic<std::size_t> sum{0};
  parallel_for(64, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(Parallel, NestedCallsRunSeriallyWithoutDeadlock) {
  std::atomic<std::size_t> inner_total{0};
  std::atomic<bool> saw_region{false};
  parallel_for(8, 4, [&](std::size_t) {
    if (in_parallel_region()) saw_region = true;
    // Nested region: must run inline instead of waiting on the pool.
    parallel_for(16, 4, [&](std::size_t j) { inner_total += j; });
  });
  EXPECT_EQ(inner_total.load(), 8u * (16u * 15u / 2u));
  // With > 1 hardware thread the outer body runs inside a region; on a
  // single-core host the outer loop itself degenerates to serial.
  if (hardware_thread_count() > 1) {
    EXPECT_TRUE(saw_region.load());
  }
  EXPECT_FALSE(in_parallel_region());
}

TEST(Parallel, SerialPathIsBitwiseIdenticalToPlainLoop) {
  const std::size_t n = 4096;
  std::vector<double> plain(n), pooled(n);
  for (std::size_t i = 0; i < n; ++i)
    plain[i] = std::sin(0.001 * static_cast<double>(i));
  parallel_for(n, 1, [&](std::size_t i) {
    pooled[i] = std::sin(0.001 * static_cast<double>(i));
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(plain[i], pooled[i]);
}

TEST(Parallel, StressRepeatedInvocations) {
  // Hammer the shared pool with many back-to-back regions of varying
  // shapes; totals must always come out exact.
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 97);
    const std::size_t threads = 1 + static_cast<std::size_t>(round % 5);
    parallel_for(n, threads, [&](std::size_t i) { total += i + 1; });
  }
  std::size_t expect = 0;
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 97);
    expect += n * (n + 1) / 2;
  }
  EXPECT_EQ(total.load(), expect);
}

TEST(Parallel, ConcurrentRegionsFromUserThreadsSerialize) {
  // Several user threads issuing regions at once must not corrupt the pool
  // (regions serialize internally on the run mutex).
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> users;
  users.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    users.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round)
        parallel_for(128, 3, [&](std::size_t i) { total += i; });
    });
  }
  for (std::thread& u : users) u.join();
  EXPECT_EQ(total.load(),
            static_cast<std::size_t>(kThreads) * kRounds * (128u * 127u / 2u));
}

TEST(Parallel, PoolRunExecutesAllChunks) {
  std::vector<int> hits(11, 0);
  ThreadPool::shared().run(hits.size(),
                           [&](std::size_t c) { ++hits[c]; });
  for (std::size_t c = 0; c < hits.size(); ++c) EXPECT_EQ(hits[c], 1) << c;
}

// A region may keep work on the calling thread by putting it in chunk 0,
// even when the workers alone could take every chunk.
TEST(Parallel, PoolCallerRunsChunkZero) {
  ThreadPool pool(3);
  for (const std::size_t chunks : {1u, 2u, 4u, 9u}) {
    std::thread::id ran_zero;
    pool.run(chunks, [&](std::size_t c) {
      if (c == 0) ran_zero = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_zero, std::this_thread::get_id()) << chunks;
  }
}

TEST(Parallel, DedicatedPoolConstructsAndDrains) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.worker_threads(), 2u);
  std::atomic<int> calls{0};
  pool.run(8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

}  // namespace
}  // namespace tsv::num
