#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace cosmo {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, WaitAllWaitsForEveryTaskBeforeRethrowing) {
  // A failing first task must not let the waiter return while a later task
  // still runs: that task may read the waiter's frame (a chunked decode
  // reads the caller's stream buffer).
  ThreadPool pool(2);
  std::atomic<bool> slow_done{false};
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit([] { throw std::runtime_error("first"); }));
  futures.push_back(pool.submit([&slow_done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    slow_done = true;
  }));
  EXPECT_THROW(wait_all(futures), std::runtime_error);
  EXPECT_TRUE(slow_done.load());
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ParallelFor, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  parallel_for(&pool, touched.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++touched[i];
  }, 16);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, InlineWhenSmallOrNoPool) {
  std::vector<int> v(100, 0);
  parallel_for(nullptr, v.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) v[i] = 1;
  });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 100);
}

TEST(ParallelFor, ZeroElementsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(&pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 100000,
                   [](std::size_t b, std::size_t) {
                     if (b == 0) throw std::runtime_error("chunk failed");
                   },
                   16),
      std::runtime_error);
}

TEST(GlobalPool, IsSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

}  // namespace
}  // namespace cosmo
