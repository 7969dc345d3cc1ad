#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "rim/parallel/parallel_for.hpp"
#include "rim/parallel/thread_pool.hpp"

namespace rim::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ThreadCountMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::shared().submit([&counter] { counter.fetch_add(1); });
  ThreadPool::shared().wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  parallel_for(0, touched.size(),
               [&](std::size_t i) { touched[i].fetch_add(1); }, pool, 64);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; }, pool);
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) { EXPECT_EQ(i, 7u); ++count; }, pool);
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, OffsetRange) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(i); }, pool, 8);
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

}  // namespace
}  // namespace rim::parallel
