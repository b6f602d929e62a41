#include "common/executor.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace copydetect {
namespace {

TEST(Executor, SerialModeRunsInlineOnCaller) {
  Executor executor(1);
  EXPECT_EQ(executor.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  size_t runs = 0;  // non-atomic on purpose: serial mode is inline
  executor.ParallelFor(100, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 100u);
}

TEST(Executor, ZeroThreadsPicksHardwareConcurrency) {
  Executor executor(0);
  EXPECT_GE(executor.num_threads(), 1u);
}

TEST(Executor, ParallelForCoversEveryIndexOnce) {
  Executor executor(4);
  std::vector<std::atomic<int>> hits(1000);
  executor.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, EmptyRangeIsNoop) {
  Executor executor(3);
  executor.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(Executor, MoreThreadsThanWork) {
  Executor executor(16);
  std::vector<std::atomic<int>> hits(3);
  executor.ParallelFor(3, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, NestedParallelForCompletes) {
  // A nested call runs inline on the worker: one that queued its
  // chunks and blocked would deadlock once every worker nested. The
  // outer call still parallelizes.
  Executor executor(2);
  std::atomic<int> total{0};
  executor.ParallelFor(8, [&](size_t) {
    executor.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Executor, NullHandleHelperRunsInline) {
  size_t runs = 0;
  ParallelFor(nullptr, 10, [&](size_t) { ++runs; });
  EXPECT_EQ(runs, 10u);
}

TEST(Executor, ReusableAcrossManyRounds) {
  // The whole point of the shared runtime: one pool, many rounds.
  Executor executor(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    executor.ParallelFor(64, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

TEST(Executor, ShutdownDrainsThenDegradesToInline) {
  // Regression: Shutdown must reject no submitted work — everything
  // in flight finishes, and later ParallelFor calls still cover every
  // index (inline on the caller instead of on the dead pool).
  Executor executor(4);
  std::atomic<int> total{0};
  executor.ParallelFor(256, [&](size_t) { total.fetch_add(1); });
  executor.Shutdown();
  EXPECT_EQ(total.load(), 256);
  std::thread::id caller = std::this_thread::get_id();
  executor.ParallelFor(32, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 256 + 32);
}

TEST(Executor, ShutdownInSerialModeIsNoop) {
  Executor executor(1);
  executor.Shutdown();
  size_t runs = 0;
  executor.ParallelFor(5, [&](size_t) { ++runs; });
  EXPECT_EQ(runs, 5u);
}

TEST(Executor, ShutdownIsIdempotent) {
  Executor executor(2);
  executor.Shutdown();
  executor.Shutdown();
  SUCCEED();
}

TEST(Executor, ShutdownIsIdempotentAndConcurrencySafe) {
  // Concurrent callers all return after the one drain, and later calls
  // are no-ops.
  Executor executor(2);
  std::atomic<int> total{0};
  executor.ParallelFor(16, [&](size_t) { total.fetch_add(1); });
  std::thread racer([&executor] { executor.Shutdown(); });
  executor.Shutdown();
  racer.join();
  executor.Shutdown();
  EXPECT_EQ(total.load(), 16);
}

TEST(Executor, ShutdownDrainsInFlightParallelFor) {
  // Shutdown while a ParallelFor on another thread has its chunks
  // queued: the drain runs every one of them before the workers are
  // joined, so every index runs exactly once and the caller returns.
  for (int round = 0; round < 20; ++round) {
    Executor executor(4);
    std::vector<std::atomic<int>> hits(256);
    std::atomic<bool> started{false};
    std::thread caller([&] {
      executor.ParallelFor(hits.size(), [&](size_t i) {
        started.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        hits[i].fetch_add(1);
      });
    });
    while (!started.load()) std::this_thread::yield();
    executor.Shutdown();
    caller.join();
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(Executor, ConcurrentParallelForCallsComplete) {
  // Each ParallelFor call tracks its own completion, so two callers
  // sharing one executor cannot wait on each other's chunks.
  Executor executor(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread t1([&] {
    executor.ParallelFor(500, [&a](size_t) { a.fetch_add(1); });
  });
  std::thread t2([&] {
    executor.ParallelFor(500, [&b](size_t) { b.fetch_add(1); });
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 500);
}

TEST(Executor, ParallelSumMatchesSequential) {
  Executor executor(6);
  const size_t n = 100000;
  std::vector<uint64_t> values(n);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<uint64_t> total{0};
  executor.ParallelFor(n, [&](size_t i) {
    total.fetch_add(values[i], std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

// The worker-pool cases of the ThreadPool suite, kept under their names
// now that the pool is the executor's own set of workers.

TEST(ThreadPool, ParallelForCoversAllIndices) {
  Executor executor(8);
  std::vector<std::atomic<int>> hits(1000);
  executor.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  Executor executor(2);
  executor.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: a nested ParallelFor used to enqueue its chunks and
  // block until they finished, which can never happen once every
  // worker is blocked the same way (this test used to trip the ctest
  // timeout). Nested calls now run inline.
  Executor executor(2);
  std::atomic<int> total{0};
  executor.ParallelFor(16, [&](size_t) {
    executor.ParallelFor(16, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16 * 16);
}

}  // namespace
}  // namespace copydetect
