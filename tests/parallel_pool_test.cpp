#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace sepdc::par {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.run([&] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleThreadStillCompletes) {
  ThreadPool pool(1);  // zero workers: everything runs via helping waits
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 50; ++i) group.run([&] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 50);
}

// Recursive fork-join must not deadlock even when tasks outnumber workers.
int fib(ThreadPool& pool, int n) {
  if (n <= 1) return n;
  int a = 0, b = 0;
  TaskGroup group(pool);
  group.run([&] { a = fib(pool, n - 1); });
  b = fib(pool, n - 2);
  group.wait();
  return a + b;
}

TEST(ThreadPool, NestedForkJoin) {
  ThreadPool pool(2);
  EXPECT_EQ(fib(pool, 15), 610);
}

TEST(ThreadPool, ExceptionPropagatesFromWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, StatsCountEveryTaskExactly) {
  ThreadPool pool(3);
  constexpr int kTasks = 200;
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < kTasks; ++i)
    group.run([&] { counter.fetch_add(1); });
  group.wait();

  auto s = pool.stats();
  EXPECT_EQ(s.tasks_executed, static_cast<std::uint64_t>(kTasks));
  // Each executed task contributes one wait and one run observation.
  EXPECT_EQ(s.task_wait.count(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.task_run.count(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.concurrency, pool.concurrency());
  EXPECT_GT(s.lifetime_ns, 0u);
  // busy_ns is the sum of task-body durations, so it can never exceed
  // concurrency * lifetime — utilization is a fraction.
  EXPECT_GE(s.utilization(), 0.0);
  EXPECT_LE(s.utilization(), 1.0);
  EXPECT_EQ(s.busy_ns, s.task_run.sum());
}

// Task bodies that take real time, so busy_ns dominates the lifetime.
void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

void nested_work(ThreadPool& pool, int depth) {
  if (depth == 0) {
    parallel_for(
        pool, 0, 8,
        [](std::size_t) { spin_for(std::chrono::microseconds(20)); }, 1);
    return;
  }
  parallel_invoke(
      pool, [&] { nested_work(pool, depth - 1); },
      [&] { nested_work(pool, depth - 1); });
}

// Nested fork-join runs inner tasks inside the helping waits of outer
// tasks. Their time is already part of the outer task's wall time, so
// counting it again pushed utilization far past 1.
TEST(ThreadPool, NestedHelpedTasksCountBusyTimeOnce) {
  ThreadPool pool(4);
  nested_work(pool, 6);
  auto s = pool.stats();
  EXPECT_GT(s.busy_ns, 0u);
  EXPECT_LE(s.utilization(), 1.0);
}

TEST(ThreadPool, StatsCountHelpedTasksToo) {
  ThreadPool pool(1);  // zero workers: every task runs via helping waits
  TaskGroup group(pool);
  for (int i = 0; i < 25; ++i) group.run([] {});
  group.wait();
  EXPECT_EQ(pool.stats().tasks_executed, 25u);
}

TEST(ThreadPool, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.wait();  // no tasks: must not hang
  SUCCEED();
}

TEST(ThreadPool, GroupReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  group.run([&] { counter.fetch_add(1); });
  group.wait();
  group.run([&] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ConcurrencyCountsCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3u);
}

// Protocol assertion for the static-analysis pass: the worker count is
// immutable after construction, so concurrency() must be callable from
// any thread, lock-free, at any time — including while tasks run and
// other threads hammer the queue. Under TSan this test also proves the
// unguarded read is race-free; under -Wthread-safety the `const` member
// is what lets concurrency() compile without holding the pool mutex.
TEST(ThreadPool, ConcurrencyIsImmutableAndLockFreeUnderLoad) {
  ThreadPool pool(4);
  const unsigned expected = pool.concurrency();
  std::atomic<int> work{0};
  std::atomic<bool> mismatch{false};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i)
    group.run([&] {
      if (pool.concurrency() != expected) mismatch.store(true);
      work.fetch_add(1);
    });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i)
        if (pool.concurrency() != expected) mismatch.store(true);
    });
  group.wait();
  for (auto& t : readers) t.join();
  EXPECT_EQ(work.load(), 64);
  EXPECT_FALSE(mismatch.load());
}

// Protocol assertion for the shutdown flag: stopping_ is only ever
// written/read under the pool mutex, so destroying a pool while workers
// sleep on the condvar, or immediately after a burst of work, must be
// clean — no lost wakeup, no worker touching the flag unlocked.
TEST(ThreadPool, ShutdownWithIdleAndBusyWorkersIsClean) {
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) {
      // Idle teardown: workers are parked in the condvar wait.
      std::this_thread::yield();
    } else {
      // Busy teardown: destroy right after the last task drains.
      TaskGroup group(pool);
      std::atomic<int> n{0};
      for (int i = 0; i < 128; ++i) group.run([&] { n.fetch_add(1); });
      group.wait();
      EXPECT_EQ(n.load(), 128);
    }
  }
  SUCCEED();
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  ThreadPool& pool = ThreadPool::global();
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 10; ++i) group.run([&] { counter.fetch_add(1); });
  group.wait();
  EXPECT_EQ(counter.load(), 10);
  EXPECT_GE(pool.concurrency(), 1u);
}

TEST(ThreadPool, SubmitReturnsWaitableHandle) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  Waitable handle = pool.submit([&] { value.store(42); });
  handle.wait();
  EXPECT_EQ(value.load(), 42);
  EXPECT_FALSE(handle.valid());  // consumed by wait()
}

TEST(ThreadPool, SubmitWorksOnZeroWorkerPool) {
  ThreadPool pool(1);  // zero workers: wait() must help to make progress
  std::atomic<int> value{0};
  Waitable handle = pool.submit([&] { value.store(7); });
  handle.wait();
  EXPECT_EQ(value.load(), 7);
}

TEST(ThreadPool, SubmitExceptionRethrownFromWait) {
  ThreadPool pool(2);
  Waitable handle =
      pool.submit([] { throw std::runtime_error("submit boom"); });
  EXPECT_THROW(handle.wait(), std::runtime_error);
}

TEST(ThreadPool, WaitableDestructorJoinsAndSwallows) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  {
    Waitable handle = pool.submit([&] { value.store(5); });
    Waitable moved = std::move(handle);
    EXPECT_FALSE(handle.valid());
    // `moved` destroyed without wait(): must join, not crash.
  }
  EXPECT_EQ(value.load(), 5);
  {
    Waitable erring = pool.submit([] { throw std::runtime_error("x"); });
    // Destructor swallows the error.
  }
  SUCCEED();
}

TEST(ThreadPool, ManyConcurrentGroups) {
  ThreadPool pool(4);
  std::vector<long> results(8, 0);
  TaskGroup outer(pool);
  for (std::size_t g = 0; g < results.size(); ++g) {
    outer.run([&, g] {
      TaskGroup inner(pool);
      std::atomic<long> sum{0};
      for (int i = 1; i <= 100; ++i) inner.run([&, i] { sum.fetch_add(i); });
      inner.wait();
      results[g] = sum.load();
    });
  }
  outer.wait();
  for (long r : results) EXPECT_EQ(r, 5050);
}

}  // namespace
}  // namespace sepdc::par
