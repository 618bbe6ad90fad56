// A from-scratch fork-join thread pool.
//
// The divide-and-conquer algorithms in this library spawn both recursive
// branches and join; a naive pool deadlocks when every worker blocks inside
// a join. This pool is recursion-safe: `TaskGroup::wait` *helps* — the
// waiting thread keeps executing queued tasks (from any group) until its
// group drains — so arbitrarily nested fork-join cannot starve.
//
// Exceptions thrown by tasks are captured and rethrown from wait() (first
// one wins), so invariant violations in parallel sections surface in tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sepdc::par {

class ThreadPool;

// Tracks a set of spawned tasks; wait() blocks (helping) until all complete.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup();

  // Spawns fn to run asynchronously under this group.
  void run(std::function<void()> fn);

  // Blocks until every spawned task has finished, executing queued work
  // while waiting. Rethrows the first task exception, if any.
  void wait();

 private:
  friend class ThreadPool;
  ThreadPool& pool_;
  std::atomic<std::size_t> pending_{0};
  Mutex error_mutex_;
  std::exception_ptr first_error_ SEPDC_GUARDED_BY(error_mutex_);

  void record_error(std::exception_ptr e) SEPDC_EXCLUDES(error_mutex_);
};

// Handle for one task submitted with ThreadPool::submit. wait() blocks
// until the task finishes, helping with queued work meanwhile (so waiting
// is safe even on a pool with zero workers), and rethrows the task's
// exception. Destroying an un-waited handle waits too, but swallows the
// error — call wait() when the outcome matters.
class Waitable {
 public:
  Waitable() = default;
  Waitable(Waitable&& other) noexcept = default;
  Waitable& operator=(Waitable&& other) noexcept;
  ~Waitable();

  bool valid() const { return group_ != nullptr; }

  // Blocks (helping) until the task completes; rethrows its exception.
  // The handle becomes invalid afterwards.
  void wait();

 private:
  friend class ThreadPool;
  explicit Waitable(std::unique_ptr<TaskGroup> group)
      : group_(std::move(group)) {}

  std::unique_ptr<TaskGroup> group_;
};

// Plain-value snapshot of a pool's execution counters. Tasks that ran
// via a helping wait count too — the helping thread is doing the pool's
// work, just on a caller's stack. busy_ns counts only each thread's
// outermost task: a task helped from inside another task's wait is
// already part of that task's wall time.
struct ThreadPoolStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t busy_ns = 0;      // wall time inside outermost task bodies
  std::uint64_t lifetime_ns = 0;  // pool age at snapshot time
  unsigned concurrency = 0;
  metrics::HistogramSnapshot task_wait;  // ns, enqueue -> start
  metrics::HistogramSnapshot task_run;   // ns, task body duration

  // Fraction of the pool's capacity (concurrency x lifetime) spent
  // executing task bodies. A pure fork-join phase approaches 1; an idle
  // service pool sits near 0.
  double utilization() const {
    if (lifetime_ns == 0 || concurrency == 0) return 0.0;
    return static_cast<double>(busy_ns) /
           (static_cast<double>(concurrency) *
            static_cast<double>(lifetime_ns));
  }
};

class ThreadPool {
 public:
  // threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Worker threads plus the caller; the natural fan-out for parallel_for.
  unsigned concurrency() const { return workers_ + 1; }

  // Execution counters since construction; exact at quiescence (same
  // relaxed-atomic discipline as ServiceStats).
  ThreadPoolStats stats() const;

  // Detached-until-waited submission: schedules fn like a one-task group
  // and returns a handle any thread may later wait on. This is what a
  // service thread uses to run work (a snapshot rebuild, a batch flush)
  // without blocking at the call site.
  Waitable submit(std::function<void()> fn);

  // Process-wide pool (constructed on first use). The environment variable
  // SEPDC_THREADS overrides the size.
  static ThreadPool& global();

 private:
  friend class TaskGroup;

  using Clock = std::chrono::steady_clock;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
    Clock::time_point enqueued{};
  };

  // Resolves the worker-thread count for a requested pool size (0 = use
  // hardware_concurrency; the calling thread always participates).
  static unsigned resolve_workers(unsigned threads);

  void enqueue(Task task) SEPDC_EXCLUDES(mutex_);
  // Pops one task if available; returns false when the queue is empty.
  bool try_run_one() SEPDC_EXCLUDES(mutex_);
  void worker_loop() SEPDC_EXCLUDES(mutex_);
  // Helping wait used by TaskGroup::wait.
  void wait_for(TaskGroup& group) SEPDC_EXCLUDES(mutex_);
  // Runs one dequeued task: records wait/run latency, settles the
  // group's pending count, wakes helping waiters.
  void run_task(Task task) SEPDC_EXCLUDES(mutex_);

  // Lock protocol: mutex_ guards the task queue and the shutdown flag.
  // workers_ is immutable after construction (hence readable anywhere,
  // e.g. concurrency()); task completion counts live in each group's
  // atomic pending_. Condition variables: work_available_ signals a new
  // task or shutdown to sleeping workers; task_done_ signals any task
  // completion to helping waiters.
  const unsigned workers_;
  std::vector<std::thread> threads_ SEPDC_UNGUARDED_OK(
      "filled in the ctor before any worker can observe the pool; joined "
      "in the dtor after stopping_ is set — never touched in between");
  Mutex mutex_;
  CondVar work_available_;
  CondVar task_done_;
  std::deque<Task> queue_ SEPDC_GUARDED_BY(mutex_);
  bool stopping_ SEPDC_GUARDED_BY(mutex_) = false;

  // Observability (lock-free; see ThreadPoolStats).
  const Clock::time_point created_ = Clock::now();
  metrics::Histogram task_wait_;
  metrics::Histogram task_run_;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

}  // namespace sepdc::par
