// A deliberately simple execution substrate: a fixed set of workers pulling
// from one FIFO queue, plus a TaskGroup for fork/join with deterministic
// exception propagation. No work stealing, no task priorities — determinism
// comes from callers assembling results by task/chunk index, never from
// scheduling order.
//
// The exec/ subsystem holds only primitives (ThreadPool, TaskGroup,
// ParallelFor, CancelToken) that depend on nothing but the standard
// library. Every parallel entry point takes a borrowed, nullable
// ThreadPool*; MakePool is the one factory, and its callers (the service,
// benches, tests) own the pools they hand down. See DESIGN.md for the
// determinism contract.

#ifndef RETRUST_EXEC_THREAD_POOL_H_
#define RETRUST_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace retrust::exec {

/// Point-in-time utilization snapshot of one pool, sampled by the metrics
/// registry probe (src/obs/metrics.h). `busy`/`queued` are instantaneous;
/// `executed` is monotone.
struct PoolStats {
  int threads = 0;        ///< worker count (fixed at construction)
  int busy = 0;           ///< workers currently inside a task
  size_t queued = 0;      ///< tasks waiting in the FIFO
  uint64_t executed = 0;  ///< tasks completed since construction
};

/// A fixed-size pool of worker threads executing submitted closures in FIFO
/// order. Construction spawns the workers; destruction drains nothing —
/// callers must have waited for their tasks (TaskGroup does).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Prefer TaskGroup/ParallelFor over raw Submit.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this process's pool workers.
  static bool OnWorkerThread();

  /// The pool whose worker the calling thread is (nullptr off-pool).
  /// ParallelFor and TaskGroup inline a nested parallel section only when
  /// it targets the SAME pool the caller is a worker of — that nesting
  /// would deadlock (the worker would wait on a queue only it can drain).
  /// Targeting a DIFFERENT pool is a fan-out, not a nesting hazard, and
  /// runs parallel: a multi-session server's request workers (pool A)
  /// schedule their sessions' sweeps and deltas on the shared session
  /// pool (pool B). Cross-pool WAITING must stay acyclic — satisfied
  /// here because session-pool tasks never wait on request workers.
  static const ThreadPool* CurrentWorkerPool();

  /// Utilization snapshot (two relaxed atomic loads plus one lock for the
  /// queue depth); safe from any thread.
  PoolStats GetStats() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::atomic<int> busy_{0};
  std::atomic<uint64_t> executed_{0};
  std::vector<std::thread> workers_;
};

/// Creates a pool of `threads` workers, or nullptr when `threads` <= 1
/// (serial). All parallel entry points accept a nullable pool and fall
/// back to serial inline execution on nullptr; results are bit-identical
/// for any thread count.
std::unique_ptr<ThreadPool> MakePool(int threads);

/// Fork/join scope: Run() tasks, then Wait() for all of them. If tasks
/// threw, Wait rethrows the exception of the EARLIEST-submitted failing
/// task (deterministic regardless of scheduling). Wait must be called
/// before destruction whenever tasks were submitted.
class TaskGroup {
 public:
  /// `pool` may be null; tasks then run inline in Run().
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits one task. Runs inline when there is no pool, the pool has a
  /// single worker, or the caller is itself a pool worker (nesting guard).
  void Run(std::function<void()> task);

  /// Blocks until every submitted task finished; rethrows the first (by
  /// submission index) captured exception, if any.
  void Wait();

 private:
  void Execute(const std::function<void()>& task, int64_t index);

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  int64_t pending_ = 0;
  int64_t next_index_ = 0;
  int64_t failed_index_ = -1;
  std::exception_ptr error_;
};

}  // namespace retrust::exec

#endif  // RETRUST_EXEC_THREAD_POOL_H_
