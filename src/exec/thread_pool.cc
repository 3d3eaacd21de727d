#include "src/exec/thread_pool.h"

#include <cassert>
#include <utility>

namespace retrust::exec {

namespace {
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(!shutdown_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::OnWorkerThread() { return t_worker_pool != nullptr; }

const ThreadPool* ThreadPool::CurrentWorkerPool() { return t_worker_pool; }

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    busy_.fetch_add(1, std::memory_order_relaxed);
    task();  // tasks never throw: TaskGroup::Execute catches everything
    busy_.fetch_sub(1, std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

PoolStats ThreadPool::GetStats() const {
  PoolStats stats;
  stats.threads = num_threads();
  stats.busy = busy_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queued = queue_.size();
  }
  return stats;
}

std::unique_ptr<ThreadPool> MakePool(int threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

TaskGroup::~TaskGroup() {
  // A TaskGroup destroyed without Wait() (e.g. during unwinding after Run
  // threw inline) must still not leave tasks running with dangling state.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::Run(std::function<void()> task) {
  int64_t index = next_index_++;
  // Inline only for SAME-POOL nesting (a worker waiting on its own pool's
  // queue would deadlock); a different pool is a safe fan-out.
  if (pool_ == nullptr || pool_->num_threads() <= 1 ||
      ThreadPool::CurrentWorkerPool() == pool_) {
    Execute(task, index);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task), index] {
    Execute(task, index);
    // Notify UNDER the lock: the waiter may destroy this TaskGroup the
    // moment it observes pending_ == 0, so the notify must complete before
    // the lock is released.
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    done_cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    failed_index_ = -1;
    std::rethrow_exception(e);
  }
}

void TaskGroup::Execute(const std::function<void()>& task, int64_t index) {
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_index_ < 0 || index < failed_index_) {
      failed_index_ = index;
      error_ = std::current_exception();
    }
  }
}

}  // namespace retrust::exec
