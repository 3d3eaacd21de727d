// The bounded MPMC request queue of the service layer, with two scheduling
// guarantees layered on top of plain FIFO:
//
//   * FAIRNESS ACROSS TENANTS — requests live in per-tenant FIFO lanes and
//     workers drain lanes in round-robin order, so a tenant that floods
//     the queue delays only itself: every other tenant still gets one
//     dispatch per round. (Admission's per-tenant cap bounds how much of
//     the shared queue one tenant can occupy in the first place.)
//
//   * SEQUENTIAL CONSISTENCY PER TENANT — within a lane only the head is
//     dispatchable, reads (repair/search/sweep) may execute concurrently
//     with each other, and a write (apply_delta) is a barrier: it waits
//     until the tenant's in-flight requests drain and blocks the lane
//     while it runs. Combined with Session's shared/exclusive snapshot
//     lock this makes every tenant's response stream deterministic — equal
//     to serial per-Session execution in submission order — for ANY worker
//     count, which is the service-level analogue of the exec/ determinism
//     contract (and what tests/service_oracle_test.cc enforces).
//
// Admission control runs inside Push under the queue lock, so the
// depth/cap check and the enqueue are atomic.

#ifndef RETRUST_SERVICE_QUEUE_H_
#define RETRUST_SERVICE_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/exec/cancel.h"
#include "src/obs/trace.h"
#include "src/service/admission.h"

namespace retrust::service {

/// One queued unit of work, type-erased over its verb so the queue and the
/// workers never switch on request kinds: `execute` runs the verb against
/// the tenant's session and completes the caller's reply; `fail`
/// completes it with a status without touching any session (cancellation,
/// deadline expiry in queue, shutdown, tenant resolution failure).
struct PendingRequest {
  uint64_t id = 0;
  std::string tenant;
  bool is_write = false;  ///< apply_delta: the per-tenant barrier verb

  /// Verb name for the flight recorder ("repair", "sweep", ...). Always a
  /// string literal, so a plain pointer is safe.
  const char* verb = "";

  /// Per-request trace, null unless the caller opted in. Shared so the
  /// trace outlives the queue entry (the reply callback still reads it
  /// after the request is released).
  std::shared_ptr<obs::RequestTrace> trace;

  /// Search-layer counters of the executed verb, filled by the verb
  /// closure (via Server::RecordSearchStats) for the flight record. Zero
  /// for non-search verbs.
  int64_t search_states_visited = 0;
  uint64_t search_expansions = 0;

  /// End-to-end deadline budget in seconds from submission (0 = none;
  /// negative = pre-expired, rejected at admission). Queue wait counts
  /// against it; the remainder is what the Session-level request gets.
  double deadline_seconds = 0.0;
  std::chrono::steady_clock::time_point submitted{};

  /// Owned by the pending entry and kept alive (shared_ptr) until the
  /// request reaches a terminal state, so a cooperative cancel can never
  /// dangle. Server::Cancel fires it; a worker that pops an already-fired
  /// token fails the request instead of executing it — queued
  /// cancellations never reach a Session or leak pool work.
  exec::CancelToken cancel;

  std::function<void(Session&, PendingRequest&)> execute;
  std::function<void(const Status&)> fail;

  /// Set by the worker right after Pop: releases this request's lane slot
  /// (RequestQueue::OnFinished). The terminal wrappers invoke it exactly
  /// once BEFORE completing the caller's reply, so a caller woken by the
  /// reply never observes the request still counted in_flight.
  /// Unset for requests that were never popped (admission rejections,
  /// shutdown drain). Only the thread driving the request touches it.
  std::function<void()> release;

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         submitted)
        .count();
  }
  /// True when the deadline budget is spent (never for "no deadline").
  bool DeadlineExpired() const {
    return deadline_seconds > 0.0 && ElapsedSeconds() >= deadline_seconds;
  }
  /// What is left of the budget for the Session-level request: the service
  /// deadline minus queue wait, floored at a hair above zero so an almost-
  /// expired request still reports kBudgetExceeded through the normal
  /// search path. 0 = no deadline.
  double RemainingDeadline() const {
    if (deadline_seconds <= 0.0) return 0.0;
    double remaining = deadline_seconds - ElapsedSeconds();
    return remaining > 1e-9 ? remaining : 1e-9;
  }
};

class RequestQueue {
 public:
  explicit RequestQueue(AdmissionController* admission)
      : admission_(admission) {}

  /// Admission-checked enqueue: atomically consults the controller with
  /// the current depth and tenant load, then enqueues on success. A
  /// non-ok return means the request was NOT enqueued (the caller
  /// completes its reply with the status).
  Status Push(std::shared_ptr<PendingRequest> req);

  /// Blocks until a request is dispatchable (per the lane rules above),
  /// the queue is unpaused, or Shutdown; returns nullptr on shutdown.
  /// The popped request counts as executing for its lane until
  /// OnFinished; the caller MUST call OnFinished exactly once for it.
  std::shared_ptr<PendingRequest> Pop();

  /// Releases the popped request's lane slot and wakes blocked workers
  /// (a drained write barrier may make several reads dispatchable).
  void OnFinished(const PendingRequest& req);

  /// Pause/Resume gate dispatch (not admission): Pop blocks while paused.
  /// Pausing makes queue states deterministic for tests and gives ops a
  /// maintenance mode where traffic accumulates instead of failing.
  void Pause();
  void Resume();

  /// Fails every queued request with `status`, rejects future pushes, and
  /// wakes every blocked Pop to return nullptr.
  void Shutdown(const Status& status);

  size_t Depth() const;
  size_t InFlight() const;
  /// (queued, executing) for one tenant's lane.
  std::pair<size_t, size_t> LaneLoad(const std::string& tenant) const;

 private:
  struct Lane {
    std::deque<std::shared_ptr<PendingRequest>> fifo;
    int executing_reads = 0;
    bool executing_write = false;

    size_t Load() const {
      return fifo.size() + static_cast<size_t>(executing_reads) +
             (executing_write ? 1u : 0u);
    }
    bool HeadDispatchable() const {
      if (fifo.empty()) return false;
      if (executing_write) return false;  // barrier running: lane blocked
      return !fifo.front()->is_write || executing_reads == 0;
    }
  };

  /// Index into ring_ of the next dispatchable lane, or -1. Caller holds
  /// mu_.
  int FindDispatchable() const;

  AdmissionController* admission_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Lane> lanes_;
  std::vector<std::string> ring_;  ///< lane keys in first-seen order
  size_t cursor_ = 0;              ///< round-robin position in ring_
  size_t depth_ = 0;               ///< total queued (not executing)
  size_t in_flight_ = 0;           ///< popped but not yet OnFinished
  bool paused_ = false;
  bool shutdown_ = false;
};

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_QUEUE_H_
