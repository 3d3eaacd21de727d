// Admission control for the request queue: decide AT ENQUEUE TIME whether
// a request can be served at all, so overload is shed at the cheap end of
// the pipeline instead of timing out deep inside it.
//
// Four independent gates, checked in order:
//
//   1. pre-expired deadline  — a request whose deadline is already in the
//      past can only ever produce kBudgetExceeded; reject it before it
//      occupies a queue slot (Status kBudgetExceeded).
//   2. tenant rate quota     — the per-tenant token bucket (quota.h), when
//      one is configured: a tenant past its rate is shed with kOverloaded
//      BEFORE the capacity gates, so its flood never competes for queue
//      slots with in-quota tenants (Status kOverloaded).
//   3. capacity              — global queue depth bound and the per-tenant
//      in-flight cap (queued + executing), both Status kOverloaded. The
//      per-tenant cap is what keeps one hot dataset from monopolizing the
//      queue the fair drain order protects.
//   4. deadline feasibility  — with a deadline set and an observed-latency
//      EWMA available, a request that would (in expectation) still be
//      queued when its deadline fires is shed with kOverloaded rather
//      than admitted to die in the queue.
//
// The controller is pure policy plus counters; the RequestQueue calls
// Admit() under its own lock so the check and the push are atomic.

#ifndef RETRUST_SERVICE_ADMISSION_H_
#define RETRUST_SERVICE_ADMISSION_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "src/api/status.h"
#include "src/service/quota.h"
#include "src/service/stats.h"

namespace retrust::service {

class AdmissionController {
 public:
  struct Options {
    /// Global bound on queued requests (0 = unbounded).
    size_t queue_capacity = 256;
    /// Per-tenant bound on queued + executing requests (0 = unbounded).
    size_t per_tenant_inflight = 0;
    /// Worker count, for the expected-wait estimate of gate 4 (clamped to
    /// >= 1).
    int workers = 1;
    /// Per-tenant token buckets (gate 2). Nullable (= no rate limiting);
    /// NOT owned — the Server owns the manager and must outlive this.
    QuotaManager* quota = nullptr;
  };

  explicit AdmissionController(Options opts) : opts_(opts) {
    if (opts_.workers < 1) opts_.workers = 1;
  }

  /// Policy decision for one request about to be enqueued. `queue_depth`
  /// and `tenant_load` (queued + executing for the request's tenant) are
  /// read under the queue lock by the caller. `deadline_seconds` is the
  /// request's remaining budget (0 = none; negative = already expired).
  Status Admit(double deadline_seconds, size_t queue_depth,
               size_t tenant_load, const std::string& tenant);

  /// Feeds gate 4's EWMA with one request's SERVICE time (execution
  /// only — the wait estimate multiplies by queue depth, so queue wait
  /// must not be baked into the samples or it gets double-counted).
  void ObserveLatency(double seconds);

  /// Copies the rejection tallies (queue_full, tenant_cap, deadline,
  /// quota) into a stats snapshot — the one place the `stats` verb and the
  /// metrics probe read them from.
  void Snapshot(ServerStats* out) const;

  /// Current service-latency EWMA (gate 4's estimate base); 0 until the
  /// first observation. Exposed as a gauge.
  double LatencyEwmaSeconds() const;

 private:
  Options opts_;
  mutable std::mutex mu_;  ///< guards the EWMA and the counters
  double ewma_seconds_ = 0.0;
  bool have_ewma_ = false;
  uint64_t rejected_queue_full_ = 0;
  uint64_t rejected_tenant_cap_ = 0;
  uint64_t rejected_deadline_ = 0;
  uint64_t rejected_quota_ = 0;
};

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_ADMISSION_H_
