// Per-tenant token-bucket rate quotas: the wire-level throttle IN FRONT of
// admission control. Capacity gates (queue depth, in-flight caps) protect
// the server from aggregate overload; the quota protects OTHER TENANTS
// from one tenant's request RATE — a flooding tenant is shed with
// kOverloaded before its requests ever occupy queue slots or skew the
// admission EWMA, so a quiet tenant's latency never pays for a noisy
// neighbour's burst.
//
// Classic token bucket per tenant: `rate` tokens/second accrue up to
// `burst`; each admitted request spends one token. rate = 0 means
// UNLIMITED (the default — quotas are opt-in per tenant or via the server
// default), so existing deployments and the zero-reject smoke are
// unaffected until a limit is configured. Buckets start FULL: a tenant's
// first `burst` requests always pass, which is what makes small
// deterministic tests possible with a real clock.
//
// The clock is injectable (seconds, monotone) so refill behaviour is unit-
// testable without sleeping; production uses steady_clock.

#ifndef RETRUST_SERVICE_QUOTA_H_
#define RETRUST_SERVICE_QUOTA_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace retrust::service {

/// Rate limits of one tenant (or the server-wide default). rate <= 0 means
/// unlimited; burst <= 0 defaults to max(rate, 1) — one second of refill,
/// at least one request.
struct QuotaLimits {
  double rate = 0.0;   ///< tokens (requests) per second; <= 0 = unlimited
  double burst = 0.0;  ///< bucket capacity; <= 0 = max(rate, 1)

  bool unlimited() const { return rate <= 0.0; }
  double effective_burst() const {
    if (burst > 0.0) return burst;
    return rate > 1.0 ? rate : 1.0;
  }
};

/// Thread-safe registry of per-tenant token buckets. One instance lives in
/// the Server and is consulted by AdmissionController::Admit (under the
/// queue lock via the admission mutex, so acquire-and-enqueue is atomic
/// with respect to the depth checks).
class QuotaManager {
 public:
  /// `clock` returns monotone seconds; null uses steady_clock. Tests
  /// inject a fake to step time deterministically.
  explicit QuotaManager(QuotaLimits defaults = {},
                        std::function<double()> clock = nullptr);

  /// Installs (or clears, with unlimited limits) a tenant override. The
  /// bucket refills from full under the NEW limits: tightening a quota
  /// mid-flight grants at most one fresh burst, never a stale larger one.
  void SetLimits(const std::string& tenant, QuotaLimits limits);

  /// The limits a request for `tenant` is checked against (override if
  /// set, else the default).
  QuotaLimits LimitsFor(const std::string& tenant) const;

  /// Spends one token for `tenant`; false = quota exhausted (the caller
  /// rejects with kOverloaded). Unlimited tenants always pass and keep no
  /// bucket state.
  bool TryAcquire(const std::string& tenant);

  /// Tokens currently available to `tenant` (capped at burst; burst when
  /// unlimited-by-default and no bucket exists). For tests and stats.
  double AvailableTokens(const std::string& tenant) const;

 private:
  struct Bucket {
    QuotaLimits limits;
    double tokens = 0.0;
    double last_refill = 0.0;
    bool has_override = false;
  };

  /// Refills `bucket` to `now`. Caller holds mu_.
  static void Refill(Bucket* bucket, double now);

  double Now() const { return clock_(); }

  QuotaLimits defaults_;
  std::function<double()> clock_;
  mutable std::mutex mu_;
  mutable std::map<std::string, Bucket> buckets_;
};

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_QUOTA_H_
