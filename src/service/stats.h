// Observability types of the service layer: the ServerStats / TenantStats
// snapshots Server::Stats() and the `stats` wire verb report. The
// latency histogram they are built from lives in src/obs/histogram.h,
// shared with the process-wide metrics registry; the alias below keeps
// service call sites unchanged.

#ifndef RETRUST_SERVICE_STATS_H_
#define RETRUST_SERVICE_STATS_H_

#include <cstdint>
#include <string>

#include "src/api/session.h"
#include "src/obs/histogram.h"

namespace retrust::service {

using LatencyHistogram = obs::LatencyHistogram;

/// One snapshot of the server's request-flow counters. An admitted
/// request lands in exactly one terminal counter: expired_in_queue,
/// cancelled, or completed (dispatched to a worker and replied —
/// including tenant lazy-open failures and verb errors). Rejected_*
/// count requests turned away at admission, before enqueue; only
/// synchronous pre-admission failures (unknown tenant, stopped server,
/// non-null user cancel token) complete their future outside every
/// terminal counter, so submitted >= rejected() + terminal counters.
struct ServerStats {
  size_t queue_depth = 0;     ///< requests waiting right now
  size_t in_flight = 0;       ///< requests executing right now
  int workers = 0;

  uint64_t submitted = 0;
  uint64_t rejected_queue_full = 0;  ///< kOverloaded: global depth bound
  uint64_t rejected_tenant_cap = 0;  ///< kOverloaded: per-tenant in-flight cap
  uint64_t rejected_deadline = 0;    ///< pre-expired or infeasible deadline
  uint64_t rejected_quota = 0;       ///< kOverloaded: token bucket exhausted
  uint64_t expired_in_queue = 0;     ///< deadline passed while waiting
  uint64_t cancelled = 0;            ///< cancelled before execution started
  uint64_t completed = 0;            ///< executed to a reply

  double p50_latency_seconds = 0.0;  ///< submit -> reply, executed requests
  double p99_latency_seconds = 0.0;

  // End-to-end latency split into its two phases, so overload diagnosis
  // reads straight off the stats verb: a high queue-wait p99 with a flat
  // service p99 means not enough workers (or a flooding tenant); a high
  // service p99 means the requests themselves got slower.
  double p50_queue_wait_seconds = 0.0;  ///< submit -> execution start
  double p99_queue_wait_seconds = 0.0;
  double p50_service_seconds = 0.0;     ///< execution start -> reply built
  double p99_service_seconds = 0.0;

  // Search-engine aggregates across every repair/search/sweep executed by
  // this server (src/search/engine.cc counters, summed per request).
  uint64_t search_expansions = 0;
  uint64_t search_lb_prunes = 0;
  uint64_t search_incumbent_improvements = 0;

  uint64_t rejected() const {
    return rejected_queue_full + rejected_tenant_cap + rejected_deadline +
           rejected_quota;
  }
};

/// Per-tenant snapshot: queue/execution state plus the Session-level
/// observability (data version, root δP, cardinality, context memory
/// estimate) the `stats` wire verb reports.
struct TenantStats {
  std::string name;
  bool loaded = false;  ///< lazy CSV tenants stay unloaded until first use
  size_t queued = 0;
  size_t executing = 0;
  uint64_t completed = 0;

  // Valid only when loaded:
  uint64_t data_version = 0;
  int64_t root_delta_p = 0;
  int num_tuples = 0;
  size_t bytes_estimate = 0;  ///< Session::ContextBytesEstimate()
};

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_STATS_H_
