// retrust::service::Server — the multi-tenant repair service: one process,
// many datasets, one admission-controlled request queue.
//
// The Beskales et al. repair model is request-shaped by construction —
// every (dataset, Σ, τ) query is independent work over a cached context —
// so the service layer is mostly traffic engineering:
//
//   Server verbs ──▶ AdmissionController ──▶ RequestQueue ──▶ worker pool
//                     (shed or reject)        (fair lanes)     (exec::ThreadPool)
//                                                                  │
//                                             TenantRegistry ◀─────┘
//                                             (name → Session, lazy open)
//
// Guarantees:
//   * Admission rejects BEFORE enqueue: queue-full and per-tenant caps map
//     to kOverloaded, pre-expired deadlines to kBudgetExceeded, and
//     deadline-infeasible load (EWMA wait estimate) to kOverloaded.
//   * Per-tenant sequential consistency for any worker count: lanes are
//     FIFO, reads run concurrently, an apply_delta is a barrier (see
//     queue.h) — responses are bit-identical to serial per-Session
//     execution in submission order (tests/service_oracle_test.cc).
//   * Fair round-robin draining across tenants: a hot tenant delays only
//     itself.
//   * Cancellation never leaks work: a request cancelled while queued is
//     completed with kCancelled by the worker that pops it WITHOUT
//     touching a Session; an executing request is cancelled cooperatively
//     through exec::CancelToken.
//
// The in-process surface is the Server's callback verbs (Repair, Search,
// Sweep, Apply, SaveSnapshot, UnloadTenant) plus Cancel; AsFuture adapts
// any verb to a std::future. The wire surface is tools/retrust_server:
// newline-delimited JSON over a loopback socket, one verb per line
// (wire.h, event_loop.h).

#ifndef RETRUST_SERVICE_SERVER_H_
#define RETRUST_SERVICE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/api/session.h"
#include "src/exec/thread_pool.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/admission.h"
#include "src/service/queue.h"
#include "src/service/quota.h"
#include "src/service/stats.h"
#include "src/service/tenant_registry.h"

namespace retrust::service {

struct ServerOptions {
  /// Request-executing workers (clamped to >= 1). Parallelism across
  /// requests and tenants; each request runs its Session verb inline.
  int workers = 2;
  /// Global queued-request bound (0 = unbounded); admission sheds past it.
  size_t queue_capacity = 256;
  /// Per-tenant queued+executing cap (0 = unbounded).
  size_t per_tenant_inflight = 0;
  /// Size of the ONE pool shared by every tenant Session for context
  /// builds, sweeps and deltas (0/1 = none: sessions run serially inside a
  /// request, which is the right default — cross-request parallelism
  /// comes from `workers`).
  int session_threads = 0;
  /// Construct with dispatch paused (Resume() starts draining): gives
  /// tests deterministic queue states and ops a maintenance mode.
  bool start_paused = false;
  /// Defaults for tenants registered without explicit SessionOptions. Every
  /// tenant's pool is the server's session pool, whatever `pool` says.
  SessionOptions session_defaults;
  /// Tenant snapshot directory (empty = disabled): lets the registry
  /// auto-save dirty tenants to "<dir>/<name>.snap" when unloading, so
  /// unload_tenant and the byte budget work even after deltas.
  std::string snapshot_dir;
  /// Estimated-byte budget across loaded tenant Sessions (0 = unbounded):
  /// after each lazy load the registry unloads least-recently-used idle
  /// tenants until the budget fits (see TenantRegistry).
  size_t max_loaded_tenant_bytes = 0;
  /// Default per-tenant rate quota (quota.h; rate 0 = unlimited, the
  /// default). Per-tenant overrides via Server::SetTenantQuota or the
  /// load_tenant wire verb's quota_rate/quota_burst fields.
  QuotaLimits default_quota;
  /// Injectable quota clock (monotone seconds; null = steady_clock) so
  /// tests can step refill time deterministically.
  std::function<double()> quota_clock;
  /// Registry the server publishes into (null = MetricsRegistry::Global()).
  /// Tests and benches inject a private registry so concurrent servers do
  /// not share series (registry counters are get-or-create by name).
  obs::MetricsRegistry* metrics = nullptr;
  /// Finished-request records the flight recorder retains (clamped >= 1).
  size_t flight_recorder_capacity = 256;
  /// Requests slower than this (end-to-end) are logged to stderr with
  /// their span tree, rate-limited to one line per second (0 = disabled).
  double slow_request_seconds = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Tenant registration (TenantRegistry semantics; AddCsv is lazy).
  Status LoadTenant(const std::string& name, Instance data,
                    const std::vector<std::string>& fd_texts,
                    std::optional<SessionOptions> opts = std::nullopt);
  Status LoadCsvTenant(const std::string& name, std::string csv_path,
                       std::vector<std::string> fd_texts,
                       std::optional<SessionOptions> opts = std::nullopt);
  /// Lazy snapshot-backed tenant: the first request restores the file via
  /// Session::OpenSnapshot (warm caches included, no O(n²) build).
  Status LoadSnapshotTenant(const std::string& name,
                            std::string snapshot_path,
                            std::optional<SessionOptions> opts = std::nullopt);

  // --- request verbs -----------------------------------------------------
  // Each verb queues one request and invokes `done` EXACTLY once with the
  // reply — on a worker thread after execution, or synchronously on the
  // calling thread for pre-admission rejections. All server bookkeeping
  // (stats, lane slot, live table) is finished before `done` runs, so a
  // caller woken by it observes consistent stats. No thread blocks per
  // outstanding request; the wire front end (event_loop.h) calls these
  // directly, in-process callers wanting a future use AsFuture below.
  // Returns the request id for Cancel (0 for a non-null user cancel token,
  // rejected before it is assigned one).

  /// Algorithm 1 for one tenant. `req.deadline_seconds` is reinterpreted
  /// as the END-TO-END service deadline: queue wait counts against it and
  /// only the remainder is granted to the search. `req.cancel` must be
  /// null — cancellation goes through Cancel(id).
  uint64_t Repair(const std::string& tenant, const RepairRequest& req,
                  std::function<void(Result<RepairResponse>)> done);

  /// Algorithm 2 probe, same conventions as Repair.
  uint64_t Search(const std::string& tenant, const RepairRequest& req,
                  std::function<void(Result<SearchProbe>)> done);

  /// One queue unit running the whole batch through Session::RepairMany
  /// on the tenant's session — the τ-sweep verb. Per-request deadlines
  /// apply from execution start; the unit itself has no service deadline.
  uint64_t Sweep(const std::string& tenant, std::vector<RepairRequest> reqs,
                 std::function<void(std::vector<Result<RepairResponse>>)> done);

  /// Session::Apply as a queued write: a per-tenant barrier — it executes
  /// only after the tenant's earlier requests drained, and later ones
  /// wait for it (sequential consistency; see queue.h).
  uint64_t Apply(const std::string& tenant, DeltaBatch delta,
                 std::function<void(Result<ApplyStats>)> done);

  /// Saves the tenant's state to `path` (src/persist/ snapshot) as a
  /// queued WRITE: the per-tenant barrier means the file is a consistent
  /// cut — everything submitted before it is included, nothing after.
  /// The snapshot becomes the tenant's reload spec. Replies with the path.
  uint64_t SaveSnapshot(const std::string& tenant, std::string path,
                        std::function<void(Result<std::string>)> done);

  /// Unloads the tenant's Session (memory reclaimed; the next request
  /// reloads from its spec) as a queued WRITE, so it waits for the
  /// tenant's earlier requests. kInvalidArgument when the tenant's state
  /// cannot be reproduced from its spec and no snapshot_dir is set.
  uint64_t UnloadTenant(const std::string& tenant,
                        std::function<void(Result<bool>)> done);

  /// Cancels a live request: queued -> completed with kCancelled without
  /// touching any Session; executing -> cooperative CancelToken. False
  /// when the id is unknown or already finished.
  bool Cancel(uint64_t id);

  TenantRegistry& tenants() { return tenants_; }

  /// Sets (or clears, with unlimited limits) one tenant's rate quota.
  /// Takes effect for the NEXT admission decision; the bucket starts full.
  void SetTenantQuota(const std::string& tenant, QuotaLimits limits) {
    quota_.SetLimits(tenant, limits);
  }

  ServerStats Stats() const;
  /// Registry + queue view of one tenant (never forces a lazy open).
  Result<TenantStats> TenantStatsFor(const std::string& name) const;
  std::vector<std::string> TenantNames() const { return tenants_.Names(); }

  /// The registry this server publishes into. The wire `metrics` verb
  /// serves its ExpositionText().
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Newest-first flight records (0 = all retained). The wire
  /// `dump_recent` verb serves this.
  std::vector<obs::FlightRecord> RecentRequests(size_t limit = 0) const {
    return recorder_.Recent(limit);
  }
  /// Requests seen over the slow threshold (logged or rate-suppressed).
  uint64_t SlowRequestsSeen() const { return slow_log_.SlowSeen(); }

  /// Maintenance gate: Pause stops dispatch (admission keeps running, the
  /// queue fills), Resume drains. See ServerOptions::start_paused.
  void Pause();
  void Resume();

  /// Stops the server: fails queued requests with kCancelled, fires the
  /// cancel token of in-flight ones, joins the workers. Idempotent;
  /// the destructor calls it.
  void Stop();

  const ServerOptions& options() const { return opts_; }

 private:
  /// Shared submit path of every verb. `run` executes the verb against
  /// the resolved session; `on_fail` builds the verb's reply for a status
  /// (needed because a sweep's reply is a vector, not a Result); `done`
  /// receives the reply exactly once, AFTER all bookkeeping. Returns the
  /// request id.
  template <typename T>
  uint64_t Enqueue(const std::string& tenant, const char* verb, bool is_write,
                   double deadline_seconds,
                   std::shared_ptr<obs::RequestTrace> trace,
                   std::function<T(Session&, PendingRequest&)> run,
                   std::function<T(const Status&)> on_fail,
                   std::function<void(T)> done);

  void WorkerLoop();

  /// Queue-wait / service split of an executed verb.
  struct ExecTiming {
    double queue_wait = 0.0;
    double service = 0.0;
  };

  /// The "dispatched and replied" tally of every request a worker ran
  /// past the queue: end-to-end latency plus its tenant's completed count
  /// (ServerStats::completed is their sum). `executed` carries the
  /// queue-wait/service split when the verb itself ran; it is empty when
  /// the tenant failed to open or the verb threw.
  void CountCompleted(const PendingRequest& req,
                      std::optional<ExecTiming> executed);

  /// Terminal bookkeeping shared by the execute and fail paths: drops the
  /// request from the live table, writes its flight record (feeding the
  /// slow-request log) and releases its lane slot.
  void Retire(PendingRequest& req, const char* status_label,
              ExecTiming timing);

  /// Folds one executed search's counters into the per-policy aggregates
  /// (ServerStats::search_expansions is their sum) and into the request's
  /// flight-record fields; a repair served from the session's search-answer
  /// memo ran no search and records nothing. Called by the verb lambdas on
  /// the worker threads — lock-free atomics, no stats_mu_.
  void RecordSearchStats(const SearchStats& stats,
                         search::SearchPolicy policy,
                         PendingRequest* pending);

  /// The metrics probe body: samples every layer (request flow, queue,
  /// admission, quota, pools, latency histograms, search aggregates,
  /// tenant context memory, flight recorder) into `out`. Runs under the
  /// registry mutex at exposition time; must never call back into the
  /// registry.
  void CollectMetrics(obs::Collector& out) const;

  ServerOptions opts_;
  /// Shared session pool (context builds, sweeps and deltas of ALL
  /// tenants); null when session_threads <= 1. Declared before
  /// tenants_/queue_ so it outlives every Session using it.
  std::unique_ptr<exec::ThreadPool> session_pool_;
  TenantRegistry tenants_;
  /// Declared before admission_: the controller holds a pointer to it.
  QuotaManager quota_;
  AdmissionController admission_;
  RequestQueue queue_;

  /// Ids are assigned from 1 in submission order, so the last id issued is
  /// also the submitted-request count.
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> search_lb_prunes_{0};
  std::atomic<uint64_t> search_incumbents_{0};

  /// Per-policy search aggregates, indexed by search::SearchPolicy, for
  /// the `retrust_search_requests_total{policy=...}` series family.
  struct PolicySearchAgg {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> expansions{0};
    std::atomic<uint64_t> visited{0};
  };
  std::array<PolicySearchAgg, 3> policy_search_{};

  obs::MetricsRegistry* metrics_;
  obs::FlightRecorder recorder_;
  obs::SlowRequestLog slow_log_;

  mutable std::mutex stats_mu_;  ///< live_, histograms, completions
  std::map<uint64_t, std::shared_ptr<PendingRequest>> live_;
  LatencyHistogram latency_;      ///< end-to-end: submit -> reply
  LatencyHistogram queue_wait_;   ///< submit -> execution start
  LatencyHistogram service_;      ///< execution start -> reply built
  std::map<std::string, uint64_t> completions_by_tenant_;

  std::mutex stop_mu_;
  bool stopped_ = false;
  /// Declared last: destroyed first, joining the workers after Stop()
  /// released them from the queue.
  std::unique_ptr<exec::ThreadPool> worker_pool_;
  /// After worker_pool_ so it is destroyed FIRST: the probe samples every
  /// member above, and unregistration (under the registry mutex) means no
  /// exposition can still be running through this server afterwards.
  obs::MetricsRegistry::Registration metrics_probe_;
};

/// A request submitted through AsFuture: its server-assigned id (usable
/// with Server::Cancel) and the future carrying the reply. A rejected
/// request's future is already ready with the rejection status.
template <typename T>
struct Submitted {
  uint64_t id = 0;
  std::future<T> future;
};

namespace internal {
template <typename Done>
struct CallbackReply;
template <typename T>
struct CallbackReply<std::function<void(T)>> {
  using type = T;
};
}  // namespace internal

/// Future adapter over any callback verb, for in-process callers:
///
///   Submitted<Result<RepairResponse>> r =
///       AsFuture(server, &Server::Repair, "tenant", req);
///   Result<RepairResponse> reply = r.future.get();
///
/// `args` are the verb's arguments minus its trailing `done` callback,
/// which the adapter supplies.
template <typename... Params, typename... Args>
auto AsFuture(Server& server, uint64_t (Server::*verb)(Params...),
              Args&&... args) {
  using Done = std::tuple_element_t<sizeof...(Params) - 1,
                                    std::tuple<Params...>>;
  using T = typename internal::CallbackReply<Done>::type;
  auto promise = std::make_shared<std::promise<T>>();
  Submitted<T> out;
  out.future = promise->get_future();
  out.id = (server.*verb)(std::forward<Args>(args)..., [promise](T reply) {
    promise->set_value(std::move(reply));
  });
  return out;
}

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_SERVER_H_
