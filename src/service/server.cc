#include "src/service/server.h"

#include <utility>

namespace retrust::service {

namespace {

ServerOptions Normalized(ServerOptions opts) {
  if (opts.workers < 1) opts.workers = 1;
  return opts;
}

SessionOptions WithPool(SessionOptions opts, exec::ThreadPool* pool) {
  opts.pool = pool;
  return opts;
}

/// Flight-record status label of a type-erased reply: a Result carries its
/// own status, a sweep reply is labelled by its first non-ok entry.
template <typename X>
const char* ReplyStatusLabel(const Result<X>& reply) {
  return reply.ok() ? "ok" : StatusCodeName(reply.status().code());
}

template <typename X>
const char* ReplyStatusLabel(const std::vector<Result<X>>& replies) {
  for (const Result<X>& reply : replies) {
    if (!reply.ok()) return StatusCodeName(reply.status().code());
  }
  return "ok";
}

/// The common reply-from-status factory for Result<T> verbs.
template <typename T>
std::function<Result<T>(const Status&)> FailAsResult() {
  return [](const Status& status) { return Result<T>(status); };
}

Status UserCancelTokenError() {
  return Status::Error(
      StatusCode::kInvalidArgument,
      "RepairRequest::cancel must be null: service requests are "
      "cancelled via Server::Cancel(id)");
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(Normalized(std::move(opts))),
      session_pool_(exec::MakePool(opts_.session_threads)),
      tenants_(WithPool(opts_.session_defaults, session_pool_.get()),
               opts_.snapshot_dir, opts_.max_loaded_tenant_bytes),
      quota_(opts_.default_quota, opts_.quota_clock),
      admission_({.queue_capacity = opts_.queue_capacity,
                  .per_tenant_inflight = opts_.per_tenant_inflight,
                  .workers = opts_.workers,
                  .quota = &quota_}),
      queue_(&admission_),
      metrics_(opts_.metrics != nullptr ? opts_.metrics
                                        : &obs::MetricsRegistry::Global()),
      recorder_(opts_.flight_recorder_capacity),
      slow_log_(opts_.slow_request_seconds, /*min_interval_seconds=*/1.0),
      worker_pool_(std::make_unique<exec::ThreadPool>(opts_.workers)),
      metrics_probe_(metrics_->RegisterProbe(
          [this](obs::Collector& out) { CollectMetrics(out); })) {
  if (opts_.start_paused) queue_.Pause();
  for (int i = 0; i < opts_.workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }
}

Server::~Server() { Stop(); }

Status Server::LoadTenant(const std::string& name, Instance data,
                          const std::vector<std::string>& fd_texts,
                          std::optional<SessionOptions> opts) {
  return tenants_.Add(name, std::move(data), fd_texts, std::move(opts));
}

Status Server::LoadCsvTenant(const std::string& name, std::string csv_path,
                             std::vector<std::string> fd_texts,
                             std::optional<SessionOptions> opts) {
  return tenants_.AddCsv(name, std::move(csv_path), std::move(fd_texts),
                         std::move(opts));
}

Status Server::LoadSnapshotTenant(const std::string& name,
                                  std::string snapshot_path,
                                  std::optional<SessionOptions> opts) {
  return tenants_.AddSnapshot(name, std::move(snapshot_path),
                              std::move(opts));
}

void Server::Pause() { queue_.Pause(); }

void Server::Resume() { queue_.Resume(); }

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.Shutdown(Status::Error(StatusCode::kCancelled, "server stopped"));
  {
    // Courtesy cancel for in-flight work so shutdown is prompt; the
    // cooperative token means they finish their current state cleanly.
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (auto& [id, req] : live_) req->cancel.Cancel();
  }
  worker_pool_.reset();  // joins: in-flight requests drain first
}

template <typename T>
uint64_t Server::Enqueue(const std::string& tenant, const char* verb,
                         bool is_write, double deadline_seconds,
                         std::shared_ptr<obs::RequestTrace> trace,
                         std::function<T(Session&, PendingRequest&)> run,
                         std::function<T(const Status&)> on_fail,
                         std::function<void(T)> done) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);

  auto reject = [&](Status status) { done(on_fail(status)); };
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) {
      reject(Status::Error(StatusCode::kCancelled, "server stopped"));
      return id;
    }
  }
  // Unknown tenants fail fast, before they can occupy a queue slot or
  // grow the fairness ring.
  if (!tenants_.Contains(tenant)) {
    reject(Status::Error(StatusCode::kInvalidArgument,
                         "unknown tenant '" + tenant + "'"));
    return id;
  }

  auto req = std::make_shared<PendingRequest>();
  req->id = id;
  req->tenant = tenant;
  req->is_write = is_write;
  req->verb = verb;
  req->trace = std::move(trace);
  req->deadline_seconds = deadline_seconds;
  req->submitted = std::chrono::steady_clock::now();
  // Both wrappers finish ALL bookkeeping (live_ removal, counters,
  // latency) BEFORE invoking the completion, so a caller that wakes from
  // its callback observes consistent stats — no "reply arrived but
  // completed counter still says 0" window.
  req->execute = [this, done, run = std::move(run)](
                     Session& session, PendingRequest& pending) {
    const auto exec_start = std::chrono::steady_clock::now();
    ExecTiming timing;
    timing.queue_wait = std::chrono::duration<double>(
                            exec_start - pending.submitted)
                            .count();
    if (pending.trace != nullptr) {
      pending.trace->root.StartChild("queue_wait")
          ->set_seconds(timing.queue_wait);
      pending.trace->service = pending.trace->root.StartChild("service");
    }
    T reply = run(session, pending);
    if (pending.trace != nullptr) pending.trace->service->Finish();
    // Two different clocks on purpose: the admission EWMA needs pure
    // SERVICE time (its wait estimate multiplies by queue depth — feeding
    // it end-to-end latency would double-count the queue and shed
    // feasible requests), while the client-facing histogram reports
    // end-to-end submit -> reply latency.
    timing.service = SecondsSince(exec_start);
    admission_.ObserveLatency(timing.service);
    CountCompleted(pending, timing);
    Retire(pending, ReplyStatusLabel(reply), timing);
    done(std::move(reply));
  };
  req->fail = [this, done, self = req.get(),
               on_fail = std::move(on_fail)](const Status& status) {
    Retire(*self, StatusCodeName(status.code()), ExecTiming{});
    done(on_fail(status));
  };

  // Live BEFORE Push: a worker may pop and finish the request before Push
  // returns, and Cancel must be able to find it the moment the caller
  // holds the id.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    live_[req->id] = req;
  }
  Status admitted = queue_.Push(req);
  if (!admitted.ok()) req->fail(admitted);
  return id;
}

void Server::WorkerLoop() {
  while (std::shared_ptr<PendingRequest> req = queue_.Pop()) {
    // The terminal wrapper (execute or fail) releases the lane slot just
    // before completing the reply; the request's session work is done by
    // then, so the apply_delta barrier still covers the whole execution.
    req->release = [this, r = req.get()] { queue_.OnFinished(*r); };
    if (req->cancel.Cancelled()) {
      // Cancelled while queued: completed WITHOUT touching a Session — no
      // pool work is ever leaked for it.
      ++cancelled_;
      req->fail(
          Status::Error(StatusCode::kCancelled, "cancelled while queued"));
      continue;
    }
    if (req->DeadlineExpired()) {
      ++expired_;
      req->fail(Status::Error(
          StatusCode::kBudgetExceeded,
          "deadline expired after " + std::to_string(req->ElapsedSeconds()) +
              "s in queue"));
      continue;
    }
    Result<std::shared_ptr<Session>> session = tenants_.Get(req->tenant);
    Status failed = session.status();
    if (session.ok()) {
      try {
        req->execute(**session, *req);
        continue;
      } catch (const std::exception& e) {
        failed = Status::Error(StatusCode::kInternal, e.what());
      }
    }
    // A failed lazy open or a throwing verb is still a dispatched-and-
    // replied request, so the admitted-request counters partition cleanly
    // (stats.h).
    CountCompleted(*req, std::nullopt);
    req->fail(failed);
  }
}

void Server::CountCompleted(const PendingRequest& req,
                            std::optional<ExecTiming> executed) {
  const double latency = req.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  latency_.Record(latency);
  if (executed) {
    queue_wait_.Record(executed->queue_wait);
    service_.Record(executed->service);
  }
  ++completions_by_tenant_[req.tenant];
}

void Server::Retire(PendingRequest& req, const char* status_label,
                    ExecTiming timing) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    live_.erase(req.id);
  }
  obs::FlightRecord record;
  record.id = req.id;
  record.tenant = req.tenant;
  record.verb = req.verb;
  record.status = status_label;
  record.queue_wait_seconds = timing.queue_wait;
  record.service_seconds = timing.service;
  record.total_seconds = req.ElapsedSeconds();
  record.search_states_visited = req.search_states_visited;
  record.search_expansions = req.search_expansions;
  record.traced = req.trace != nullptr;
  slow_log_.MaybeLog(record, req.trace.get());
  recorder_.Record(std::move(record));
  if (req.release) {
    std::function<void()> release = std::move(req.release);
    req.release = nullptr;
    release();
  }
}

bool Server::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second->cancel.Cancel();
  return true;
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.queue_depth = queue_.Depth();
  stats.in_flight = queue_.InFlight();
  stats.workers = opts_.workers;
  stats.submitted = next_id_.load() - 1;
  stats.cancelled = cancelled_.load();
  stats.expired_in_queue = expired_.load();
  admission_.Snapshot(&stats);
  for (const PolicySearchAgg& agg : policy_search_) {
    stats.search_expansions += agg.expansions.load(std::memory_order_relaxed);
  }
  stats.search_lb_prunes = search_lb_prunes_.load();
  stats.search_incumbent_improvements = search_incumbents_.load();
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const auto& [tenant, completed] : completions_by_tenant_) {
    stats.completed += completed;
  }
  stats.p50_latency_seconds = latency_.Percentile(0.5);
  stats.p99_latency_seconds = latency_.Percentile(0.99);
  stats.p50_queue_wait_seconds = queue_wait_.Percentile(0.5);
  stats.p99_queue_wait_seconds = queue_wait_.Percentile(0.99);
  stats.p50_service_seconds = service_.Percentile(0.5);
  stats.p99_service_seconds = service_.Percentile(0.99);
  return stats;
}

void Server::RecordSearchStats(const SearchStats& stats,
                               search::SearchPolicy policy,
                               PendingRequest* pending) {
  // Every search pushes at least its root state; a repair answered from
  // the session's search-answer memo ran none and records nothing.
  if (stats.states_generated == 0) return;
  search_lb_prunes_.fetch_add(static_cast<uint64_t>(stats.lb_prunes),
                              std::memory_order_relaxed);
  search_incumbents_.fetch_add(
      static_cast<uint64_t>(stats.incumbent_improvements),
      std::memory_order_relaxed);
  const size_t idx = static_cast<size_t>(policy);
  if (idx < policy_search_.size()) {
    PolicySearchAgg& agg = policy_search_[idx];
    agg.requests.fetch_add(1, std::memory_order_relaxed);
    agg.expansions.fetch_add(static_cast<uint64_t>(stats.expansions),
                             std::memory_order_relaxed);
    agg.visited.fetch_add(static_cast<uint64_t>(stats.states_visited),
                          std::memory_order_relaxed);
  }
  if (pending != nullptr) {
    // Accumulate (a sweep calls this once per batch entry) for the
    // request's flight record.
    pending->search_states_visited += stats.states_visited;
    pending->search_expansions += static_cast<uint64_t>(stats.expansions);
  }
}

void Server::CollectMetrics(obs::Collector& out) const {
  // Request flow, queue and admission come from ONE Stats() snapshot — the
  // same numbers the `stats` verb reports, each read from its single
  // owner. The probe only samples them, so two servers publishing into the
  // same registry never mix counts into one shared Counter.
  const ServerStats stats = Stats();
  out.CounterSample("retrust_requests_submitted_total", {}, stats.submitted);
  out.CounterSample("retrust_requests_completed_total", {}, stats.completed);
  out.CounterSample("retrust_requests_cancelled_total", {}, stats.cancelled);
  out.CounterSample("retrust_requests_expired_total", {},
                    stats.expired_in_queue);
  for (const auto& [reason, count] :
       {std::pair<const char*, uint64_t>{"queue_full",
                                         stats.rejected_queue_full},
        {"tenant_cap", stats.rejected_tenant_cap},
        {"deadline", stats.rejected_deadline},
        {"quota", stats.rejected_quota}}) {
    out.CounterSample("retrust_requests_rejected_total", {{"reason", reason}},
                      count);
  }
  // Every quota denial is an admission rejection at the quota gate.
  out.CounterSample("retrust_quota_denials_total", {}, stats.rejected_quota);
  out.Gauge("retrust_queue_depth", {}, static_cast<double>(stats.queue_depth));
  out.Gauge("retrust_requests_in_flight", {},
            static_cast<double>(stats.in_flight));
  out.Gauge("retrust_admission_latency_ewma_seconds", {},
            admission_.LatencyEwmaSeconds());

  // Exec pools. The request workers park inside WorkerLoop for the whole
  // process lifetime, so their pool's busy count is meaningless — request
  // concurrency is the queue's in-flight gauge above. The shared session
  // pool runs real short tasks and its utilization is genuine.
  out.Gauge("retrust_request_workers", {}, static_cast<double>(stats.workers));
  if (session_pool_ != nullptr) {
    const exec::PoolStats pool = session_pool_->GetStats();
    out.Gauge("retrust_session_pool_threads", {},
              static_cast<double>(pool.threads));
    out.Gauge("retrust_session_pool_busy", {},
              static_cast<double>(pool.busy));
    out.Gauge("retrust_session_pool_queued", {},
              static_cast<double>(pool.queued));
    out.CounterSample("retrust_session_pool_tasks_total", {}, pool.executed);
  }

  // Latency split, as quantile series.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out.Histogram("retrust_request_latency_seconds", {}, latency_);
    out.Histogram("retrust_queue_wait_seconds", {}, queue_wait_);
    out.Histogram("retrust_service_seconds", {}, service_);
  }

  // Search engine aggregates, total and per policy.
  out.CounterSample("retrust_search_expansions_total", {},
                    stats.search_expansions);
  out.CounterSample("retrust_search_lb_prunes_total", {},
                    stats.search_lb_prunes);
  out.CounterSample("retrust_search_incumbents_total", {},
                    stats.search_incumbent_improvements);
  for (size_t i = 0; i < policy_search_.size(); ++i) {
    const PolicySearchAgg& agg = policy_search_[i];
    const uint64_t requests = agg.requests.load(std::memory_order_relaxed);
    if (requests == 0) continue;  // don't mint series for unused policies
    const obs::Labels labels = {
        {"policy", search::PolicyName(static_cast<search::SearchPolicy>(i))}};
    out.CounterSample("retrust_search_requests_total", labels, requests);
    out.CounterSample("retrust_search_policy_expansions_total", labels,
                      agg.expansions.load(std::memory_order_relaxed));
    out.CounterSample("retrust_search_policy_visited_total", labels,
                      agg.visited.load(std::memory_order_relaxed));
  }

  // Session layer: context memory summed across loaded tenants (StatsFor
  // never forces a lazy open).
  size_t context_bytes = 0;
  int registered = 0, loaded = 0;
  for (const std::string& name : tenants_.Names()) {
    Result<TenantStats> tenant = tenants_.StatsFor(name);
    if (!tenant.ok()) continue;
    ++registered;
    if (!tenant->loaded) continue;
    ++loaded;
    context_bytes += tenant->bytes_estimate;
  }
  out.Gauge("retrust_tenants_registered", {},
            static_cast<double>(registered));
  out.Gauge("retrust_tenants_loaded", {}, static_cast<double>(loaded));
  out.Gauge("retrust_context_cache_bytes_estimate", {},
            static_cast<double>(context_bytes));

  out.CounterSample("retrust_flight_records_total", {},
                    recorder_.TotalRecorded());
  out.CounterSample("retrust_slow_requests_total", {}, slow_log_.SlowSeen());
}

Result<TenantStats> Server::TenantStatsFor(const std::string& name) const {
  Result<TenantStats> stats = tenants_.StatsFor(name);
  if (!stats.ok()) return stats;
  auto [queued, executing] = queue_.LaneLoad(name);
  stats->queued = queued;
  stats->executing = executing;
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = completions_by_tenant_.find(name);
  stats->completed = it == completions_by_tenant_.end() ? 0 : it->second;
  return stats;
}

// ----------------------------------------------------------------- verbs

uint64_t Server::Repair(const std::string& tenant, const RepairRequest& req,
                        std::function<void(Result<RepairResponse>)> done) {
  if (req.cancel != nullptr) {
    done(Result<RepairResponse>(UserCancelTokenError()));
    return 0;
  }
  return Enqueue<Result<RepairResponse>>(
      tenant, "repair", /*is_write=*/false, req.deadline_seconds, req.trace,
      [this, req](Session& session, PendingRequest& pending) {
        RepairRequest r = req;
        r.deadline_seconds = pending.RemainingDeadline();
        r.cancel = &pending.cancel;
        Result<RepairResponse> response = session.Repair(r);
        if (response.ok()) {
          RecordSearchStats(response->repair.stats, req.policy, &pending);
        }
        return response;
      },
      FailAsResult<RepairResponse>(), std::move(done));
}

uint64_t Server::Search(const std::string& tenant, const RepairRequest& req,
                        std::function<void(Result<SearchProbe>)> done) {
  if (req.cancel != nullptr) {
    done(Result<SearchProbe>(UserCancelTokenError()));
    return 0;
  }
  return Enqueue<Result<SearchProbe>>(
      tenant, "search", /*is_write=*/false, req.deadline_seconds, req.trace,
      [this, req](Session& session, PendingRequest& pending) {
        RepairRequest r = req;
        r.deadline_seconds = pending.RemainingDeadline();
        r.cancel = &pending.cancel;
        Result<SearchProbe> probe = session.Search(r);
        if (probe.ok()) {
          RecordSearchStats(probe->result.stats, req.policy, &pending);
        }
        return probe;
      },
      FailAsResult<SearchProbe>(), std::move(done));
}

uint64_t Server::Sweep(
    const std::string& tenant, std::vector<RepairRequest> reqs,
    std::function<void(std::vector<Result<RepairResponse>>)> done) {
  const size_t n = reqs.size();
  return Enqueue<std::vector<Result<RepairResponse>>>(
      tenant, "sweep", /*is_write=*/false, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [this, reqs = std::move(reqs)](Session& session,
                                     PendingRequest& pending) {
        std::vector<RepairRequest> wired = reqs;
        for (RepairRequest& r : wired) r.cancel = &pending.cancel;
        std::vector<Result<RepairResponse>> replies =
            session.RepairMany(wired);
        for (size_t i = 0; i < replies.size(); ++i) {
          if (replies[i].ok()) {
            RecordSearchStats(replies[i]->repair.stats, wired[i].policy,
                              &pending);
          }
        }
        return replies;
      },
      [n](const Status& status) {
        return std::vector<Result<RepairResponse>>(n, status);
      },
      std::move(done));
}

uint64_t Server::Apply(const std::string& tenant, DeltaBatch delta,
                       std::function<void(Result<ApplyStats>)> done) {
  return Enqueue<Result<ApplyStats>>(
      tenant, "apply_delta", /*is_write=*/true, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [this, tenant, delta = std::move(delta)](Session& session,
                                                PendingRequest&) {
        Result<ApplyStats> stats = session.Apply(delta);
        if (stats.ok()) tenants_.Recharge(tenant, session);
        return stats;
      },
      FailAsResult<ApplyStats>(), std::move(done));
}

uint64_t Server::SaveSnapshot(const std::string& tenant, std::string path,
                              std::function<void(Result<std::string>)> done) {
  // A WRITE so the lane barrier quiesces the tenant first: the file is a
  // consistent cut between everything submitted before and after. The
  // registry call (not a bare Session::SaveSnapshot) also records the
  // snapshot as the tenant's reload spec.
  return Enqueue<Result<std::string>>(
      tenant, "save_snapshot", /*is_write=*/true, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [this, tenant, path = std::move(path)](
          Session&, PendingRequest&) -> Result<std::string> {
        Status saved = tenants_.SaveSnapshot(tenant, path);
        if (!saved.ok()) return saved;
        return path;
      },
      FailAsResult<std::string>(), std::move(done));
}

uint64_t Server::UnloadTenant(const std::string& tenant,
                              std::function<void(Result<bool>)> done) {
  // Also a WRITE: earlier requests drain first, later ones queue behind
  // and trigger the transparent reload. tolerated_pins = 1 because the
  // worker loop executing THIS verb holds the session it resolved.
  return Enqueue<Result<bool>>(
      tenant, "unload_tenant", /*is_write=*/true, /*deadline_seconds=*/0.0,
      /*trace=*/nullptr,
      [this, tenant](Session&, PendingRequest&) -> Result<bool> {
        Status unloaded = tenants_.Unload(tenant, /*tolerated_pins=*/1);
        if (!unloaded.ok()) return unloaded;
        return true;
      },
      FailAsResult<bool>(), std::move(done));
}

}  // namespace retrust::service
