#include "src/service/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "src/service/quota.h"
#include "src/service/server.h"
#include "src/service/wire.h"

namespace retrust::service {

// --- LineDecoder ---------------------------------------------------------

void LineDecoder::Feed(const char* data, size_t n) {
  size_t pos = 0;
  while (pos < n) {
    const void* nl = std::memchr(data + pos, '\n', n - pos);
    size_t end = nl == nullptr
                     ? n
                     : static_cast<size_t>(static_cast<const char*>(nl) -
                                           data);
    size_t chunk = end - pos;
    if (discarding_) {
      // Swallow the rest of a blown line without buffering it.
      if (nl != nullptr) {
        discarding_ = false;
        Line marker;
        marker.oversized = true;
        ready_.push_back(std::move(marker));
      }
    } else if (partial_.size() + chunk > max_) {
      partial_.clear();
      partial_.shrink_to_fit();
      if (nl != nullptr) {
        Line marker;
        marker.oversized = true;
        ready_.push_back(std::move(marker));
      } else {
        discarding_ = true;  // marker emitted when the newline arrives
      }
    } else {
      partial_.append(data + pos, chunk);
      if (nl != nullptr) {
        if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
        if (!partial_.empty()) {
          Line line;
          line.text = std::move(partial_);
          ready_.push_back(std::move(line));
        }
        partial_.clear();
      }
    }
    pos = nl == nullptr ? n : end + 1;
  }
}

bool LineDecoder::Pop(Line* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

// --- EventLoop -----------------------------------------------------------

struct EventLoop::Conn {
  explicit Conn(size_t max_line_bytes) : decoder(max_line_bytes) {}

  int fd = -1;
  LineDecoder decoder;          // loop thread only
  bool read_eof = false;        // loop thread only

  std::mutex mu;                // guards everything below
  std::string write_buf;        // [write_off, size) still pending
  size_t write_off = 0;
  std::deque<std::string> inbox;  // decoded request lines, wire order
  bool strand_active = false;     // a reader task is draining the inbox
  /// Inboxed or dispatched lines whose reply has not been queued yet.
  size_t outstanding = 0;
  bool closed = false;            // fd gone; drop late replies
  std::shared_ptr<Wake> wake;
};

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

double MonotoneSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void EventLoop::Wake::Signal() {
  std::lock_guard<std::mutex> lock(mu);
  if (write_fd < 0) return;
  char byte = 1;
  // The pipe being full is fine — poll() is waking up anyway.
  [[maybe_unused]] ssize_t n = ::write(write_fd, &byte, 1);
}

EventLoop::EventLoop(Server* server) : EventLoop(server, Options()) {}

EventLoop::EventLoop(Server* server, Options opts)
    : server_(server), opts_(std::move(opts)) {
  if (opts_.reader_threads < 1) opts_.reader_threads = 1;
  if (opts_.max_pipeline_depth < 1) opts_.max_pipeline_depth = 1;
}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error(StatusCode::kIoError,
                         std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::Error(
        StatusCode::kIoError, std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 256) != 0) {
    Status status = Status::Error(
        StatusCode::kIoError, std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    Status status = Status::Error(
        StatusCode::kIoError, std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  SetNonBlocking(pipe_fds[0]);
  SetNonBlocking(pipe_fds[1]);
  wake_read_fd_ = pipe_fds[0];
  wake_ = std::make_shared<Wake>();
  wake_->write_fd = pipe_fds[1];

  // Resolve one counter per known verb up front: line dispatch then bumps
  // a sharded counter without ever touching the registry mutex.
  for (const char* verb :
       {"load_tenant", "repair", "sweep", "apply_delta", "stats",
        "load_snapshot_tenant", "save_snapshot", "unload_tenant", "shutdown",
        "metrics", "dump_recent"}) {
    verb_counters_[verb] = &server_->metrics()->GetCounter(
        "retrust_wire_requests_total", {{"verb", verb}});
  }

  reader_pool_ = std::make_unique<exec::ThreadPool>(opts_.reader_threads);
  loop_thread_ = std::thread(&EventLoop::LoopThread, this);
  return Status::Ok();
}

void EventLoop::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void EventLoop::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);
  RequestShutdown();
  if (wake_ != nullptr) wake_->Signal();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Drains strand tasks the loop queued before it exited; their replies
  // hit closed conns and are dropped.
  reader_pool_.reset();
  if (wake_ != nullptr) {
    std::lock_guard<std::mutex> lock(wake_->mu);
    if (wake_->write_fd >= 0) ::close(wake_->write_fd);
    wake_->write_fd = -1;
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  wake_read_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void EventLoop::LoopThread() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;
  double drain_deadline = 0.0;  // set once stopping is observed
  for (;;) {
    bool stopping = stopping_.load();
    if (stopping && drain_deadline == 0.0) {
      drain_deadline = MonotoneSeconds() + opts_.drain_grace_seconds;
    }

    pfds.clear();
    polled.clear();
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    if (!stopping) pfds.push_back({listen_fd_, POLLIN, 0});
    size_t fixed = pfds.size();

    size_t pending = 0;  // outstanding requests + unflushed reply bytes
    std::vector<std::shared_ptr<Conn>> drained;
    for (auto& entry : conns_) {
      const std::shared_ptr<Conn>& conn = entry.second;
      short events = 0;
      size_t buffered, inflight;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        buffered = conn->write_buf.size() - conn->write_off;
        inflight = conn->outstanding;
        if (buffered > 0) events |= POLLOUT;
      }
      bool paused = buffered >= opts_.write_buffer_limit ||
                    inflight >= opts_.max_pipeline_depth;
      if (!stopping && !conn->read_eof && !paused) events |= POLLIN;
      pending += buffered + inflight;
      if (conn->read_eof && buffered == 0 && inflight == 0) {
        // Half-closed peer with nothing left to deliver.
        drained.push_back(conn);
        continue;
      }
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }
    for (const std::shared_ptr<Conn>& conn : drained) CloseConn(conn);

    if (stopping &&
        (pending == 0 || MonotoneSeconds() >= drain_deadline)) {
      break;
    }

    int timeout_ms = stopping ? 50 : -1;
    int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (pfds[0].revents != 0) {
      char scratch[256];
      while (::read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
      }
    }
    if (!stopping && pfds.size() > 1 && pfds[1].fd == listen_fd_ &&
        pfds[1].revents != 0) {
      AcceptNew();
    }
    for (size_t i = fixed; i < pfds.size(); ++i) {
      const std::shared_ptr<Conn>& conn = polled[i - fixed];
      short re = pfds[i].revents;
      if (re == 0) continue;
      bool ok = true;
      if (re & (POLLERR | POLLNVAL)) ok = false;
      if (ok && (re & POLLOUT)) ok = HandleWritable(conn);
      if (ok && (re & (POLLIN | POLLHUP))) ok = HandleReadable(conn);
      if (!ok) CloseConn(conn);
    }
  }

  for (auto& entry : conns_) {
    const std::shared_ptr<Conn>& conn = entry.second;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
    }
    ::close(conn->fd);
  }
  connection_count_.store(0, std::memory_order_relaxed);
  conns_.clear();
}

void EventLoop::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient — poll fires again
    SetNonBlocking(fd);
    auto conn = std::make_shared<Conn>(opts_.max_line_bytes);
    conn->fd = fd;
    conn->wake = wake_;
    conns_.emplace(fd, std::move(conn));
    connection_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool EventLoop::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char chunk[64 << 10];
  ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
  if (n == 0) {
    conn->read_eof = true;  // half-close: finish pending replies first
    return true;
  }
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  conn->decoder.Feed(chunk, static_cast<size_t>(n));
  LineDecoder::Line line;
  bool kick = false;
  while (conn->decoder.Pop(&line)) {
    if (line.oversized) {
      // The content was discarded while streaming, so there is no id to
      // echo; one bounded error reply per blown line.
      Json reply = ErrorJson(Status::Error(
          StatusCode::kInvalidArgument,
          "request line exceeds max_line_bytes (" +
              std::to_string(opts_.max_line_bytes) + ")"));
      QueueReply(conn, reply.Dump(), /*finishes_request=*/false);
      continue;
    }
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->inbox.push_back(std::move(line.text));
    ++conn->outstanding;
    if (!conn->strand_active) {
      conn->strand_active = true;
      kick = true;
    }
  }
  if (kick) {
    // Only the loop thread submits reader tasks, and only while the pool
    // is alive — DrainStrand never re-submits itself (it loops instead),
    // so this cannot race pool teardown.
    std::shared_ptr<Conn> ref = conn;
    reader_pool_->Submit([this, ref] { DrainStrand(ref); });
  }
  return true;
}

bool EventLoop::HandleWritable(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  while (conn->write_off < conn->write_buf.size()) {
    ssize_t n = ::send(conn->fd, conn->write_buf.data() + conn->write_off,
                       conn->write_buf.size() - conn->write_off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn->write_off == conn->write_buf.size()) {
    conn->write_buf.clear();
    conn->write_off = 0;
  } else if (conn->write_off > (64u << 10)) {
    conn->write_buf.erase(0, conn->write_off);
    conn->write_off = 0;
  }
  return true;
}

void EventLoop::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  ::close(conn->fd);
  conns_.erase(conn->fd);
  connection_count_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::QueueReply(const std::shared_ptr<Conn>& conn,
                           const std::string& line, bool finishes_request) {
  bool needs_wake;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (finishes_request && conn->outstanding > 0) --conn->outstanding;
    // Wake the loop only on the empty→non-empty transition (or when the
    // reply is dropped on a closed conn and only the counters moved):
    // while bytes are already pending the loop has POLLOUT armed and will
    // rebuild its view after the flush anyway. Under a reply burst this
    // collapses hundreds of wake+poll cycles into one.
    needs_wake = conn->closed || conn->write_buf.size() == conn->write_off;
    if (!conn->closed) {
      conn->write_buf.append(line);
      conn->write_buf.push_back('\n');
    }
  }
  if (needs_wake) conn->wake->Signal();
}

void EventLoop::DrainStrand(std::shared_ptr<Conn> conn) {
  for (;;) {
    std::string line;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->inbox.empty()) {
        conn->strand_active = false;
        return;
      }
      line = std::move(conn->inbox.front());
      conn->inbox.pop_front();
    }
    HandleLine(conn, std::move(line));
  }
}

void EventLoop::HandleLine(const std::shared_ptr<Conn>& conn,
                           std::string line) {
  // Decode is timed unconditionally (two clock reads per line, noise next
  // to the parse itself) because whether the request asked for a trace is
  // only known AFTER parsing.
  const auto decode_start = std::chrono::steady_clock::now();
  Result<Json> parsed = ParseJson(line);
  const double decode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    decode_start)
          .count();
  if (!parsed.ok()) {
    QueueReply(conn, ErrorJson(parsed.status()).Dump(),
               /*finishes_request=*/true);
    return;
  }
  const Json& req = *parsed;
  // The optional "id" is echoed verbatim on EVERY reply to a parseable
  // request — op errors included — so pipelining clients never lose the
  // request/response correlation. Replies complete out of submission
  // order, so the id is the ONLY correlation there is.
  std::shared_ptr<Json> id;
  if (const Json* raw = req.Get("id")) id = std::make_shared<Json>(*raw);
  // Capturing conn (not `this`) keeps late worker-thread callbacks safe
  // even once the loop object is gone: QueueReply is conn-local and the
  // shared Wake no-ops after Stop().
  auto reply = [conn, id](Json value) {
    if (id != nullptr) value.MutableObject()["id"] = *id;
    QueueReply(conn, value.Dump(), /*finishes_request=*/true);
  };

  const Json* op = req.Get("op");
  if (op == nullptr || !op->is_string()) {
    reply(ErrorJson(Status::Error(StatusCode::kInvalidArgument,
                                  "request needs a string 'op'")));
    return;
  }
  auto tenant_of = [&req]() -> std::string {
    const Json* tenant = req.Get("tenant");
    return tenant != nullptr && tenant->is_string() ? tenant->AsString() : "";
  };
  const std::string verb = op->AsString();
  auto counter = verb_counters_.find(verb);
  if (counter != verb_counters_.end()) counter->second->Add();
  Server& server = *server_;

  if (verb == "load_tenant") {
    const Json* csv = req.Get("csv");
    const Json* fds = req.Get("fds");
    std::string tenant = tenant_of();
    if (tenant.empty() || csv == nullptr || !csv->is_string() ||
        fds == nullptr || !fds->is_array()) {
      reply(ErrorJson(
          Status::Error(StatusCode::kInvalidArgument,
                        "load_tenant needs 'tenant', 'csv' and 'fds'")));
      return;
    }
    std::vector<std::string> fd_texts;
    for (const Json& fd : fds->AsArray()) {
      if (!fd.is_string()) {
        reply(ErrorJson(Status::Error(StatusCode::kInvalidArgument,
                                      "'fds' must be strings")));
        return;
      }
      fd_texts.push_back(fd.AsString());
    }
    const Json* quota_rate = req.Get("quota_rate");
    const Json* quota_burst = req.Get("quota_burst");
    if ((quota_rate != nullptr && !quota_rate->is_number()) ||
        (quota_burst != nullptr && !quota_burst->is_number())) {
      reply(ErrorJson(
          Status::Error(StatusCode::kInvalidArgument,
                        "'quota_rate' and 'quota_burst' must be numbers")));
      return;
    }
    Status status =
        server.LoadCsvTenant(tenant, csv->AsString(), std::move(fd_texts));
    if (!status.ok()) {
      reply(ErrorJson(status));
      return;
    }
    if (quota_rate != nullptr || quota_burst != nullptr) {
      QuotaLimits limits;
      limits.rate = quota_rate != nullptr ? quota_rate->AsNumber() : 0.0;
      limits.burst = quota_burst != nullptr ? quota_burst->AsNumber() : 0.0;
      server.SetTenantQuota(tenant, limits);
    }
    Json::Object obj;
    obj["ok"] = Json(true);
    obj["tenant"] = Json(tenant);
    reply(Json(std::move(obj)));
    return;
  }

  if (verb == "repair") {
    Result<RepairRequest> repair = RepairRequestFromJson(req);
    if (!repair.ok()) {
      reply(ErrorJson(repair.status()));
      return;
    }
    std::shared_ptr<obs::RequestTrace> trace = repair->trace;
    if (trace != nullptr) {
      trace->root.StartChild("decode")->set_seconds(decode_seconds);
    }
    server.Repair(
        tenant_of(), *repair,
        [reply, trace](Result<RepairResponse> response) {
          // Attached to errors too: a traced request that failed still
          // tells the caller where its time went. The untraced path is
          // untouched — replies stay byte-identical.
          auto with_trace = [&trace](Json value) {
            if (trace != nullptr) {
              trace->root.Finish();
              value.MutableObject()["trace"] = ToJson(trace->root);
            }
            return value;
          };
          if (!response.ok()) {
            reply(with_trace(ErrorJson(response.status())));
            return;
          }
          reply(with_trace(
              ToJson(*response, response->repair.data.schema())));
        });
    return;
  }

  if (verb == "sweep") {
    const Json* requests = req.Get("requests");
    if (requests == nullptr || !requests->is_array() ||
        requests->AsArray().empty()) {
      reply(ErrorJson(
          Status::Error(StatusCode::kInvalidArgument,
                        "sweep needs a non-empty 'requests' array")));
      return;
    }
    std::vector<RepairRequest> batch;
    for (const Json& r : requests->AsArray()) {
      Result<RepairRequest> repair = RepairRequestFromJson(r);
      if (!repair.ok()) {
        reply(ErrorJson(repair.status()));
        return;
      }
      batch.push_back(*repair);
    }
    server.Sweep(
        tenant_of(), std::move(batch),
        [reply](std::vector<Result<RepairResponse>> replies) {
          Json::Array results;
          for (const Result<RepairResponse>& r : replies) {
            results.push_back(r.ok() ? ToJson(*r, r->repair.data.schema())
                                     : ErrorJson(r.status()));
          }
          Json::Object obj;
          obj["ok"] = Json(true);
          obj["results"] = Json(std::move(results));
          reply(Json(std::move(obj)));
        });
    return;
  }

  if (verb == "apply_delta") {
    std::string tenant = tenant_of();
    // The schema is needed to parse the delta's values, so the tenant must
    // resolve first (this is what makes lazy tenants load on first use).
    Result<std::shared_ptr<Session>> session = server.tenants().Get(tenant);
    if (!session.ok()) {
      reply(ErrorJson(session.status()));
      return;
    }
    Result<DeltaBatch> delta = DeltaBatchFromJson(req, (*session)->schema());
    if (!delta.ok()) {
      reply(ErrorJson(delta.status()));
      return;
    }
    server.Apply(tenant, std::move(*delta), [reply](Result<ApplyStats> stats) {
      if (!stats.ok()) {
        reply(ErrorJson(stats.status()));
        return;
      }
      reply(ToJson(*stats));
    });
    return;
  }

  if (verb == "stats") {
    const Json* tenant = req.Get("tenant");
    if (tenant != nullptr && tenant->is_string()) {
      Result<TenantStats> stats = server.TenantStatsFor(tenant->AsString());
      if (!stats.ok()) {
        reply(ErrorJson(stats.status()));
        return;
      }
      reply(ToJson(*stats));
      return;
    }
    Json stats = ToJson(server.Stats());
    Json::Array tenants;
    for (const std::string& name : server.TenantNames()) {
      tenants.push_back(Json(name));
    }
    stats.MutableObject()["tenants"] = Json(std::move(tenants));
    reply(stats);
    return;
  }

  if (verb == "load_snapshot_tenant") {
    const Json* snapshot = req.Get("snapshot");
    std::string tenant = tenant_of();
    if (tenant.empty() || snapshot == nullptr || !snapshot->is_string()) {
      reply(ErrorJson(Status::Error(
          StatusCode::kInvalidArgument,
          "load_snapshot_tenant needs 'tenant' and 'snapshot'")));
      return;
    }
    Status status = server.LoadSnapshotTenant(tenant, snapshot->AsString());
    if (!status.ok()) {
      reply(ErrorJson(status));
      return;
    }
    Json::Object obj;
    obj["ok"] = Json(true);
    obj["tenant"] = Json(tenant);
    reply(Json(std::move(obj)));
    return;
  }

  if (verb == "save_snapshot") {
    const Json* path = req.Get("path");
    std::string tenant = tenant_of();
    if (tenant.empty() || path == nullptr || !path->is_string()) {
      reply(ErrorJson(
          Status::Error(StatusCode::kInvalidArgument,
                        "save_snapshot needs 'tenant' and 'path'")));
      return;
    }
    server.SaveSnapshot(tenant, path->AsString(),
                        [reply, tenant](Result<std::string> saved) {
                          if (!saved.ok()) {
                            reply(ErrorJson(saved.status()));
                            return;
                          }
                          Json::Object obj;
                          obj["ok"] = Json(true);
                          obj["tenant"] = Json(tenant);
                          obj["path"] = Json(*saved);
                          reply(Json(std::move(obj)));
                        });
    return;
  }

  if (verb == "unload_tenant") {
    std::string tenant = tenant_of();
    if (tenant.empty()) {
      reply(ErrorJson(Status::Error(StatusCode::kInvalidArgument,
                                    "unload_tenant needs 'tenant'")));
      return;
    }
    server.UnloadTenant(tenant, [reply, tenant](Result<bool> unloaded) {
      if (!unloaded.ok()) {
        reply(ErrorJson(unloaded.status()));
        return;
      }
      Json::Object obj;
      obj["ok"] = Json(true);
      obj["tenant"] = Json(tenant);
      obj["unloaded"] = Json(true);
      reply(Json(std::move(obj)));
    });
    return;
  }

  if (verb == "metrics") {
    obs::MetricsRegistry* registry = server.metrics();
    Json::Object obj;
    obj["ok"] = Json(true);
    obj["series"] = Json(static_cast<uint64_t>(registry->SeriesCount()));
    obj["text"] = Json(registry->ExpositionText());
    reply(Json(std::move(obj)));
    return;
  }

  if (verb == "dump_recent") {
    size_t limit = 0;
    if (const Json* raw = req.Get("limit")) {
      if (!raw->is_number() || raw->AsInt() < 0) {
        reply(ErrorJson(
            Status::Error(StatusCode::kInvalidArgument,
                          "'limit' must be a non-negative integer")));
        return;
      }
      limit = static_cast<size_t>(raw->AsInt());
    }
    Json::Array records;
    for (const obs::FlightRecord& record : server.RecentRequests(limit)) {
      records.push_back(ToJson(record));
    }
    Json::Object obj;
    obj["ok"] = Json(true);
    obj["records"] = Json(std::move(records));
    reply(Json(std::move(obj)));
    return;
  }

  if (verb == "shutdown") {
    Json::Object obj;
    obj["ok"] = Json(true);
    obj["stopping"] = Json(true);
    reply(Json(std::move(obj)));
    // The reply is already queued ahead of the wake, so it reaches the
    // wire during Stop()'s drain before the connection closes.
    RequestShutdown();
    return;
  }

  reply(ErrorJson(Status::Error(StatusCode::kInvalidArgument,
                                "unknown op '" + verb + "'")));
}

}  // namespace retrust::service
