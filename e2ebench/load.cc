// The wire half of the benchmark: an in-process Server + EventLoop driven
// over loopback by WireClient connections, closed loop, with every reply
// checked as it arrives and the first pass kept for the serial oracle.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "src/api/session.h"
#include "src/obs/metrics.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/server.h"

namespace e2e {

using retrust::Result;
using retrust::Session;
using retrust::service::EventLoop;
using retrust::service::Server;
using retrust::service::ServerOptions;
using retrust::service::WireClient;

/// Load budget: two workers, one reader thread, no session pool.
class Service {
 public:
  retrust::obs::MetricsRegistry registry;  // private: servers never share series
  std::unique_ptr<Server> server;
  std::unique_ptr<EventLoop> loop;
  std::vector<std::unique_ptr<WireClient>> conns;
};

namespace {

std::string Text(const Json& obj, const char* key) {
  const Json* v = obj.Get(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::string();
}

double Number(const Json& obj, const char* key, double missing = -1.0) {
  const Json* v = obj.Get(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : missing;
}

size_t ArraySize(const Json& obj, const char* key) {
  const Json* v = obj.Get(key);
  return v != nullptr && v->is_array() ? v->AsArray().size() : 0;
}

void WalkSpan(const Json& span, SpanRecord* rec) {
  const std::string name = Text(span, "name");
  const double seconds = Number(span, "seconds", 0.0);
  double children = 0.0;
  if (const Json* spans = span.Get("spans"); spans != nullptr && spans->is_array()) {
    for (const Json& child : spans->AsArray()) {
      children += Number(child, "seconds", 0.0);
      WalkSpan(child, rec);
    }
  }
  rec->total[name] += seconds;
  rec->self[name] += std::max(0.0, seconds - children);
  rec->count[name] += Number(span, "count", 1.0);
}

/// The checks every repair result (single or sweep item) must pass.
bool CheckRepair(const Json& r, const std::string& where, Window* w) {
  const double tau = Number(r, "tau");
  const double delta_p = Number(r, "delta_p");
  const double cells = Number(r, "cell_changes");
  if (tau < 0 || delta_p < 0 || delta_p > tau) {
    w->Error(where + ": delta_p " + std::to_string(delta_p) +
             " exceeds resolved tau " + std::to_string(tau));
    return false;
  }
  if (cells != static_cast<double>(ArraySize(r, "changed_cells"))) {
    w->Error(where + ": cell_changes disagrees with changed_cells");
    return false;
  }
  return true;
}

/// Per-stream state for the sweep-order check: the resolved τ each single
/// repair returned, keyed by (tenant, τr).
using TauTable = std::map<std::pair<std::string, double>, double>;

/// Accounts and checks one reply. Returns true when the request succeeded
/// and every check passed.
bool CheckReply(const Json& req, const Result<Json>& reply, double latency,
                bool traced, bool first_pass, const std::string& cls,
                TauTable* taus, Window* w) {
  const std::string op = Text(req, "op");
  const std::string tenant = Text(req, "tenant");
  const std::string where = op + " " + tenant;
  auto count = [&](auto field) {
    std::lock_guard<std::mutex> lock(w->mu);
    ++(w->ops[op].*field);
  };
  count(&OpCount::attempted);
  if (!reply.ok()) {
    count(&OpCount::failed);
    w->Error(where + ": " + reply.status().ToString());
    return false;
  }
  const Json& r = *reply;
  const Json* ok = r.Get("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    const std::string error = Text(r, "error");
    count(error == "overloaded" ? &OpCount::shed : &OpCount::failed);
    w->Error(where + ": " + error + " " + Text(r, "message"));
    return false;
  }
  bool good = true;
  if (op == "repair") {
    good = CheckRepair(r, where, w);
    const double tau_r = Number(req, "tau_r");
    (*taus)[{tenant, tau_r}] = Number(r, "tau");
    std::lock_guard<std::mutex> lock(w->mu);
    w->cells_changed.push_back(Number(r, "cell_changes", 0.0));
    if (traced) {
      if (const Json* trace = r.Get("trace")) {
        SpanRecord rec;
        rec.cls = cls;
        rec.client = latency;
        WalkSpan(*trace, &rec);
        rec.root = rec.total["request"];
        w->spans.push_back(std::move(rec));
      } else {
        good = false;
      }
    } else {
      w->reply_bytes.push_back(static_cast<double>(r.Dump().size() + 1));
    }
  } else if (op == "sweep") {
    const Json::Array& items = req.Get("requests")->AsArray();
    const Json* results = r.Get("results");
    if (results == nullptr || !results->is_array() ||
        results->AsArray().size() != items.size()) {
      w->Error(where + ": malformed sweep reply");
      good = false;
    }
    for (size_t i = 0; good && i < items.size(); ++i) {
      const Json& item = results->AsArray()[i];
      const Json* item_ok = item.Get("ok");
      if (item_ok == nullptr || !item_ok->is_bool() || !item_ok->AsBool()) {
        w->Error(where + ": sweep item " + std::to_string(i) + " failed: " +
                 Text(item, "error"));
        good = false;
        break;
      }
      good = CheckRepair(item, where, w);
      // Request order: item i must carry the τ the single repair at the
      // same τr resolved to.
      auto known = taus->find({tenant, Number(items[i], "tau_r")});
      if (good && known != taus->end() && known->second != Number(item, "tau")) {
        w->Error(where + ": sweep item " + std::to_string(i) +
                 " out of request order");
        good = false;
      }
    }
  } else if (op == "apply_delta") {
    good = Number(r, "tuples_inserted") ==
               static_cast<double>(ArraySize(req, "inserts")) &&
           Number(r, "tuples_updated") ==
               static_cast<double>(ArraySize(req, "updates")) &&
           Number(r, "tuples_deleted") ==
               static_cast<double>(ArraySize(req, "deletes"));
    if (!good) w->Error(where + ": delta counts disagree with the request");
  } else if (op == "unload_tenant") {
    const Json* unloaded = r.Get("unloaded");
    good = unloaded != nullptr && unloaded->AsBool();
    if (!good) w->Error(where + ": not unloaded");
  }
  count(good ? &OpCount::succeeded : &OpCount::failed);
  if (first_pass && (op == "repair" || op == "sweep" || op == "apply_delta")) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->first_pass[tenant].emplace_back(req, Normalize(r));
  }
  return good;
}

/// "<stream>/<class>/<τr of each request>": steps that do the same kind of
/// work share a slot wherever they sit in the pass.
std::string SlotKey(size_t stream_index, const Step& step) {
  std::string key = std::to_string(stream_index) + "/" + step.cls + "/";
  for (const Json& req : step.requests) {
    key += std::to_string(Number(req, "tau_r")) + ",";
  }
  return key;
}

void RunStream(Service* service, const Stream& stream, size_t stream_index,
               double end, bool traced, Window* w) {
  WireClient& conn = *service->conns[static_cast<size_t>(stream.conn)];
  TauTable taus;
  const double start = Now();
  uint64_t requests = 0;
  std::map<std::string, std::vector<double>> latency;
  std::map<std::string, std::vector<double>> slots;
  for (size_t pass = 0; pass == 0 || Now() < end; ++pass) {
    for (const Step& step : stream.passes[pass % stream.passes.size()]) {
      const double t0 = Now();
      bool good = true;
      for (const Json& req : step.requests) {
        Json body = req;
        if (traced && Text(req, "op") == "repair") {
          body.MutableObject()["trace"] = Json(true);
        }
        const double r0 = Now();
        Result<Json> reply = conn.CallSync(std::move(body));
        const double r1 = Now();
        good &= CheckReply(req, reply, r1 - r0, traced, pass == 0, step.cls,
                           &taus, w);
        ++requests;
      }
      // A failed request misses every latency limit.
      const double sample =
          good ? Now() - t0 : std::numeric_limits<double>::infinity();
      latency[step.cls].push_back(sample);
      slots[SlotKey(stream_index, step)].push_back(sample);
    }
  }
  const double elapsed = Now() - start;
  std::lock_guard<std::mutex> lock(w->mu);
  for (auto& [cls, samples] : latency) {
    auto& all = w->latency[cls];
    all.insert(all.end(), samples.begin(), samples.end());
  }
  for (auto& [key, samples] : slots) {
    auto& all = w->slots[key];
    all.insert(all.end(), samples.begin(), samples.end());
  }
  w->requests += requests;
  w->rps += static_cast<double>(requests) / elapsed;
}

Json Registration(const TenantSpec& t) {
  Json::Object req;
  req["tenant"] = Json(t.name);
  if (!t.snapshot.empty()) {
    req["op"] = Json("load_snapshot_tenant");
    req["snapshot"] = Json(t.snapshot);
  } else {
    req["op"] = Json("load_tenant");
    req["csv"] = Json(t.csv);
    Json::Array fds;
    for (const std::string& fd : t.fds) fds.push_back(Json(fd));
    req["fds"] = Json(std::move(fds));
  }
  return Json(std::move(req));
}

/// Replays one request through a serial Session, building the reply the
/// wire would have sent.
Json SerialReply(Session& session, const Json& req) {
  using retrust::service::ErrorJson;
  using retrust::service::ToJson;
  const std::string op = Text(req, "op");
  if (op == "repair") {
    Result<retrust::RepairRequest> r = retrust::service::RepairRequestFromJson(req);
    if (!r.ok()) return ErrorJson(r.status());
    Result<retrust::RepairResponse> resp = session.Repair(*r);
    return resp.ok() ? ToJson(*resp, session.schema()) : ErrorJson(resp.status());
  }
  if (op == "sweep") {
    std::vector<retrust::RepairRequest> batch;
    for (const Json& item : req.Get("requests")->AsArray()) {
      batch.push_back(*retrust::service::RepairRequestFromJson(item));
    }
    Json::Array results;
    for (const auto& resp : session.RepairMany(batch)) {
      results.push_back(resp.ok() ? ToJson(*resp, session.schema())
                                  : ErrorJson(resp.status()));
    }
    Json::Object obj;
    obj["ok"] = Json(true);
    obj["results"] = Json(std::move(results));
    return Json(std::move(obj));
  }
  Result<retrust::DeltaBatch> delta =
      retrust::service::DeltaBatchFromJson(req, session.schema());
  if (!delta.ok()) return ErrorJson(delta.status());
  Result<retrust::ApplyStats> stats = session.Apply(*delta);
  return stats.ok() ? ToJson(*stats) : ErrorJson(stats.status());
}

}  // namespace

ServicePtr StartService(const Plan& plan, std::vector<std::string>* errors) {
  ServicePtr service(new Service);
  ServerOptions opts;
  opts.workers = 2;
  opts.session_threads = 0;
  opts.metrics = &service->registry;
  service->server = std::make_unique<Server>(opts);
  EventLoop::Options loop_opts;
  loop_opts.port = 0;
  loop_opts.reader_threads = 1;
  service->loop = std::make_unique<EventLoop>(service->server.get(), loop_opts);
  retrust::Status started = service->loop->Start();
  if (!started.ok()) {
    errors->push_back("event loop: " + started.ToString());
    return nullptr;
  }
  for (int c = 0; c < plan.connections; ++c) {
    Result<std::unique_ptr<WireClient>> conn =
        WireClient::Connect(service->loop->port());
    if (!conn.ok()) {
      errors->push_back("connect: " + conn.status().ToString());
      return nullptr;
    }
    service->conns.push_back(std::move(*conn));
  }
  std::vector<Json> setup;
  for (const TenantSpec& t : plan.tenants) setup.push_back(Registration(t));
  setup.insert(setup.end(), plan.warmup.begin(), plan.warmup.end());
  for (const Json& req : setup) {
    Result<Json> reply = service->conns[0]->CallSync(req);
    const Json* ok = reply.ok() ? reply->Get("ok") : nullptr;
    if (ok == nullptr || !ok->AsBool()) {
      errors->push_back("set-up " + req.Dump() + ": " +
                        (reply.ok() ? reply->Dump() : reply.status().ToString()));
      return nullptr;
    }
  }
  return service;
}

void ServiceStopper::operator()(Service* service) const {
  for (auto& conn : service->conns) conn->Close();
  service->conns.clear();
  service->loop->Stop();
  service->server->Stop();
  delete service;
  malloc_trim(0);
}

void RunWindow(Service* service, const Plan& plan, double seconds,
               bool traced, Window* window) {
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < plan.streams.size(); ++i) {
    threads.emplace_back(RunStream, service, std::cref(plan.streams[i]), i,
                         start + seconds, traced, window);
  }
  // The sampler waits on `done`, so it stops the moment the streams do.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(mu);
    do {
      window->peak_heap_mb = std::max(window->peak_heap_mb, HeapInUseMb());
    } while (!cv.wait_for(lock, std::chrono::milliseconds(10),
                          [&] { return done; }));
  });
  for (std::thread& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  sampler.join();
  window->seconds = Now() - start;
}

void CheckOracle(const Plan& plan, const Window& window,
                 std::vector<std::string>* errors) {
  for (const auto& [tenant, sequence] : window.first_pass) {
    auto spec = std::find_if(plan.tenants.begin(), plan.tenants.end(),
                             [&](const TenantSpec& t) { return t.name == tenant; });
    // Snapshot tenants are replayed against a session REBUILT from the CSV
    // the snapshot was taken from: restored must equal rebuilt.
    Result<Session> session = Session::OpenCsv(spec->csv, spec->fds);
    if (!session.ok()) {
      errors->push_back("oracle open " + tenant + ": " +
                        session.status().ToString());
      continue;
    }
    for (size_t i = 0; i < sequence.size(); ++i) {
      const auto& [req, expected] = sequence[i];
      const std::string got = Normalize(SerialReply(*session, req)).Dump();
      if (got != expected.Dump()) {
        errors->push_back("oracle mismatch on " + tenant + " request " +
                          std::to_string(i) + " (" + Text(req, "op") +
                          "): service " + expected.Dump().substr(0, 200) +
                          " vs serial " + got.substr(0, 200));
        break;
      }
    }
  }
}

}  // namespace e2e
