// Golden `stats` / `metrics` replies (named Service* so CI's TSan job runs
// it). One fixed request script goes through an in-process Server and the
// wire front end with a private metrics registry:
//
//   repairs, one sweep, one apply_delta, a repair after the delta, one
//   quota rejection, one deadline expiring in the queue, one cancellation
//   of a queued request.
//
// The test then pins (1) the global `stats` reply: its key set and every
// integer counter, (2) the per-tenant `stats` reply: its key set and its
// integer counters, and (3) the `metrics` exposition: every series name and
// every `*_total` value. Any change to how the service layer stores or
// reads its counters must leave all three unchanged.

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/obs/metrics.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/server.h"
#include "src/service/wire.h"

namespace retrust::service {
namespace {

struct GoldenTenant {
  Instance data;
  std::vector<std::string> fd_texts;
};

GoldenTenant MakeGoldenTenant(int num_tuples, uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = seed;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
  GoldenTenant tenant;
  Schema schema = dirty.data.schema();
  for (const FD& fd : dirty.fds.fds()) {
    tenant.fd_texts.push_back(fd.ToString(schema));
  }
  tenant.data = dirty.data;
  return tenant;
}

Json Op(const std::string& op, const std::string& tenant = "") {
  Json::Object obj;
  obj["op"] = Json(op);
  if (!tenant.empty()) obj["tenant"] = Json(tenant);
  return Json(std::move(obj));
}

Json RepairOp(const std::string& tenant, double tau_r, uint64_t seed) {
  Json req = Op("repair", tenant);
  req.MutableObject()["tau_r"] = Json(tau_r);
  req.MutableObject()["seed"] = Json(seed);
  return req;
}

/// Polls until `done` holds (bounded, so a regression fails instead of
/// hanging).
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

using Counts = std::map<std::string, int64_t>;

std::set<std::string> KeySet(const Json& obj) {
  std::set<std::string> keys;
  for (const auto& [key, value] : obj.AsObject()) {
    if (key != "id") keys.insert(key);  // the echoed correlation id
  }
  return keys;
}

/// Exposition text -> series names, and the values of the `*_total` ones.
void ParseExposition(const std::string& text, std::set<std::string>* names,
                     Counts* totals) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    names->insert(series);
    const std::string name = series.substr(0, series.find('{'));
    if (name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0) {
      (*totals)[series] = std::stoll(line.substr(space + 1));
    }
  }
}

TEST(ServiceGolden, StatsAndMetricsRepliesArePinned) {
  obs::MetricsRegistry registry;
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 0;
  opts.metrics = &registry;
  opts.quota_clock = [] { return 0.0; };  // frozen: no token ever refills
  Server server(opts);
  GoldenTenant alpha = MakeGoldenTenant(90, 61);
  GoldenTenant capped = MakeGoldenTenant(40, 71);
  ASSERT_TRUE(server.LoadTenant("alpha", alpha.data, alpha.fd_texts).ok());
  ASSERT_TRUE(server.LoadTenant("capped", capped.data, capped.fd_texts).ok());
  server.SetTenantQuota("capped", QuotaLimits{1.0, 1.0});

  EventLoop::Options loop_opts;
  loop_opts.port = 0;
  EventLoop loop(&server, loop_opts);
  ASSERT_TRUE(loop.Start().ok());
  Result<std::unique_ptr<WireClient>> connected =
      WireClient::Connect(loop.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  WireClient& wire = **connected;
  auto call = [&wire](Json req) {
    Result<Json> reply = wire.CallSync(std::move(req));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : Json();
  };
  auto ok = [](const Json& reply) {
    const Json* flag = reply.Get("ok");
    return flag != nullptr && flag->AsBool();
  };

  // Requests 1-6: three repairs, a sweep, a delta and a post-delta repair.
  EXPECT_TRUE(ok(call(RepairOp("alpha", 1.0, 1))));
  EXPECT_TRUE(ok(call(RepairOp("alpha", 0.5, 2))));
  EXPECT_TRUE(ok(call(RepairOp("alpha", 0.25, 3))));
  {
    Json sweep = Op("sweep", "alpha");
    Json::Array requests;
    for (double tau_r : {0.25, 0.75}) {
      Json::Object r;
      r["tau_r"] = Json(tau_r);
      requests.push_back(Json(std::move(r)));
    }
    sweep.MutableObject()["requests"] = Json(std::move(requests));
    EXPECT_TRUE(ok(call(std::move(sweep))));
  }
  {
    Json delta = Op("apply_delta", "alpha");
    Json::Array deletes;
    deletes.push_back(Json(3));
    deletes.push_back(Json(17));
    delta.MutableObject()["deletes"] = Json(std::move(deletes));
    EXPECT_TRUE(ok(call(std::move(delta))));
  }
  EXPECT_TRUE(ok(call(RepairOp("alpha", 0.5, 4))));

  // Requests 7-8: the capped tenant's one token, then a quota rejection.
  EXPECT_TRUE(ok(call(RepairOp("capped", 0.5, 5))));
  EXPECT_FALSE(ok(call(RepairOp("capped", 0.5, 6))));

  // Requests 9-10, submitted while dispatch is paused: one whose deadline
  // runs out in the queue, and one cancelled while queued. Request ids are
  // assigned in submission order, so the second one is id 10.
  server.Pause();
  Json expiring = RepairOp("alpha", 0.5, 7);
  expiring.MutableObject()["deadline_seconds"] = Json(0.02);
  std::future<Result<Json>> expired = wire.Call(std::move(expiring));
  ASSERT_TRUE(WaitFor([&] { return server.Stats().queue_depth == 1; }));
  std::future<Result<Json>> cancelled = wire.Call(RepairOp("alpha", 0.5, 8));
  ASSERT_TRUE(WaitFor([&] { return server.Stats().queue_depth == 2; }));
  ASSERT_EQ(server.Stats().submitted, 10u);
  EXPECT_TRUE(server.Cancel(10));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.Resume();
  Result<Json> expired_reply = expired.get();
  ASSERT_TRUE(expired_reply.ok());
  EXPECT_EQ(expired_reply->Get("error")->AsString(), "budget_exceeded");
  Result<Json> cancelled_reply = cancelled.get();
  ASSERT_TRUE(cancelled_reply.ok());
  EXPECT_EQ(cancelled_reply->Get("error")->AsString(), "cancelled");

  // (1) The global stats reply.
  Json global = call(Op("stats"));
  ASSERT_TRUE(ok(global));
  const std::set<std::string> kGlobalKeys = {
      "completed",
      "expired_in_queue",
      "cancelled",
      "in_flight",
      "ok",
      "p50_latency_seconds",
      "p50_queue_wait_seconds",
      "p50_service_seconds",
      "p99_latency_seconds",
      "p99_queue_wait_seconds",
      "p99_service_seconds",
      "queue_depth",
      "rejected",
      "rejected_deadline",
      "rejected_queue_full",
      "rejected_quota",
      "rejected_tenant_cap",
      "search_expansions",
      "search_incumbent_improvements",
      "search_lb_prunes",
      "submitted",
      "tenants",
      "workers",
  };
  EXPECT_EQ(KeySet(global), kGlobalKeys);
  Counts global_counts;
  for (const char* key :
       {"queue_depth", "in_flight", "workers", "submitted", "completed",
        "cancelled", "expired_in_queue", "rejected_queue_full",
        "rejected_tenant_cap", "rejected_deadline", "rejected_quota",
        "rejected", "search_expansions", "search_lb_prunes",
        "search_incumbent_improvements"}) {
    global_counts[key] = global.Get(key)->AsInt();
  }
  // The search counters count only searches that ran. The sweep's τr 0.25
  // item repeats request 3 at the same data version, so the session's
  // search-answer memo serves it. Before batches shared that memo it
  // searched again: the counters then read expansions 29, visited 42,
  // incumbents 7 and 7 exact searches. The memo hit subtracts request 3's
  // own search, as its flight record reads it: 12 expansions, 14 states
  // visited, and the one incumbent every exact search that finds a repair
  // records. So 29 - 12 = 17, 42 - 14 = 28, 7 - 1 = 6 incumbents and
  // 7 - 1 = 6 searches.
  const Counts kGlobalCounts = {
      {"cancelled", 1},
      {"completed", 7},
      {"expired_in_queue", 1},
      {"in_flight", 0},
      {"queue_depth", 0},
      {"rejected", 1},
      {"rejected_deadline", 0},
      {"rejected_queue_full", 0},
      {"rejected_quota", 1},
      {"rejected_tenant_cap", 0},
      {"search_expansions", 17},
      {"search_incumbent_improvements", 6},
      {"search_lb_prunes", 0},
      {"submitted", 10},
      {"workers", 2},
  };
  EXPECT_EQ(global_counts, kGlobalCounts);
  EXPECT_EQ(global.Get("tenants")->Dump(), "[\"alpha\",\"capped\"]");

  // (2) The per-tenant stats reply.
  Json tenant = call(Op("stats", "alpha"));
  ASSERT_TRUE(ok(tenant));
  const std::set<std::string> kTenantKeys = {
      "bytes_estimate", "completed", "data_version", "executing", "loaded",
      "num_tuples",     "ok",        "queued",       "root_delta_p", "tenant",
  };
  EXPECT_EQ(KeySet(tenant), kTenantKeys);
  EXPECT_GT(tenant.Get("bytes_estimate")->AsInt(), 0);
  Counts tenant_counts;
  for (const char* key : {"queued", "executing", "completed", "data_version",
                          "root_delta_p", "num_tuples"}) {
    tenant_counts[key] = tenant.Get(key)->AsInt();
  }
  const Counts kTenantCounts = {
      {"completed", 6}, {"data_version", 2}, {"executing", 0},
      {"num_tuples", 88}, {"queued", 0},     {"root_delta_p", 72},
  };
  EXPECT_EQ(tenant_counts, kTenantCounts);

  // (3) The metrics exposition.
  Json metrics = call(Op("metrics"));
  ASSERT_TRUE(ok(metrics));
  std::set<std::string> names;
  Counts totals;
  ParseExposition(metrics.Get("text")->AsString(), &names, &totals);
  EXPECT_EQ(metrics.Get("series")->AsInt(), static_cast<int64_t>(names.size()));
  const std::set<std::string> kSeries = {
      "retrust_admission_latency_ewma_seconds",
      "retrust_context_cache_bytes_estimate",
      "retrust_flight_records_total",
      "retrust_queue_depth",
      "retrust_queue_wait_seconds_count",
      R"(retrust_queue_wait_seconds{quantile="0.5"})",
      R"(retrust_queue_wait_seconds{quantile="0.99"})",
      "retrust_quota_denials_total",
      "retrust_request_latency_seconds_count",
      R"(retrust_request_latency_seconds{quantile="0.5"})",
      R"(retrust_request_latency_seconds{quantile="0.99"})",
      "retrust_request_workers",
      "retrust_requests_cancelled_total",
      "retrust_requests_completed_total",
      "retrust_requests_expired_total",
      "retrust_requests_in_flight",
      R"(retrust_requests_rejected_total{reason="deadline"})",
      R"(retrust_requests_rejected_total{reason="queue_full"})",
      R"(retrust_requests_rejected_total{reason="quota"})",
      R"(retrust_requests_rejected_total{reason="tenant_cap"})",
      "retrust_requests_submitted_total",
      "retrust_search_expansions_total",
      "retrust_search_incumbents_total",
      "retrust_search_lb_prunes_total",
      R"(retrust_search_policy_expansions_total{policy="exact"})",
      R"(retrust_search_policy_visited_total{policy="exact"})",
      R"(retrust_search_requests_total{policy="exact"})",
      "retrust_service_seconds_count",
      R"(retrust_service_seconds{quantile="0.5"})",
      R"(retrust_service_seconds{quantile="0.99"})",
      "retrust_slow_requests_total",
      "retrust_tenants_loaded",
      "retrust_tenants_registered",
      R"(retrust_wire_requests_total{verb="apply_delta"})",
      R"(retrust_wire_requests_total{verb="dump_recent"})",
      R"(retrust_wire_requests_total{verb="load_snapshot_tenant"})",
      R"(retrust_wire_requests_total{verb="load_tenant"})",
      R"(retrust_wire_requests_total{verb="metrics"})",
      R"(retrust_wire_requests_total{verb="repair"})",
      R"(retrust_wire_requests_total{verb="save_snapshot"})",
      R"(retrust_wire_requests_total{verb="shutdown"})",
      R"(retrust_wire_requests_total{verb="stats"})",
      R"(retrust_wire_requests_total{verb="sweep"})",
      R"(retrust_wire_requests_total{verb="unload_tenant"})",
  };
  EXPECT_EQ(names, kSeries);
  // The search totals move with the global counters above (same memo hit).
  const Counts kTotals = {
      {"retrust_flight_records_total", 10},
      {"retrust_quota_denials_total", 1},
      {"retrust_requests_cancelled_total", 1},
      {"retrust_requests_completed_total", 7},
      {"retrust_requests_expired_total", 1},
      {R"(retrust_requests_rejected_total{reason="deadline"})", 0},
      {R"(retrust_requests_rejected_total{reason="queue_full"})", 0},
      {R"(retrust_requests_rejected_total{reason="quota"})", 1},
      {R"(retrust_requests_rejected_total{reason="tenant_cap"})", 0},
      {"retrust_requests_submitted_total", 10},
      {"retrust_search_expansions_total", 17},
      {"retrust_search_incumbents_total", 6},
      {"retrust_search_lb_prunes_total", 0},
      {R"(retrust_search_policy_expansions_total{policy="exact"})", 17},
      {R"(retrust_search_policy_visited_total{policy="exact"})", 28},
      {R"(retrust_search_requests_total{policy="exact"})", 6},
      {"retrust_slow_requests_total", 0},
      {R"(retrust_wire_requests_total{verb="apply_delta"})", 1},
      {R"(retrust_wire_requests_total{verb="dump_recent"})", 0},
      {R"(retrust_wire_requests_total{verb="load_snapshot_tenant"})", 0},
      {R"(retrust_wire_requests_total{verb="load_tenant"})", 0},
      {R"(retrust_wire_requests_total{verb="metrics"})", 1},
      {R"(retrust_wire_requests_total{verb="repair"})", 8},
      {R"(retrust_wire_requests_total{verb="save_snapshot"})", 0},
      {R"(retrust_wire_requests_total{verb="shutdown"})", 0},
      {R"(retrust_wire_requests_total{verb="stats"})", 2},
      {R"(retrust_wire_requests_total{verb="sweep"})", 1},
      {R"(retrust_wire_requests_total{verb="unload_tenant"})", 0},
  };
  EXPECT_EQ(totals, kTotals);

  connected->reset();
  loop.Stop();
  server.Stop();
}

}  // namespace
}  // namespace retrust::service
