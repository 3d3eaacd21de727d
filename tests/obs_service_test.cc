// Observability through the service stack (named Obs* so CI's TSan job
// runs it):
//   * A traced repair over a pipelined wire connection returns a
//     multi-level span tree — decode / queue_wait / service → session →
//     search (with phase children) — whose measured pieces fit inside the
//     root's wall time.
//   * BIT-IDENTITY — an untraced wire reply carries no "trace" key and is
//     byte-identical (volatile fields stripped) to serial per-Session
//     execution; a traced reply minus its "trace" key is the same bytes,
//     so tracing never changes the repair itself.
//   * The `metrics` verb exposes the registry (>= 15 series spanning the
//     wire, queue, session-cache, and search layers).
//   * A repair served from the session's search-answer memo adds nothing
//     to the search counters, and its traced search span has no phases.
//   * The flight recorder remembers completed AND failed requests,
//     `dump_recent` returns them newest first, and the slow-request log
//     counts over-threshold requests.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/obs/metrics.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/server.h"
#include "src/service/wire.h"

namespace retrust::service {
namespace {

struct ObsTenant {
  std::string name;
  Instance data;
  std::vector<std::string> fd_texts;
};

ObsTenant MakeObsTenant() {
  CensusConfig gen;
  gen.num_tuples = 90;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 91;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = gen.seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);

  ObsTenant tenant;
  tenant.name = "obs";
  Schema schema = dirty.data.schema();
  for (const FD& fd : dirty.fds.fds()) {
    tenant.fd_texts.push_back(fd.ToString(schema));
  }
  tenant.data = dirty.data;
  return tenant;
}

Json RepairJson(const std::string& tenant, double tau_r, uint64_t seed,
                bool traced) {
  Json::Object obj;
  obj["op"] = Json("repair");
  obj["tenant"] = Json(tenant);
  obj["tau_r"] = Json(tau_r);
  obj["seed"] = Json(seed);
  if (traced) obj["trace"] = Json(true);
  return Json(std::move(obj));
}

/// Wall-clock, correlation, and trace fields stripped, recursively — what
/// remains must be bit-identical regardless of tracing.
Json StripVolatile(const Json& value) {
  if (value.is_object()) {
    Json::Object out;
    for (const auto& [key, member] : value.AsObject()) {
      if (key == "seconds" || key == "first_repair_seconds" || key == "id" ||
          key == "trace") {
        continue;
      }
      out[key] = StripVolatile(member);
    }
    return Json(std::move(out));
  }
  if (value.is_array()) {
    Json::Array out;
    for (const Json& member : value.AsArray()) {
      out.push_back(StripVolatile(member));
    }
    return Json(std::move(out));
  }
  return value;
}

const Json* FindSpan(const Json& span, const std::string& name) {
  const Json* spans = span.Get("spans");
  if (spans == nullptr) return nullptr;
  for (const Json& child : spans->AsArray()) {
    const Json* child_name = child.Get("name");
    if (child_name != nullptr && child_name->AsString() == name) {
      return &child;
    }
  }
  return nullptr;
}

struct WireHarness {
  explicit WireHarness(ServerOptions opts) : server(std::move(opts)) {
    ObsTenant tenant = MakeObsTenant();
    Status loaded =
        server.LoadTenant(tenant.name, tenant.data, tenant.fd_texts);
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    EventLoop::Options loop_opts;
    loop_opts.port = 0;
    loop = std::make_unique<EventLoop>(&server, loop_opts);
    Status started = loop->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    Result<std::unique_ptr<WireClient>> connected =
        WireClient::Connect(loop->port());
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client = std::move(*connected);
  }

  ~WireHarness() {
    client.reset();
    loop->Stop();
    server.Stop();
  }

  Json Call(Json request) {
    Result<Json> reply = client->Call(std::move(request)).get();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : Json();
  }

  Server server;
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<WireClient> client;
};

ServerOptions ObsServerOptions(obs::MetricsRegistry* registry) {
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 0;
  opts.metrics = registry;  // private registry: no cross-test pollution
  return opts;
}

// --- traced span tree over the wire --------------------------------------

TEST(ObsServiceTrace, TracedRepairReturnsMultiLevelSpanTree) {
  obs::MetricsRegistry registry;
  WireHarness wire(ObsServerOptions(&registry));

  Json reply = wire.Call(RepairJson("obs", 0.5, 7, /*traced=*/true));
  ASSERT_NE(reply.Get("ok"), nullptr);
  ASSERT_TRUE(reply.Get("ok")->AsBool());

  const Json* trace = reply.Get("trace");
  ASSERT_NE(trace, nullptr) << "traced request lost its span tree";
  EXPECT_EQ(trace->Get("name")->AsString(), "request");
  const double total = trace->Get("seconds")->AsNumber();
  EXPECT_GT(total, 0.0);

  // Level 1: the wire/queue spans.
  ASSERT_NE(FindSpan(*trace, "decode"), nullptr);
  const Json* queue_wait = FindSpan(*trace, "queue_wait");
  ASSERT_NE(queue_wait, nullptr);
  const Json* service = FindSpan(*trace, "service");
  ASSERT_NE(service, nullptr);

  // queue_wait and service both elapse inside the root's window.
  const double accounted = queue_wait->Get("seconds")->AsNumber() +
                           service->Get("seconds")->AsNumber();
  EXPECT_LE(accounted, total + 0.001);

  // Levels 2-4: service → session → search → phases.
  const Json* session = FindSpan(*service, "session");
  ASSERT_NE(session, nullptr);
  const Json* search = FindSpan(*session, "search");
  ASSERT_NE(search, nullptr);
  const Json* expand = FindSpan(*search, "expand");
  ASSERT_NE(expand, nullptr) << "search ran without phase accounting";
  // "count" is serialized only when != 1; absent means exactly one.
  const Json* expand_count = expand->Get("count");
  EXPECT_TRUE(expand_count == nullptr || expand_count->AsInt() > 1);

  // Phase totals accumulate INSIDE the engine's search wall time.
  double phase_seconds = 0.0;
  for (const Json& phase : search->Get("spans")->AsArray()) {
    phase_seconds += phase.Get("seconds")->AsNumber();
  }
  EXPECT_LE(phase_seconds, search->Get("seconds")->AsNumber() + 0.05);
}

// --- bit-identity --------------------------------------------------------

TEST(ObsServiceTrace, UntracedReplyIsBitIdenticalToSerialSession) {
  obs::MetricsRegistry registry;
  WireHarness wire(ObsServerOptions(&registry));

  Json untraced = wire.Call(RepairJson("obs", 0.5, 7, /*traced=*/false));
  EXPECT_EQ(untraced.Get("trace"), nullptr);
  Json traced = wire.Call(RepairJson("obs", 0.5, 7, /*traced=*/true));
  ASSERT_NE(traced.Get("trace"), nullptr);

  // Serial oracle: the same request through a private Session, rendered by
  // the same ToJson.
  ObsTenant tenant = MakeObsTenant();
  Result<Session> session = Session::Open(tenant.data, tenant.fd_texts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<RepairRequest> req =
      RepairRequestFromJson(RepairJson("obs", 0.5, 7, /*traced=*/false));
  ASSERT_TRUE(req.ok());
  Result<RepairResponse> response = session->Repair(*req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string oracle =
      StripVolatile(ToJson(*response, session->schema())).Dump();

  EXPECT_EQ(StripVolatile(untraced).Dump(), oracle);
  // Tracing changed the reply ONLY by adding the "trace" key.
  EXPECT_EQ(StripVolatile(traced).Dump(), oracle);
}

// --- metrics verb --------------------------------------------------------

TEST(ObsServiceMetrics, VerbExposesSeriesAcrossLayers) {
  obs::MetricsRegistry registry;
  WireHarness wire(ObsServerOptions(&registry));

  for (uint64_t seed : {1u, 2u, 3u}) {
    Json reply = wire.Call(RepairJson("obs", 0.5, seed, /*traced=*/false));
    ASSERT_TRUE(reply.Get("ok")->AsBool());
  }

  Json::Object req;
  req["op"] = Json("metrics");
  Json reply = wire.Call(Json(std::move(req)));
  ASSERT_TRUE(reply.Get("ok")->AsBool());
  EXPECT_GE(reply.Get("series")->AsInt(), 15);

  const std::string text = reply.Get("text")->AsString();
  // One representative series per layer: wire, queue, request latency,
  // session context memory, search engine.
  for (const char* needle :
       {"retrust_wire_requests_total{verb=\"repair\"} 3",
        "retrust_requests_submitted_total 3",
        "retrust_requests_completed_total 3", "retrust_queue_depth",
        "retrust_request_latency_seconds{quantile=\"0.99\"}",
        "retrust_request_latency_seconds_count 3",
        "retrust_context_cache_bytes_estimate",
        "retrust_search_expansions_total",
        "retrust_flight_records_total 3"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing series: " << needle << "\n"
        << text;
  }

  // Counters are monotone across scrapes.
  Json reply2 = [&] {
    Json::Object again;
    again["op"] = Json("metrics");
    return wire.Call(Json(std::move(again)));
  }();
  EXPECT_NE(reply2.Get("text")->AsString().find(
                "retrust_wire_requests_total{verb=\"metrics\"} 2"),
            std::string::npos);
}

// A repeated τ is answered from the session's search-answer memo: the
// search counters see one search, and a traced hit gets a search span
// without phase children.
TEST(ObsServiceMetrics, MemoHitsRecordNoSearchWork) {
  obs::MetricsRegistry registry;
  WireHarness wire(ObsServerOptions(&registry));
  ASSERT_TRUE(wire.Call(RepairJson("obs", 0.5, 1, false)).Get("ok")->AsBool());
  const uint64_t expansions = wire.server.Stats().search_expansions;
  ASSERT_GT(expansions, 0u);
  ASSERT_TRUE(wire.Call(RepairJson("obs", 0.5, 2, false)).Get("ok")->AsBool());
  Json traced = wire.Call(RepairJson("obs", 0.5, 3, /*traced=*/true));
  ASSERT_TRUE(traced.Get("ok")->AsBool());
  EXPECT_EQ(wire.server.Stats().search_expansions, expansions);

  const Json* service = FindSpan(*traced.Get("trace"), "service");
  ASSERT_NE(service, nullptr);
  const Json* session = FindSpan(*service, "session");
  ASSERT_NE(session, nullptr);
  const Json* search = FindSpan(*session, "search");
  ASSERT_NE(search, nullptr);
  const Json* phases = search->Get("spans");
  EXPECT_TRUE(phases == nullptr || phases->AsArray().empty());

  Json::Object req;
  req["op"] = Json("metrics");
  const std::string text =
      wire.Call(Json(std::move(req))).Get("text")->AsString();
  EXPECT_NE(text.find("retrust_search_requests_total{policy=\"exact\"} 1\n"),
            std::string::npos)
      << text;
}

// --- flight recorder + slow log ------------------------------------------

TEST(ObsServiceFlight, DumpRecentReturnsNewestFirstIncludingFailures) {
  obs::MetricsRegistry registry;
  ServerOptions opts = ObsServerOptions(&registry);
  opts.flight_recorder_capacity = 8;
  opts.slow_request_seconds = 1e-9;  // everything counts as slow
  WireHarness wire(std::move(opts));

  for (uint64_t seed : {1u, 2u}) {
    ASSERT_TRUE(
        wire.Call(RepairJson("obs", 0.5, seed, false)).Get("ok")->AsBool());
  }
  // An already-expired deadline fails through the queue's terminal fail
  // path — the recorder must remember failures, not just completions.
  Json expired_req = RepairJson("obs", 0.5, 3, false);
  expired_req.MutableObject()["deadline_seconds"] = Json(1e-9);
  Json failed = wire.Call(std::move(expired_req));
  ASSERT_FALSE(failed.Get("ok")->AsBool());

  Json::Object req;
  req["op"] = Json("dump_recent");
  Json reply = wire.Call(Json(std::move(req)));
  ASSERT_TRUE(reply.Get("ok")->AsBool());
  const Json::Array& records = reply.Get("records")->AsArray();
  ASSERT_EQ(records.size(), 3u);
  // Newest first: the expired request leads.
  EXPECT_NE(records[0].Get("status")->AsString(), "ok");
  EXPECT_EQ(records[1].Get("tenant")->AsString(), "obs");
  EXPECT_EQ(records[1].Get("verb")->AsString(), "repair");
  EXPECT_EQ(records[1].Get("status")->AsString(), "ok");
  EXPECT_GT(records[1].Get("total_seconds")->AsNumber(), 0.0);
  // The first repair searched; the second repeats its τ, so the session's
  // search-answer memo served it and its record shows no search work.
  EXPECT_GT(records[2].Get("search_states_visited")->AsInt(), 0);
  EXPECT_EQ(records[1].Get("search_states_visited")->AsInt(), 0);

  // A limit caps the dump; a bad limit is rejected.
  Json::Object limited;
  limited["op"] = Json("dump_recent");
  limited["limit"] = Json(1);
  Json one = wire.Call(Json(std::move(limited)));
  EXPECT_EQ(one.Get("records")->AsArray().size(), 1u);

  Json::Object bad;
  bad["op"] = Json("dump_recent");
  bad["limit"] = Json(-1);
  Json rejected = wire.Call(Json(std::move(bad)));
  EXPECT_FALSE(rejected.Get("ok")->AsBool());

  // The in-process accessors agree, and the slow log saw the repairs.
  EXPECT_EQ(wire.server.RecentRequests().size(), 3u);
  EXPECT_EQ(wire.server.RecentRequests(2).size(), 2u);
  EXPECT_GE(wire.server.SlowRequestsSeen(), 2u);
}

}  // namespace
}  // namespace retrust::service
