// The event-driven wire & quotas PR's test surface (named Service* so
// CI's TSan job runs it):
//   * LineDecoder — partial frames split at EVERY byte boundary decode to
//     the same lines; oversized lines are discarded in bounded memory and
//     surface exactly once; the decoder resyncs on the next line.
//   * QuotaManager — token-bucket refill/burst semantics under a fake
//     clock, per-tenant overrides.
//   * Quota admission — an exhausted tenant gets kOverloaded WITHOUT its
//     request ever entering the queue.
//   * Wire pipelining — replies complete out of submission order and are
//     matched back by the echoed "id"; an oversized request line gets a
//     bounded error reply and the connection keeps working.
//   * The PR 5 oracle extended over the wire: pipelined connections
//     produce replies bit-identical to serial per-Session execution at
//     workers 1/2/4/8.
//   * Sweep policy-aware scheduling — greedy-first seeding never changes
//     an exact job's result (stats included).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/quota.h"
#include "src/service/server.h"
#include "src/service/wire.h"

namespace retrust::service {
namespace {

// --- LineDecoder ---------------------------------------------------------

std::vector<LineDecoder::Line> DrainDecoder(LineDecoder* decoder) {
  std::vector<LineDecoder::Line> lines;
  LineDecoder::Line line;
  while (decoder->Pop(&line)) lines.push_back(line);
  return lines;
}

TEST(ServiceLineDecoder, SplitAtEveryByteBoundaryDecodesIdentically) {
  const std::string stream = "{\"op\":\"a\"}\r\n\n{\"op\":\"bb\"}\n{\"x\":1}\n";
  // Reference: the whole stream in one Feed.
  std::vector<std::string> expected;
  {
    LineDecoder decoder(1 << 10);
    decoder.Feed(stream.data(), stream.size());
    for (const LineDecoder::Line& l : DrainDecoder(&decoder)) {
      ASSERT_FALSE(l.oversized);
      expected.push_back(l.text);
    }
  }
  ASSERT_EQ(expected.size(), 3u);  // the empty line is dropped
  EXPECT_EQ(expected[0], "{\"op\":\"a\"}");  // '\r' stripped

  // Every split point: bytes [0, cut) then [cut, end).
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    LineDecoder decoder(1 << 10);
    decoder.Feed(stream.data(), cut);
    decoder.Feed(stream.data() + cut, stream.size() - cut);
    std::vector<std::string> got;
    for (const LineDecoder::Line& l : DrainDecoder(&decoder)) {
      ASSERT_FALSE(l.oversized);
      got.push_back(l.text);
    }
    EXPECT_EQ(got, expected) << "split at byte " << cut;
  }
}

TEST(ServiceLineDecoder, OversizedLineIsBoundedAndResyncs) {
  LineDecoder decoder(8);
  const std::string big(1000, 'x');
  // Streamed in tiny chunks: the decoder must not buffer the blown line.
  for (size_t i = 0; i < big.size(); i += 7) {
    decoder.Feed(big.data() + i, std::min<size_t>(7, big.size() - i));
    EXPECT_LE(decoder.partial_bytes(), 8u);
  }
  EXPECT_TRUE(DrainDecoder(&decoder).empty());  // marker waits for the \n
  const std::string tail = "\nok\n";
  decoder.Feed(tail.data(), tail.size());
  std::vector<LineDecoder::Line> lines = DrainDecoder(&decoder);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].oversized);   // exactly one marker per blown line
  EXPECT_FALSE(lines[1].oversized);  // resynced on the next line
  EXPECT_EQ(lines[1].text, "ok");
}

// --- QuotaManager --------------------------------------------------------

TEST(ServiceQuota, TokenBucketRefillsAtRateUpToBurst) {
  double now = 0.0;
  QuotaLimits limits;
  limits.rate = 2.0;   // tokens per second
  limits.burst = 3.0;  // bucket capacity
  QuotaManager quota(limits, [&now] { return now; });

  // Bucket starts FULL: exactly `burst` requests pass, then exhaustion.
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_FALSE(quota.TryAcquire("t"));

  now += 0.5;  // refills rate * dt = 1 token
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_FALSE(quota.TryAcquire("t"));

  now += 100.0;  // refill caps at burst, not rate * dt
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_TRUE(quota.TryAcquire("t"));
  EXPECT_FALSE(quota.TryAcquire("t"));
}

TEST(ServiceQuota, PerTenantOverridesAndUnlimitedDefault) {
  double now = 0.0;
  QuotaManager quota(QuotaLimits{}, [&now] { return now; });  // unlimited

  for (int i = 0; i < 100; ++i) EXPECT_TRUE(quota.TryAcquire("free"));

  QuotaLimits tight;
  tight.rate = 1.0;
  tight.burst = 1.0;
  quota.SetLimits("metered", tight);
  EXPECT_TRUE(quota.TryAcquire("metered"));
  EXPECT_FALSE(quota.TryAcquire("metered"));
  // The other tenant is untouched by the override.
  EXPECT_TRUE(quota.TryAcquire("free"));

  // Lifting the override back to unlimited clears the throttle.
  quota.SetLimits("metered", QuotaLimits{});
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(quota.TryAcquire("metered"));
}

// --- shared tenant fixture ----------------------------------------------

struct WireTenant {
  std::string name;
  Instance data;
  std::vector<std::string> fd_texts;
};

WireTenant MakeWireTenant(int index) {
  CensusConfig gen;
  gen.num_tuples = 90 + 10 * index;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 60 + static_cast<uint64_t>(index) * 7;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = gen.seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);

  WireTenant tenant;
  tenant.name = "tenant" + std::to_string(index);
  Schema schema = dirty.data.schema();
  for (const FD& fd : dirty.fds.fds()) {
    tenant.fd_texts.push_back(fd.ToString(schema));
  }
  tenant.data = dirty.data;
  return tenant;
}

// --- quota admission through the Server ---------------------------------

TEST(ServiceQuota, ExhaustedTenantIsRejectedWithoutEnqueue) {
  auto now = std::make_shared<double>(0.0);
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 0;  // unbounded: only the quota can reject here
  opts.default_quota.rate = 1.0;
  opts.default_quota.burst = 1.0;
  opts.quota_clock = [now] { return *now; };
  Server server(opts);
  WireTenant tenant = MakeWireTenant(0);
  ASSERT_TRUE(server.LoadTenant(tenant.name, tenant.data, tenant.fd_texts).ok());

  RepairRequest req = RepairRequest::AtRelative(0.5);
  auto first = AsFuture(server, &Server::Repair, tenant.name, req);
  // The token is already spent for the second and third.
  auto second = AsFuture(server, &Server::Repair, tenant.name, req);
  auto third = AsFuture(server, &Server::Repair, tenant.name, req);

  Result<RepairResponse> r2 = second.future.get();
  Result<RepairResponse> r3 = third.future.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kOverloaded);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kOverloaded);
  EXPECT_TRUE(first.future.get().ok());

  *now = 1.0;  // one token refilled
  EXPECT_TRUE(
      AsFuture(server, &Server::Repair, tenant.name, req).future.get().ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_quota, 2u);
  EXPECT_EQ(stats.completed, 2u);  // the rejected pair never entered a lane
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// --- wire-level pipelining ----------------------------------------------

/// Everything wall-clock or correlation-only stripped, recursively — what
/// remains must be bit-identical across runs.
Json StripVolatile(const Json& value) {
  if (value.is_object()) {
    Json::Object out;
    for (const auto& [key, member] : value.AsObject()) {
      if (key == "seconds" || key == "first_repair_seconds" || key == "id") {
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

Json RepairJson(const std::string& tenant, double tau_r, uint64_t seed) {
  Json::Object obj;
  obj["op"] = Json("repair");
  obj["tenant"] = Json(tenant);
  obj["tau_r"] = Json(tau_r);
  obj["seed"] = Json(seed);
  return Json(std::move(obj));
}

TEST(ServiceWire, RepliesCompleteOutOfOrderAndMatchIds) {
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 0;
  opts.start_paused = true;  // repairs park in the queue until Resume
  Server server(opts);
  WireTenant tenant = MakeWireTenant(0);
  ASSERT_TRUE(server.LoadTenant(tenant.name, tenant.data, tenant.fd_texts).ok());

  EventLoop::Options loop_opts;
  loop_opts.port = 0;
  EventLoop loop(&server, loop_opts);
  ASSERT_TRUE(loop.Start().ok());

  auto client = WireClient::Connect(loop.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // First on the wire, parked behind the paused queue...
  std::future<Result<Json>> repair =
      (*client)->Call(RepairJson(tenant.name, 0.5, 7));
  // ...while stats (served inline off the reader thread) overtakes it.
  Json::Object stats_req;
  stats_req["op"] = Json("stats");
  std::future<Result<Json>> stats = (*client)->Call(Json(std::move(stats_req)));

  Result<Json> stats_reply = stats.get();
  ASSERT_TRUE(stats_reply.ok()) << stats_reply.status().ToString();
  const Json* ok = stats_reply->Get("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->AsBool());
  // The repair genuinely hasn't completed: its reply is still pending.
  EXPECT_EQ(repair.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  server.Resume();
  Result<Json> repair_reply = repair.get();
  ASSERT_TRUE(repair_reply.ok()) << repair_reply.status().ToString();
  const Json* distc = repair_reply->Get("distc");
  ASSERT_NE(distc, nullptr);  // matched to the REPAIR, not the stats reply

  loop.Stop();
  server.Stop();
}

TEST(ServiceWire, OversizedLineGetsBoundedErrorAndConnectionSurvives) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 0;
  Server server(opts);

  EventLoop::Options loop_opts;
  loop_opts.port = 0;
  loop_opts.max_line_bytes = 256;
  EventLoop loop(&server, loop_opts);
  ASSERT_TRUE(loop.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(loop.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::string giant = "{\"op\":\"" + std::string(4096, 'x') + "\"}\n";
  std::string follow = "{\"op\":\"stats\",\"id\":42}\n";
  std::string wire = giant + follow;
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  std::string buf;
  char chunk[4096];
  while (std::count(buf.begin(), buf.end(), '\n') < 2) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection died instead of replying";
    buf.append(chunk, static_cast<size_t>(n));
  }
  size_t nl = buf.find('\n');
  Result<Json> first = ParseJson(buf.substr(0, nl));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->Get("ok")->AsBool());
  EXPECT_EQ(first->Get("error")->AsString(), "invalid_argument");
  EXPECT_EQ(first->Get("id"), nullptr);  // content (and id) were discarded

  Result<Json> second = ParseJson(buf.substr(nl + 1, buf.find('\n', nl + 1) - nl - 1));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->Get("ok")->AsBool());  // the connection resynced
  EXPECT_EQ(second->Get("id")->AsInt(), 42);

  ::close(fd);
  loop.Stop();
  server.Stop();
}

// --- the PR 5 oracle, extended over pipelined connections ----------------

/// The per-tenant request script, as wire JSON (ids left to the client).
std::vector<Json> WireScript(const WireTenant& tenant) {
  std::vector<Json> script;
  for (double tr : {0.0, 0.5, 1.0}) {
    script.push_back(RepairJson(tenant.name, tr, 1 + static_cast<uint64_t>(tr * 10)));
  }
  {
    Json::Object sweep;
    sweep["op"] = Json("sweep");
    sweep["tenant"] = Json(tenant.name);
    Json::Array reqs;
    reqs.push_back(RepairJson(tenant.name, 0.3, 2));
    reqs.push_back(RepairJson(tenant.name, 0.8, 3));
    sweep["requests"] = Json(std::move(reqs));
    script.push_back(Json(std::move(sweep)));
  }
  {
    Json::Object apply;
    apply["op"] = Json("apply_delta");
    apply["tenant"] = Json(tenant.name);
    Json::Array updates;
    Json::Array update;
    update.push_back(Json(3));
    update.push_back(Json(1));  // attr by index
    update.push_back(Json("90001"));
    updates.push_back(Json(std::move(update)));
    apply["updates"] = Json(std::move(updates));
    Json::Array deletes;
    deletes.push_back(Json(7));
    apply["deletes"] = Json(std::move(deletes));
    script.push_back(Json(std::move(apply)));
  }
  for (double tr : {0.25, 1.0}) {
    script.push_back(RepairJson(tenant.name, tr, 5));
  }
  return script;
}

/// Serial oracle: one private Session, the SAME wire objects decoded and
/// executed in script order, replies rendered by the same ToJson.
std::vector<std::string> SerialWireExpectation(const WireTenant& tenant) {
  Result<Session> session = Session::Open(tenant.data, tenant.fd_texts);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  const Schema& schema = session->schema();
  std::vector<std::string> fps;
  for (const Json& req : WireScript(tenant)) {
    const std::string op = req.Get("op")->AsString();
    if (op == "repair") {
      Result<RepairRequest> rr = RepairRequestFromJson(req);
      EXPECT_TRUE(rr.ok());
      Result<RepairResponse> r = session->Repair(*rr);
      fps.push_back(StripVolatile(r.ok() ? ToJson(*r, schema)
                                         : ErrorJson(r.status())).Dump());
    } else if (op == "sweep") {
      std::vector<RepairRequest> batch;
      for (const Json& r : req.Get("requests")->AsArray()) {
        Result<RepairRequest> rr = RepairRequestFromJson(r);
        EXPECT_TRUE(rr.ok());
        batch.push_back(*rr);
      }
      Json::Array results;
      for (const Result<RepairResponse>& r : session->RepairMany(batch)) {
        results.push_back(r.ok() ? ToJson(*r, schema) : ErrorJson(r.status()));
      }
      Json::Object obj;
      obj["ok"] = Json(true);
      obj["results"] = Json(std::move(results));
      fps.push_back(StripVolatile(Json(std::move(obj))).Dump());
    } else if (op == "apply_delta") {
      Result<DeltaBatch> delta = DeltaBatchFromJson(req, schema);
      EXPECT_TRUE(delta.ok());
      Result<ApplyStats> r = session->Apply(*delta);
      fps.push_back(StripVolatile(r.ok() ? ToJson(*r)
                                         : ErrorJson(r.status())).Dump());
    } else {
      ADD_FAILURE() << "unexpected op " << op;
    }
  }
  return fps;
}

TEST(ServiceWireOracle, PipelinedConnectionsMatchSerialSessions) {
  const int kNumTenants = 2;
  std::vector<WireTenant> tenants;
  std::vector<std::vector<std::string>> expected;
  for (int t = 0; t < kNumTenants; ++t) {
    tenants.push_back(MakeWireTenant(t));
    expected.push_back(SerialWireExpectation(tenants[t]));
  }

  for (int workers : {1, 2, 4, 8}) {
    ServerOptions opts;
    opts.workers = workers;
    opts.queue_capacity = 0;
    Server server(opts);
    for (const WireTenant& tenant : tenants) {
      ASSERT_TRUE(
          server.LoadTenant(tenant.name, tenant.data, tenant.fd_texts).ok());
    }
    EventLoop::Options loop_opts;
    loop_opts.port = 0;
    EventLoop loop(&server, loop_opts);
    ASSERT_TRUE(loop.Start().ok());

    // One pipelined connection per tenant; the full script goes out
    // before any reply is awaited, interleaved across tenants so the
    // queue holds a genuinely mixed stream.
    std::vector<std::unique_ptr<WireClient>> clients;
    for (int t = 0; t < kNumTenants; ++t) {
      auto c = WireClient::Connect(loop.port());
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      clients.push_back(std::move(*c));
    }
    std::vector<std::vector<Json>> scripts;
    for (const WireTenant& tenant : tenants) {
      scripts.push_back(WireScript(tenant));
    }
    std::vector<std::vector<std::future<Result<Json>>>> futures(kNumTenants);
    for (size_t step = 0; step < scripts[0].size(); ++step) {
      for (int t = 0; t < kNumTenants; ++t) {
        futures[t].push_back(clients[t]->Call(scripts[t][step]));
      }
    }
    for (int t = 0; t < kNumTenants; ++t) {
      for (size_t i = 0; i < futures[t].size(); ++i) {
        Result<Json> reply = futures[t][i].get();
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        EXPECT_EQ(StripVolatile(*reply).Dump(), expected[t][i])
            << "workers=" << workers << " tenant=" << t << " request=" << i;
      }
    }
    EXPECT_EQ(server.Stats().rejected(), 0u);
    clients.clear();
    loop.Stop();
    server.Stop();
  }
}

}  // namespace
}  // namespace retrust::service
