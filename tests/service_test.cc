// The service layer: wire-format round trips, tenant registry (eager +
// lazy CSV), admission control (queue-full/tenant-cap -> kOverloaded,
// pre-expired deadlines rejected before enqueue, in-queue expiry),
// cancellation that never leaks pool work, the apply_delta barrier, and
// latency accounting. Everything here is named Service*/ExecSharedPool so
// CI's TSan job picks it up.
//
// Determinism trick used throughout: ServerOptions::start_paused freezes
// dispatch, so queue states (full, cancelled-while-queued, expired-in-
// queue) are constructed exactly, then Resume() drains them.

#include <chrono>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "src/service/server.h"
#include "src/service/wire.h"

namespace retrust::service {
namespace {

Instance SmallInstance() {
  Schema schema(std::vector<Attribute>{{"Name", AttrType::kString},
                                       {"City", AttrType::kString},
                                       {"Zip", AttrType::kString}});
  Instance inst(schema);
  inst.AddTuple({Value("Alice"), Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Bob"), Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Carol"), Value("Springfield"), Value("22222")});
  inst.AddTuple({Value("Dave"), Value("Shelbyville"), Value("33333")});
  return inst;
}

std::vector<std::string> SmallFds() { return {"City->Zip"}; }

/// One τr = 1 repair through the future adapter.
Submitted<Result<RepairResponse>> RepairFull(Server& server,
                                             const std::string& tenant) {
  return AsFuture(server, &Server::Repair, tenant,
                  RepairRequest::AtRelative(1.0));
}

// --- wire format ---------------------------------------------------------

TEST(ServiceWire, JsonRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x\n",true,null],"b":{"nested":-3},"c":""})";
  Result<Json> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);

  Result<Json> reparsed = ParseJson(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), text);
}

TEST(ServiceWire, JsonReadsOfAnotherTypeAreEmpty) {
  Result<Json> parsed = ParseJson(R"({"n":2,"s":"x","a":[1],"t":true})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& n = *parsed->Get("n");
  EXPECT_EQ(n.type(), Json::Type::kNumber);
  EXPECT_FALSE(n.AsBool());
  EXPECT_EQ(n.AsString(), "");
  EXPECT_TRUE(n.AsArray().empty());
  EXPECT_TRUE(n.AsObject().empty());
  EXPECT_EQ(n.Get("n"), nullptr);
  EXPECT_EQ(parsed->Get("s")->AsNumber(), 0.0);
  EXPECT_EQ(parsed->Get("a")->AsInt(), 0);
  EXPECT_TRUE(parsed->Get("t")->AsBool());
  EXPECT_EQ(Json().type(), Json::Type::kNull);

  // Writing members into a non-object makes it an object.
  Json value(7);
  value.MutableObject()["id"] = Json(3);
  EXPECT_EQ(value.Dump(), R"({"id":3})");
}

TEST(ServiceWire, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\":1}x"}) {
    Result<Json> parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServiceWire, RepairRequestParsing) {
  Result<Json> obj = ParseJson(
      R"({"op":"repair","tau":3,"mode":"best_first","seed":9,"budget":50,)"
      R"("deadline_seconds":1.5})");
  ASSERT_TRUE(obj.ok());
  Result<RepairRequest> req = RepairRequestFromJson(*obj);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->tau, 3);
  EXPECT_EQ(req->mode, SearchMode::kBestFirst);
  EXPECT_EQ(req->seed, 9u);
  EXPECT_EQ(req->budget, 50);
  EXPECT_DOUBLE_EQ(req->deadline_seconds, 1.5);

  Result<Json> relative = ParseJson(R"({"tau_r":0.5})");
  ASSERT_TRUE(relative.ok());
  Result<RepairRequest> rel = RepairRequestFromJson(*relative);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->tau, -1);
  EXPECT_DOUBLE_EQ(rel->tau_r, 0.5);

  for (const char* bad :
       {R"({"op":"repair"})", R"({"tau":-2})", R"({"tau":1,"mode":"x"})"}) {
    Result<Json> parsed = ParseJson(bad);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(RepairRequestFromJson(*parsed).ok()) << bad;
  }
}

TEST(ServiceWire, DeltaBatchParsing) {
  Schema schema = SmallInstance().schema();
  Result<Json> obj = ParseJson(
      R"({"inserts":[["Eve","Springfield","11111"]],)"
      R"("updates":[[2,"Zip","11111"],[0,1,"Shelbyville"]],"deletes":[3]})");
  ASSERT_TRUE(obj.ok());
  Result<DeltaBatch> batch = DeltaBatchFromJson(*obj, schema);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->inserts.size(), 1u);
  ASSERT_EQ(batch->updates.size(), 2u);
  EXPECT_EQ(batch->updates[0].tuple, 2);
  EXPECT_EQ(batch->updates[0].attr, 2);  // "Zip" by name
  EXPECT_EQ(batch->updates[1].attr, 1);  // index form
  EXPECT_EQ(batch->deletes.size(), 1u);

  for (const char* bad :
       {R"({})", R"({"inserts":[["one","two"]]})",
        R"({"updates":[[0,"NoSuchAttr","v"]]})", R"({"deletes":["x"]})"}) {
    Result<Json> parsed = ParseJson(bad);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(DeltaBatchFromJson(*parsed, schema).ok()) << bad;
  }
}

// --- latency histogram ---------------------------------------------------

TEST(ServiceStats, LatencyHistogramPercentiles) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  for (int i = 0; i < 99; ++i) hist.Record(0.001);
  hist.Record(1.0);
  EXPECT_EQ(hist.count(), 100u);
  // Bucket upper bounds are conservative: p50 is near 1ms, p99+ sees the
  // outlier.
  EXPECT_LT(hist.Percentile(0.5), 0.01);
  EXPECT_GT(hist.Percentile(0.995), 0.5);
  EXPECT_LE(hist.Percentile(0.5), hist.Percentile(0.99));
}

// --- tenant registry -----------------------------------------------------

TEST(ServiceRegistry, EagerTenantAnswersAndDuplicateIsRejected) {
  Server server;
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());
  Status dup = server.LoadTenant("t", SmallInstance(), SmallFds());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);

  auto submitted = RepairFull(server, "t");
  Result<RepairResponse> response = submitted.future.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->repair.changed_cells.size(), 1u);
}

TEST(ServiceRegistry, LazyCsvLoadsOnFirstUse) {
  std::string path = testing::TempDir() + "/retrust_service_lazy.csv";
  {
    std::ofstream out(path);
    out << "Name,City,Zip\nAlice,Springfield,11111\nBob,Springfield,22222\n";
  }
  Server server;
  ASSERT_TRUE(server.LoadCsvTenant("lazy", path, SmallFds()).ok());

  Result<TenantStats> before = server.TenantStatsFor("lazy");
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->loaded);  // registration did not read the file

  auto submitted = RepairFull(server, "lazy");
  ASSERT_TRUE(submitted.future.get().ok());

  Result<TenantStats> after = server.TenantStatsFor("lazy");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->loaded);
  EXPECT_EQ(after->num_tuples, 2);
  EXPECT_EQ(after->completed, 1u);
  EXPECT_GT(after->bytes_estimate, 0u);
}

TEST(ServiceRegistry, MissingCsvSurfacesIoErrorOnRequest) {
  Server server;
  ASSERT_TRUE(
      server.LoadCsvTenant("ghost", "/nonexistent/ghost.csv", SmallFds())
          .ok());
  auto submitted = RepairFull(server, "ghost");
  Result<RepairResponse> response = submitted.future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIoError);
}

// --- admission control ---------------------------------------------------

TEST(ServiceAdmission, UnknownTenantRejectedBeforeEnqueue) {
  Server server;
  auto submitted = RepairFull(server, "nope");
  Result<RepairResponse> response = submitted.future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Stats().queue_depth, 0u);
}

TEST(ServiceAdmission, QueueFullIsOverloaded) {
  ServerOptions opts;
  opts.queue_capacity = 2;
  opts.start_paused = true;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());

  auto a = RepairFull(server, "t");
  auto b = RepairFull(server, "t");
  auto c = RepairFull(server, "t");

  // Paused dispatch: exactly the first two hold the queue's two slots.
  Result<RepairResponse> shed = c.future.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queue_depth, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);

  server.Resume();
  EXPECT_TRUE(a.future.get().ok());
  EXPECT_TRUE(b.future.get().ok());
  EXPECT_EQ(server.Stats().rejected(), 1u);
}

TEST(ServiceAdmission, TenantCapShedsOnlyTheHotTenant) {
  ServerOptions opts;
  opts.per_tenant_inflight = 1;
  opts.start_paused = true;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("hot", SmallInstance(), SmallFds()).ok());
  ASSERT_TRUE(server.LoadTenant("cold", SmallInstance(), SmallFds()).ok());

  auto hot1 = RepairFull(server, "hot");
  auto hot2 = RepairFull(server, "hot");
  auto cold1 = RepairFull(server, "cold");

  Result<RepairResponse> shed = hot2.future.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.Stats().rejected_tenant_cap, 1u);

  server.Resume();
  EXPECT_TRUE(hot1.future.get().ok());   // the capped tenant still serves
  EXPECT_TRUE(cold1.future.get().ok());  // other tenants were never affected
}

TEST(ServiceAdmission, PreExpiredDeadlineRejectedBeforeEnqueue) {
  ServerOptions opts;
  opts.start_paused = true;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());

  RepairRequest req = RepairRequest::AtRelative(1.0);
  req.deadline_seconds = -1.0;  // expired before it was ever submitted
  auto submitted = AsFuture(server, &Server::Repair, "t", req);
  Result<RepairResponse> response = submitted.future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kBudgetExceeded);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queue_depth, 0u);  // never enqueued
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServiceAdmission, DeadlineExpiringInQueueNeverReachesASession) {
  ServerOptions opts;
  opts.start_paused = true;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());

  RepairRequest req = RepairRequest::AtRelative(1.0);
  req.deadline_seconds = 0.005;
  auto submitted = AsFuture(server, &Server::Repair, "t", req);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Resume();

  Result<RepairResponse> response = submitted.future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kBudgetExceeded);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.completed, 0u);  // the session never saw it
}

TEST(ServiceAdmission, ClientOwnedCancelTokenIsInvalidArgument) {
  Server server;
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());
  exec::CancelToken token;
  RepairRequest req = RepairRequest::AtRelative(1.0);
  req.cancel = &token;
  Result<RepairResponse> response =
      AsFuture(server, &Server::Repair, "t", req).future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// --- cancellation --------------------------------------------------------

TEST(ServiceCancel, QueuedRequestCancelsWithoutLeakingPoolWork) {
  ServerOptions opts;
  opts.start_paused = true;
  opts.workers = 4;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());

  auto doomed = RepairFull(server, "t");
  auto survivor = RepairFull(server, "t");
  EXPECT_TRUE(server.Cancel(doomed.id));
  server.Resume();

  Result<RepairResponse> cancelled = doomed.future.get();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(survivor.future.get().ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);  // only the survivor executed
  // A finished request is no longer cancellable.
  EXPECT_FALSE(server.Cancel(doomed.id));
  EXPECT_FALSE(server.Cancel(999999));
}

TEST(ServiceCancel, SweepCancelsCooperatively) {
  Server server;
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());
  std::vector<RepairRequest> reqs(4, RepairRequest::AtRelative(1.0));
  auto submitted = AsFuture(server, &Server::Sweep, "t", reqs);
  server.Cancel(submitted.id);  // may land before, during, or after
  std::vector<Result<RepairResponse>> replies = submitted.future.get();
  ASSERT_EQ(replies.size(), 4u);
  for (const Result<RepairResponse>& r : replies) {
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kCancelled)
        << r.status().ToString();
  }
}

// --- sequential consistency: the apply_delta barrier ---------------------

TEST(ServiceServer, ApplyDeltaIsAPerTenantBarrier) {
  ServerOptions opts;
  opts.workers = 4;
  opts.start_paused = true;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());

  // Session's root δP is 2 before the delta; deleting Carol (the only
  // City->Zip violation) drops it to 0.
  auto before = RepairFull(server, "t");
  DeltaBatch delta;
  delta.Delete(2);
  auto apply = AsFuture(server, &Server::Apply, "t", delta);
  auto after = RepairFull(server, "t");
  server.Resume();

  Result<RepairResponse> r_before = before.future.get();
  ASSERT_TRUE(r_before.ok());
  EXPECT_EQ(r_before->tau, 2);  // resolved against the pre-delta root

  ASSERT_TRUE(apply.future.get().ok());
  Result<RepairResponse> r_after = after.future.get();
  ASSERT_TRUE(r_after.ok());
  EXPECT_EQ(r_after->tau, 0);  // resolved against the post-delta root
  EXPECT_TRUE(r_after->repair.changed_cells.empty());
}

// --- fairness and lane ordering (queue-level, fully deterministic) -------

std::shared_ptr<PendingRequest> QueueEntry(const std::string& tenant,
                                           bool is_write = false) {
  auto req = std::make_shared<PendingRequest>();
  static uint64_t next_id = 1;
  req->id = next_id++;
  req->tenant = tenant;
  req->is_write = is_write;
  req->submitted = std::chrono::steady_clock::now();
  req->execute = [](Session&, PendingRequest&) {};
  req->fail = [](const Status&) {};
  return req;
}

TEST(ServiceQueue, RoundRobinInterleavesAFloodingTenant) {
  AdmissionController admission({});
  RequestQueue queue(&admission);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.Push(QueueEntry("hot")).ok());
  ASSERT_TRUE(queue.Push(QueueEntry("meek")).ok());

  // Pop order: hot flooded first, but the meek tenant's single request is
  // dispatched in the very first round-robin round — 16 queued hot
  // requests could not push it back any further.
  EXPECT_EQ(queue.Pop()->tenant, "hot");
  EXPECT_EQ(queue.Pop()->tenant, "meek");
  EXPECT_EQ(queue.Pop()->tenant, "hot");
  EXPECT_EQ(queue.Pop()->tenant, "hot");
  EXPECT_EQ(queue.Pop()->tenant, "hot");
  EXPECT_EQ(queue.Depth(), 0u);
}

TEST(ServiceQueue, WriteBarrierOrdersALane) {
  AdmissionController admission({});
  RequestQueue queue(&admission);
  auto read1 = QueueEntry("t");
  auto write = QueueEntry("t", /*is_write=*/true);
  auto read2 = QueueEntry("t");
  auto other = QueueEntry("u");
  ASSERT_TRUE(queue.Push(read1).ok());
  ASSERT_TRUE(queue.Push(write).ok());
  ASSERT_TRUE(queue.Push(read2).ok());
  ASSERT_TRUE(queue.Push(other).ok());

  // read1 dispatches; while it executes, t's head is the write — blocked
  // behind the in-flight read — so the other tenant's lane serves next.
  EXPECT_EQ(queue.Pop().get(), read1.get());
  EXPECT_EQ(queue.Pop().get(), other.get());
  auto [queued_t, executing_t] = queue.LaneLoad("t");
  EXPECT_EQ(queued_t, 2u);
  EXPECT_EQ(executing_t, 1u);

  // Once read1 drains, the write dispatches; read2 stays blocked behind
  // the running barrier until the write drains too.
  queue.OnFinished(*read1);
  EXPECT_EQ(queue.Pop().get(), write.get());
  queue.OnFinished(*write);
  EXPECT_EQ(queue.Pop().get(), read2.get());
  queue.OnFinished(*read2);
  queue.OnFinished(*other);
  EXPECT_EQ(queue.InFlight(), 0u);
}

TEST(ServiceServer, StopFailsQueuedRequests) {
  ServerOptions opts;
  opts.start_paused = true;
  Server server(opts);
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), SmallFds()).ok());
  auto stuck = RepairFull(server, "t");
  server.Stop();
  Result<RepairResponse> response = stuck.future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
  // Submissions after Stop fail fast instead of hanging.
  Result<RepairResponse> late = RepairFull(server, "t").future.get();
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace retrust::service
