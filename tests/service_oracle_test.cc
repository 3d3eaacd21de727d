// The service-layer determinism oracle (acceptance criterion of the
// service PR): N tenants × M interleaved repair/sweep/search/apply_delta
// requests through one Server produce responses BIT-IDENTICAL to serial
// per-Session execution in submission order, for workers ∈ {1, 2, 4, 8}.
//
// Why this holds by construction: per-tenant lanes are FIFO, only lane
// heads dispatch, reads commute (Session's const surface is thread-safe
// and deterministic), and an apply_delta is a lane barrier — so every
// tenant observes its own requests in submission order with deltas fully
// ordered against reads, while tenants run concurrently against each
// other. The worker count can then only change wall-clock, never a byte
// of any response. (Named Service* so CI's TSan job runs it.)

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/relational/csv.h"
#include "src/service/server.h"

namespace retrust::service {
namespace {

struct TenantWorkload {
  std::string name;
  Instance data;
  std::vector<std::string> fd_texts;
  DeltaBatch delta;  ///< applied mid-script
};

TenantWorkload MakeTenant(int index) {
  CensusConfig gen;
  gen.num_tuples = 120 + 10 * index;  // distinct shapes per tenant
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 40 + static_cast<uint64_t>(index) * 7;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = gen.seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);

  TenantWorkload tenant;
  tenant.name = "tenant" + std::to_string(index);
  Schema schema = dirty.data.schema();
  for (const FD& fd : dirty.fds.fds()) {
    tenant.fd_texts.push_back(fd.ToString(schema));
  }
  // Hold the last rows back as the delta traffic; also update one cell and
  // delete one tuple so all three mutation kinds cross the barrier.
  const int held_back = 4;
  const int n = dirty.data.NumTuples() - held_back;
  Instance base(schema);
  for (TupleId t = 0; t < n; ++t) base.AddTuple(dirty.data.row(t));
  tenant.data = std::move(base);
  for (int i = 0; i < held_back; ++i) {
    tenant.delta.Insert(dirty.data.row(n + i));
  }
  tenant.delta.Update(3, 1, Value(static_cast<int64_t>(90000 + index)));
  tenant.delta.Delete(7);
  return tenant;
}

/// The deterministic payload of a reply (everything except wall-clock).
std::string Fingerprint(const Result<RepairResponse>& r,
                        const Schema& schema) {
  if (!r.ok()) return std::string("error:") + StatusCodeName(r.status().code());
  const Repair& repair = r->repair;
  std::string fp = "tau=" + std::to_string(r->tau);
  fp += "|sigma=" + repair.sigma_prime.ToString(schema);
  fp += "|distc=" + std::to_string(repair.distc);
  fp += "|deltaP=" + std::to_string(repair.delta_p);
  fp += "|cells:";
  for (const CellRef& c : repair.changed_cells) {
    fp += std::to_string(c.tuple) + "," + std::to_string(c.attr) + ";";
  }
  fp += "|data:" + repair.data.Decode().ToTable();
  return fp;
}

std::string Fingerprint(const Result<SearchProbe>& r) {
  if (!r.ok()) return std::string("error:") + StatusCodeName(r.status().code());
  std::string fp = "tau=" + std::to_string(r->tau);
  fp += "|found=" + std::to_string(r->result.repair.has_value());
  if (r->result.repair.has_value()) {
    fp += "|distc=" + std::to_string(r->result.repair->distc);
    fp += "|deltaP=" + std::to_string(r->result.repair->delta_p);
  }
  fp += "|visited=" + std::to_string(r->result.stats.states_visited);
  return fp;
}

std::string Fingerprint(const Result<ApplyStats>& r) {
  if (!r.ok()) return std::string("error:") + StatusCodeName(r.status().code());
  return "n=" + std::to_string(r->num_tuples) +
         "|v=" + std::to_string(r->data_version) +
         "|groups=" + std::to_string(r->groups_preserved) + "/" +
         std::to_string(r->groups_changed);
}

/// Per-tenant script, mirrored on both sides. Phase 1: mixed reads;
/// phase 2: the delta; phase 3: reads again (post-delta answers).
const std::vector<double> kTausR = {0.0, 0.3, 1.0};

std::vector<RepairRequest> ReadPhase(uint64_t seed_base) {
  std::vector<RepairRequest> reqs;
  for (double tr : kTausR) {
    RepairRequest req = RepairRequest::AtRelative(tr);
    req.seed = seed_base + static_cast<uint64_t>(tr * 10);
    reqs.push_back(req);
  }
  return reqs;
}

/// Serial oracle: one private Session per tenant, script in order.
std::vector<std::string> SerialExpectation(const TenantWorkload& tenant) {
  std::vector<std::string> fps;
  Result<Session> session = Session::Open(tenant.data, tenant.fd_texts);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  const Schema& schema = session->schema();

  for (const RepairRequest& req : ReadPhase(1)) {
    fps.push_back(Fingerprint(session->Repair(req), schema));
  }
  {  // the sweep runs the batch through RepairMany, like the service verb
    std::vector<RepairRequest> batch = ReadPhase(2);
    for (const Result<RepairResponse>& r : session->RepairMany(batch)) {
      fps.push_back(Fingerprint(r, schema));
    }
  }
  fps.push_back(Fingerprint(session->Search(RepairRequest::AtRelative(0.5))));
  fps.push_back(Fingerprint(session->Apply(tenant.delta)));
  for (const RepairRequest& req : ReadPhase(3)) {
    fps.push_back(Fingerprint(session->Repair(req), schema));
  }
  return fps;
}

/// Service run: every tenant's full script submitted up-front, tenants
/// interleaved request-by-request, then futures collected in script order.
std::vector<std::vector<std::string>> ServiceRun(
    const std::vector<TenantWorkload>& tenants, int workers) {
  ServerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 0;  // unbounded: this test is about ordering
  Server server(opts);
  std::vector<const Schema*> schemas;
  for (const TenantWorkload& tenant : tenants) {
    EXPECT_TRUE(
        server.LoadTenant(tenant.name, tenant.data, tenant.fd_texts).ok());
    schemas.push_back(
        &(*server.tenants().Get(tenant.name))->schema());
  }

  struct TenantFutures {
    std::vector<Submitted<Result<RepairResponse>>> repairs1;
    Submitted<std::vector<Result<RepairResponse>>> sweep;
    Submitted<Result<SearchProbe>> search;
    Submitted<Result<ApplyStats>> apply;
    std::vector<Submitted<Result<RepairResponse>>> repairs2;
  };
  std::vector<TenantFutures> futures(tenants.size());

  // Interleave ACROSS tenants per submission step, so the queue holds a
  // genuinely mixed request stream.
  for (const RepairRequest& req : ReadPhase(1)) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      futures[t].repairs1.push_back(
          AsFuture(server, &Server::Repair, tenants[t].name, req));
    }
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    futures[t].sweep =
        AsFuture(server, &Server::Sweep, tenants[t].name, ReadPhase(2));
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    futures[t].search =
        AsFuture(server, &Server::Search, tenants[t].name,
                 RepairRequest::AtRelative(0.5));
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    futures[t].apply =
        AsFuture(server, &Server::Apply, tenants[t].name, tenants[t].delta);
  }
  for (const RepairRequest& req : ReadPhase(3)) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      futures[t].repairs2.push_back(
          AsFuture(server, &Server::Repair, tenants[t].name, req));
    }
  }

  std::vector<std::vector<std::string>> fps(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    const Schema& schema = *schemas[t];
    for (auto& f : futures[t].repairs1) {
      fps[t].push_back(Fingerprint(f.future.get(), schema));
    }
    for (const Result<RepairResponse>& r : futures[t].sweep.future.get()) {
      fps[t].push_back(Fingerprint(r, schema));
    }
    fps[t].push_back(Fingerprint(futures[t].search.future.get()));
    fps[t].push_back(Fingerprint(futures[t].apply.future.get()));
    for (auto& f : futures[t].repairs2) {
      fps[t].push_back(Fingerprint(f.future.get(), schema));
    }
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected(), 0u) << "rejections under unbounded capacity";
  return fps;
}

TEST(ServiceOracle, ConcurrentMultiTenantMatchesSerialPerSession) {
  const int kNumTenants = 3;
  std::vector<TenantWorkload> tenants;
  std::vector<std::vector<std::string>> expected;
  for (int t = 0; t < kNumTenants; ++t) {
    tenants.push_back(MakeTenant(t));
    expected.push_back(SerialExpectation(tenants.back()));
  }

  for (int workers : {1, 2, 4, 8}) {
    std::vector<std::vector<std::string>> got = ServiceRun(tenants, workers);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got[t].size(), expected[t].size()) << "tenant " << t;
      for (size_t i = 0; i < got[t].size(); ++i) {
        EXPECT_EQ(got[t][i], expected[t][i])
            << "workers=" << workers << " tenant=" << t << " request=" << i;
      }
    }
  }
}

/// Same property with the shared session pool enabled: tenant Sessions
/// building their contexts and scheduling sweeps and deltas on one
/// process-wide pool must not change a byte either. The last tenant is
/// registered lazily from a CSV file, so its first request builds its
/// context on the shared pool from a server worker while the other
/// tenants' scripts, each on its own client thread, use the same pool.
TEST(ServiceOracle, SharedSessionPoolIsBitIdentical) {
  std::vector<TenantWorkload> tenants;
  for (int t = 0; t < 3; ++t) tenants.push_back(MakeTenant(t));
  TenantWorkload& lazy = tenants.back();
  const std::string csv_path =
      testing::TempDir() + "/service_oracle_shared_pool_lazy.csv";
  WriteCsvFile(lazy.data, csv_path);
  lazy.data = ReadCsvFile(csv_path);  // what the lazy open will read
  std::vector<std::vector<std::string>> expected;
  for (const TenantWorkload& tenant : tenants) {
    expected.push_back(SerialExpectation(tenant));
  }

  ServerOptions opts;
  opts.workers = 4;
  opts.session_threads = 4;
  opts.queue_capacity = 0;
  Server server(opts);
  for (size_t t = 0; t + 1 < tenants.size(); ++t) {
    ASSERT_TRUE(server.LoadTenant(tenants[t].name, tenants[t].data,
                                  tenants[t].fd_texts)
                    .ok());
  }
  ASSERT_TRUE(server.LoadCsvTenant(lazy.name, csv_path, lazy.fd_texts).ok());

  auto run_script = [&server](const TenantWorkload& tenant) {
    std::vector<std::string> fps;
    const std::string& name = tenant.name;
    // The first request opens a lazy tenant; read the schema after it.
    std::vector<Result<RepairResponse>> first;
    for (const RepairRequest& req : ReadPhase(1)) {
      first.push_back(
          AsFuture(server, &Server::Repair, name, req).future.get());
    }
    const Schema& schema = (*server.tenants().Get(name))->schema();
    for (const Result<RepairResponse>& r : first) {
      fps.push_back(Fingerprint(r, schema));
    }
    for (const Result<RepairResponse>& r :
         AsFuture(server, &Server::Sweep, name, ReadPhase(2)).future.get()) {
      fps.push_back(Fingerprint(r, schema));
    }
    fps.push_back(Fingerprint(
        AsFuture(server, &Server::Search, name, RepairRequest::AtRelative(0.5))
            .future.get()));
    fps.push_back(Fingerprint(
        AsFuture(server, &Server::Apply, name, tenant.delta).future.get()));
    for (const RepairRequest& req : ReadPhase(3)) {
      fps.push_back(Fingerprint(
          AsFuture(server, &Server::Repair, name, req).future.get(), schema));
    }
    return fps;
  };

  std::vector<std::vector<std::string>> got(tenants.size());
  std::vector<std::thread> clients;
  for (size_t t = 0; t < tenants.size(); ++t) {
    clients.emplace_back([&, t] { got[t] = run_script(tenants[t]); });
  }
  for (std::thread& client : clients) client.join();
  std::remove(csv_path.c_str());

  for (size_t t = 0; t < tenants.size(); ++t) {
    ASSERT_EQ(got[t].size(), expected[t].size()) << "tenant=" << t;
    for (size_t i = 0; i < got[t].size(); ++i) {
      EXPECT_EQ(got[t][i], expected[t][i])
          << "tenant=" << t << " request=" << i;
    }
  }
}

}  // namespace
}  // namespace retrust::service
