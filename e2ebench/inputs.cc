// Input generation: every dataset, snapshot, delta batch and request
// schedule of a workload, derived from the workload seed before any clock
// starts. The service only ever sees the generated files and requests.

#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/relational/csv.h"
#include "src/util/rng.h"

namespace e2e {

const char* const kWorkloads[] = {"warm_read", "state_change", "wire_small",
                                  nullptr};

namespace {

using retrust::CensusConfig;
using retrust::FD;
using retrust::Instance;
using retrust::PerturbOptions;
using retrust::Result;
using retrust::Rng;
using retrust::Session;

/// The default (dense) generator: low-cardinality columns, so equivalence
/// classes grow with n and the conflict graph is dense.
PerturbOptions DenseConfig(int n, CensusConfig* gen) {
  gen->num_tuples = n;
  gen->num_attrs = 8;
  gen->planted_lhs_sizes = {2, 2};
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  return perturb;
}

/// bench/scaling_tuples.cc's regime: every attribute informative, a domain
/// that grows with n, near-uniform popularity — sparse conflicts.
PerturbOptions SparseConfig(int n, CensusConfig* gen) {
  gen->num_tuples = n;
  gen->num_attrs = 8;
  gen->planted_lhs_sizes = {2, 2};
  gen->num_base_attrs = 6;
  gen->domain_size = std::max(64, n / 8);
  gen->zipf_s = 0.15;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.01;
  perturb.fd_error_rate = 0.5;
  return perturb;
}

/// Wide Σ (bench/search_frontier.cc's regime): four FDs of LHS width 4 over
/// 12 attributes, where the FD search, not data repair, dominates.
PerturbOptions WideConfig(int n, CensusConfig* gen) {
  gen->num_tuples = n;
  gen->num_attrs = 12;
  gen->planted_lhs_sizes.assign(4, 4);
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  return perturb;
}

using ConfigFn = PerturbOptions (*)(int, CensusConfig*);

/// Generates n + extra tuples (clean relation, planted FDs made inaccurate,
/// data errors injected), all from the fixed `data_seed`; writes the first
/// n as `<dir>/<name>.csv` and returns the tenant spec. All n + extra rows
/// come back in `generated`: the extra ones (same distribution) are what
/// deltas insert.
///
/// The data is fixed per tenant on purpose: which errors land where sets
/// the cost of the search and of data repair, and drawing it from the run
/// seed moved the latency figures by 13-25% from seed to seed. The run
/// seed draws what varies per request instead (see MakePlan).
TenantSpec WriteTenant(const std::string& name, ConfigFn config, int n,
                       int extra, uint64_t data_seed, const std::string& dir,
                       Instance* generated = nullptr) {
  CensusConfig gen;
  PerturbOptions perturb = config(n + extra, &gen);
  gen.seed = data_seed;
  perturb.seed = data_seed + 1;
  retrust::GeneratedData clean = retrust::GenerateCensusLike(gen);
  retrust::PerturbedData dirty =
      retrust::Perturb(clean.instance, clean.planted_fds, perturb);
  Instance base(dirty.data.schema());
  for (retrust::TupleId t = 0; t < n; ++t) base.AddTuple(dirty.data.row(t));
  if (generated != nullptr) *generated = dirty.data;
  TenantSpec spec;
  spec.name = name;
  spec.csv = dir + "/" + name + ".csv";
  spec.n = n;
  retrust::WriteCsvFile(base, spec.csv);
  for (const FD& fd : dirty.fds.fds()) {
    spec.fds.push_back(fd.ToString(dirty.data.schema()));
  }
  return spec;
}

std::string CellText(const Instance& inst, retrust::TupleId t,
                     retrust::AttrId a) {
  const retrust::Value& v = inst.At(t, a);
  return v.is_null() ? std::string() : v.ToString(inst.schema().name(a));
}

Json RowJson(const Instance& inst, retrust::TupleId t) {
  Json::Array row;
  for (retrust::AttrId a = 0; a < inst.NumAttrs(); ++a) {
    row.push_back(Json(CellText(inst, t, a)));
  }
  return Json(std::move(row));
}

/// An apply_delta request: `inserts` rows of `pool` starting at `first`,
/// `updates` cells of tuples below `id_limit` set to a value the same
/// column holds elsewhere in `pool`, and `deletes` distinct tuples below
/// `id_limit` (never one that is also updated).
Json DeltaRequest(const std::string& tenant, const Instance& pool, int first,
                  int inserts, int updates, int deletes, int id_limit,
                  Rng* rng) {
  Json::Object req;
  req["op"] = Json("apply_delta");
  req["tenant"] = Json(tenant);
  Json::Array ins;
  for (int i = 0; i < inserts; ++i) {
    ins.push_back(RowJson(pool, first + i));
  }
  req["inserts"] = Json(std::move(ins));
  std::vector<int64_t> ids;
  while (static_cast<int>(ids.size()) < updates + deletes) {
    int64_t id = rng->NextInt(0, id_limit - 1);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  Json::Array upd;
  for (int i = 0; i < updates; ++i) {
    const auto attr = static_cast<retrust::AttrId>(
        rng->NextUint(static_cast<uint64_t>(pool.NumAttrs())));
    const auto donor = static_cast<retrust::TupleId>(
        rng->NextUint(static_cast<uint64_t>(pool.NumTuples())));
    Json::Array cell;
    cell.push_back(Json(ids[static_cast<size_t>(i)]));
    cell.push_back(Json(pool.schema().name(attr)));
    cell.push_back(Json(CellText(pool, donor, attr)));
    upd.push_back(Json(std::move(cell)));
  }
  req["updates"] = Json(std::move(upd));
  Json::Array del;
  for (int i = updates; i < updates + deletes; ++i) {
    del.push_back(Json(ids[static_cast<size_t>(i)]));
  }
  req["deletes"] = Json(std::move(del));
  return Json(std::move(req));
}

/// A repair at τr with Algorithm 4's random tuple/attribute orders drawn
/// from `rng` (the wire "seed" field).
Json Repair(const std::string& tenant, double tau_r, Rng* rng) {
  Json::Object req;
  req["op"] = Json("repair");
  req["tenant"] = Json(tenant);
  req["tau_r"] = Json(tau_r);
  req["seed"] = Json(static_cast<int64_t>(rng->NextInt(1, 1 << 30)));
  return Json(std::move(req));
}

Json Sweep(const std::string& tenant, const std::vector<double>& grid,
           Rng* rng) {
  Json::Array items;
  for (double tau_r : grid) {
    Json::Object item;
    item["tau_r"] = Json(tau_r);
    item["seed"] = Json(static_cast<int64_t>(rng->NextInt(1, 1 << 30)));
    items.push_back(Json(std::move(item)));
  }
  Json::Object req;
  req["op"] = Json("sweep");
  req["tenant"] = Json(tenant);
  req["requests"] = Json(std::move(items));
  return Json(std::move(req));
}

Json Simple(const char* op, const std::string& tenant) {
  Json::Object req;
  req["op"] = Json(op);
  req["tenant"] = Json(tenant);
  return Json(std::move(req));
}

/// Number of distinct passes a stream cycles through: more than any run
/// completes for the workloads whose passes differ (each carries its own
/// delta batch).
constexpr int kPasses = 16;

Plan WarmRead(uint64_t seed, const std::string& dir) {
  Plan plan;
  plan.workload = "warm_read";
  Rng rng(seed);
  plan.connections = 2;
  plan.classes = {"repair_dense", "sweep_dense", "repair_wide"};
  plan.tenants.push_back(
      WriteTenant("dense5k", DenseConfig, 5000, 0, 1, dir));
  plan.tenants.push_back(
      WriteTenant("wide400", WideConfig, 400, 0, 2, dir));
  plan.warmup = {Repair("dense5k", 1.0, &rng), Repair("wide400", 0.55, &rng)};

  const std::vector<double> dense_grid = {0.1, 0.25, 0.5, 0.75, 1.0};
  std::vector<Step> dense;
  for (double tau_r : dense_grid) {
    dense.push_back({"repair_dense", {Repair("dense5k", tau_r, &rng)}});
  }
  dense.push_back({"sweep_dense", {Sweep("dense5k", dense_grid, &rng)}});
  plan.streams.push_back({0, {dense}});

  // On this relation τr >= 0.6 leaves the search little to do and data
  // repair takes over (25-90% of a request); 0.3-0.55 keeps the search at
  // 94-99% of every request, which is what this tenant is here for.
  std::vector<Step> wide;
  for (double tau_r : {0.3, 0.35, 0.4, 0.45, 0.5, 0.55}) {
    Json req = Repair("wide400", tau_r, &rng);
    req.MutableObject()["policy"] = Json("exact");
    wide.push_back({"repair_wide", {req}});
  }
  plan.streams.push_back({1, {wide}});
  return plan;
}

Plan StateChange(uint64_t seed, const std::string& dir) {
  Plan plan;
  plan.workload = "state_change";
  Rng rng(seed);
  plan.connections = 1;
  plan.classes = {"reopen_dense", "reopen_sparse", "reopen_snapshot",
                  "apply_delta", "repair_after_delta"};
  TenantSpec dense =
      WriteTenant("dense10k", DenseConfig, 10000, 0, 3, dir);
  TenantSpec sparse =
      WriteTenant("sparse50k", SparseConfig, 50000, 0, 4, dir);
  constexpr int kInserts = 40, kUpdates = 5, kDeletes = 5;
  // Deltas are cheap next to a reopen, so each pass runs several: their
  // slot medians then rest on as many samples as the reopens' do.
  constexpr int kDeltasPerPass = 4;
  Instance pool;
  TenantSpec delta_target = WriteTenant(
      "sparse20k", SparseConfig, 20000, kInserts * kDeltasPerPass * kPasses, 5,
      dir, &pool);

  // The snapshot tenant restores the dense10k data: its answers must equal
  // the CSV tenant's (restored == rebuilt).
  TenantSpec snap = dense;
  snap.name = "dense10k_snap";
  snap.snapshot = dir + "/dense10k.snap";
  {
    Result<Session> session = Session::OpenCsv(dense.csv, dense.fds);
    if (!session.ok()) throw std::runtime_error(session.status().ToString());
    retrust::Status saved = session->SaveSnapshot(snap.snapshot);
    if (!saved.ok()) throw std::runtime_error(saved.ToString());
  }
  plan.tenants = {dense, sparse, snap, delta_target};
  plan.warmup = {Repair("sparse20k", 0.5, &rng)};

  Stream stream;
  int batch = 0;
  for (int k = 0; k < kPasses; ++k) {
    std::vector<Step> pass = {
        {"reopen_dense",
         {Simple("unload_tenant", "dense10k"), Repair("dense10k", 0.5, &rng)}},
        {"reopen_sparse",
         {Simple("unload_tenant", "sparse50k"), Repair("sparse50k", 0.5, &rng)}},
        {"reopen_snapshot",
         {Simple("unload_tenant", "dense10k_snap"),
          Repair("dense10k_snap", 0.5, &rng)}},
    };
    for (int d = 0; d < kDeltasPerPass; ++d, ++batch) {
      // Ids below the base size stay valid: each batch adds more rows than
      // it deletes.
      pass.push_back({"apply_delta",
                      {DeltaRequest("sparse20k", pool,
                                    delta_target.n + batch * kInserts, kInserts,
                                    kUpdates, kDeletes, delta_target.n, &rng)}});
      pass.push_back({"repair_after_delta", {Repair("sparse20k", 0.5, &rng)}});
    }
    stream.passes.push_back(std::move(pass));
  }
  plan.streams.push_back(std::move(stream));
  return plan;
}

/// Two random cells of `data` set to values their columns hold elsewhere,
/// as an apply_delta request; `restore` receives the request that puts
/// the old values back.
Json CellUpdates(const std::string& tenant, const Instance& data, Rng* rng,
                 Json* restore) {
  Json::Array set, undo;
  for (int c = 0; c < 2; ++c) {
    // Even and odd tuples, so the two cells never share a tuple.
    const auto tuple = static_cast<retrust::TupleId>(
        rng->NextUint(static_cast<uint64_t>(data.NumTuples() / 2)) * 2 +
        static_cast<uint64_t>(c));
    const auto donor = static_cast<retrust::TupleId>(
        rng->NextUint(static_cast<uint64_t>(data.NumTuples())));
    const auto attr = static_cast<retrust::AttrId>(
        rng->NextUint(static_cast<uint64_t>(data.NumAttrs())));
    const Json id(static_cast<int64_t>(tuple));
    const Json name(data.schema().name(attr));
    set.push_back(Json(Json::Array{id, name, Json(CellText(data, donor, attr))}));
    undo.push_back(Json(Json::Array{id, name, Json(CellText(data, tuple, attr))}));
  }
  Json req = Simple("apply_delta", tenant);
  *restore = req;
  req.MutableObject()["updates"] = Json(std::move(set));
  restore->MutableObject()["updates"] = Json(std::move(undo));
  return req;
}

/// Applies `set` to `session`, checks that every τr of `grid` admits a
/// repair, and applies `restore`: a drawn update that would make a
/// scheduled request fail is redrawn, so no request of the run fails.
bool RepairsEverywhere(Session* session, const Json& set, const Json& restore,
                       const std::vector<double>& grid) {
  auto apply = [session](const Json& req) {
    Result<retrust::DeltaBatch> delta =
        retrust::service::DeltaBatchFromJson(req, session->schema());
    if (!delta.ok() || !session->Apply(*delta).ok()) {
      throw std::runtime_error("cannot apply a generated delta");
    }
  };
  apply(set);
  bool ok = true;
  for (double tau_r : grid) {
    ok = ok && session->Repair(retrust::RepairRequest::AtRelative(tau_r)).ok();
  }
  apply(restore);
  return ok;
}

Plan WireSmall(uint64_t seed, const std::string& dir) {
  Plan plan;
  plan.workload = "wire_small";
  plan.connections = 2;
  plan.classes = {"repair", "stats", "apply_delta"};
  const std::vector<double> grid = {0.1, 0.25, 0.5, 0.75, 1.0};
  constexpr int kTenants = 4, kTuples = 100;
  Rng rng(seed);
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "tiny" + std::to_string(t);
    Instance data;
    TenantSpec spec = WriteTenant(name, DenseConfig, kTuples, 0,
                                  10 + static_cast<uint64_t>(t), dir, &data);
    plan.tenants.push_back(spec);
    plan.warmup.push_back(Repair(name, 1.0, &rng));
    // One stream per tenant, two per connection: each tenant sees one
    // ordered request sequence, so the serial oracle can replay it.
    Stream stream;
    stream.conn = t / 2;
    Result<Session> check = Session::OpenCsv(spec.csv, spec.fds);
    if (!check.ok()) throw std::runtime_error(check.status().ToString());
    for (int k = 0; k < kPasses; ++k) {
      // Δ = 2 cell updates that the same pass undoes, so every pass starts
      // from the registered data: the tenant cannot drift, whichever pass
      // a window ends on and however many windows a run has.
      Json set, restore;
      do {
        set = CellUpdates(name, data, &rng, &restore);
      } while (!RepairsEverywhere(&*check, set, restore, grid));
      std::vector<Step> pass;
      for (const Json* delta : {&set, &restore}) {
        pass.push_back({"apply_delta", {*delta}});
        for (int round = 0; round < 8; ++round) {
          for (double tau_r : grid) {
            pass.push_back({"repair", {Repair(name, tau_r, &rng)}});
          }
          pass.push_back({"stats", {Simple("stats", name)}});
        }
      }
      stream.passes.push_back(std::move(pass));
    }
    plan.streams.push_back(std::move(stream));
  }
  return plan;
}

}  // namespace

Plan MakePlan(const std::string& workload, uint64_t seed,
              const std::string& dir) {
  if (workload == "warm_read") return WarmRead(seed, dir);
  if (workload == "state_change") return StateChange(seed, dir);
  if (workload == "wire_small") return WireSmall(seed, dir);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace e2e
