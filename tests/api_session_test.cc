// retrust::Session — the public facade: open/validation errors, the oracle
// equivalence against the internal RepairDataAndFds layer, context-cache
// reuse across SetFds switches, batched requests, budgets, and cooperative
// cancellation.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"

namespace retrust {
namespace {

/// The quickstart table: City -> Zip violated by Carol's Zip.
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

/// A perturbed census-like workload plus everything the INTERNAL layer
/// needs to serve as the oracle for the facade.
struct OracleData {
  Instance dirty;
  FDSet sigma;
  std::unique_ptr<EncodedInstance> encoded;
  std::unique_ptr<DistinctCountWeight> weights;
  std::unique_ptr<FdSearchContext> context;
};

OracleData MakeOracleData(int num_tuples = 300) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 10;
  gen.planted_lhs_sizes = {4};
  gen.seed = 13;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = 29;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);

  OracleData data;
  data.dirty = dirty.data;
  data.sigma = dirty.fds;
  data.encoded = std::make_unique<EncodedInstance>(data.dirty);
  data.weights = std::make_unique<DistinctCountWeight>(*data.encoded);
  data.context = std::make_unique<FdSearchContext>(data.sigma, *data.encoded,
                                                   *data.weights);
  return data;
}

std::string Fingerprint(const Repair& repair, const Schema& schema) {
  std::string fp = repair.sigma_prime.ToString(schema);
  fp += "|distc=" + std::to_string(repair.distc);
  fp += "|deltaP=" + std::to_string(repair.delta_p);
  for (const AttrSet& ext : repair.extensions) {
    fp += '|';
    fp += ext.ToString();
  }
  fp += "|cells:";
  for (const CellRef& c : repair.changed_cells) {
    fp += std::to_string(c.tuple) + "," + std::to_string(c.attr) + ";";
  }
  fp += "|data:" + repair.data.Decode().ToTable();
  return fp;
}

// --- Open / validation ---------------------------------------------------

TEST(SessionOpen, ParsesFdsAndBuildsContext) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->fds().size(), 1);
  EXPECT_GT(session->RootDeltaP(), 0);
  EXPECT_EQ(session->CachedContexts().cached, 1u);
}

TEST(SessionOpen, BadFdTextIsInvalidFd) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->>Zip"});
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidFd);
}

TEST(SessionOpen, UnknownAttributeIsInvalidFd) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Country"});
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidFd);
  EXPECT_NE(session.status().message().find("Country"), std::string::npos);
}

TEST(SessionOpen, OutOfSchemaFdIsSchemaMismatch) {
  FDSet sigma(std::vector<FD>{FD(AttrSet{0}, /*rhs=*/7)});
  Result<Session> session = Session::Open(SmallInstance(), sigma);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kSchemaMismatch);
}

TEST(SessionOpen, TrivialFdIsInvalidFd) {
  FDSet sigma(std::vector<FD>{FD(AttrSet{1, 2}, /*rhs=*/2)});
  Result<Session> session = Session::Open(SmallInstance(), sigma);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidFd);
}

TEST(SessionOpen, MissingCsvIsIoError) {
  Result<Session> session =
      Session::OpenCsv("/nonexistent/data.csv", {"City->Zip"});
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kIoError);
}

// --- Request validation --------------------------------------------------

TEST(SessionRepair, RequestWithoutTauIsInvalidArgument) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  Result<RepairResponse> r = session->Repair(RepairRequest{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionRepair, OutOfRangeTauRIsInvalidArgument) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  Result<RepairResponse> r = session->Repair(RepairRequest::AtRelative(1.5));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Error codes from the search -----------------------------------------

TEST(SessionRepair, NoRepairWithinTau) {
  // Two tuples agreeing on City and differing only on Zip: no LHS
  // extension can resolve the violation, so tau = 0 is infeasible.
  Schema schema(std::vector<Attribute>{{"City", AttrType::kString},
                                       {"Zip", AttrType::kString}});
  Instance inst(schema);
  inst.AddTuple({Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Springfield"), Value("22222")});
  Result<Session> session = Session::Open(std::move(inst), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  Result<RepairResponse> r = session->Repair(RepairRequest::At(0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNoRepairWithinTau);
  // The same budget expressed relatively resolves identically.
  Result<RepairResponse> rel =
      session->Repair(RepairRequest::AtRelative(0.0));
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kNoRepairWithinTau);
}

TEST(SessionRepair, VisitBudgetIsBudgetExceeded) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  // tau = 0 forces relaxation; the root state is not a goal, so a 1-state
  // budget stops before any goal is reached.
  RepairRequest req = RepairRequest::At(0);
  req.budget = 1;
  Result<RepairResponse> r = session->Repair(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  // Without the budget the same request succeeds.
  EXPECT_TRUE(session->Repair(RepairRequest::At(0)).ok());
}

TEST(SessionRepair, DeadlineIsBudgetExceeded) {
  OracleData oracle = MakeOracleData();
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  RepairRequest req = RepairRequest::At(0);
  req.deadline_seconds = 1e-12;  // expires before the first pop
  Result<RepairResponse> r = session->Repair(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
}

// --- Oracle equivalence --------------------------------------------------

// Acceptance criterion: Session::Repair output is bit-identical to the
// internal RepairDataAndFds for the same (Σ, I, τ, seed).
TEST(SessionOracle, RepairMatchesRepairDataAndFds) {
  OracleData oracle = MakeOracleData();
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Schema& schema = oracle.dirty.schema();
  int64_t root = oracle.context->RootDeltaP();
  ASSERT_EQ(session->RootDeltaP(), root);

  for (double tau_r : {0.0, 0.2, 0.6, 1.0}) {
    int64_t tau = TauFromRelative(tau_r, root);
    for (uint64_t seed : {uint64_t{1}, uint64_t{99}}) {
      RepairOptions opts;
      opts.seed = seed;
      std::optional<Repair> want =
          RepairDataAndFds(*oracle.context, *oracle.encoded, tau, opts);
      RepairRequest req = RepairRequest::At(tau);
      req.seed = seed;
      Result<RepairResponse> got = session->Repair(req);
      ASSERT_EQ(got.ok(), want.has_value())
          << "tau=" << tau << " seed=" << seed;
      if (want.has_value()) {
        EXPECT_EQ(Fingerprint(got->repair, schema),
                  Fingerprint(*want, schema))
            << "tau=" << tau << " seed=" << seed;
        EXPECT_EQ(got->tau, tau);
      }
    }
  }
}

// --- Context caching -----------------------------------------------------

TEST(SessionCache, SameFingerprintReusesContext) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const FdSearchContext* first = &session->context();
  uint64_t fp = session->ContextFingerprint();

  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  EXPECT_NE(&session->context(), first);
  EXPECT_NE(session->ContextFingerprint(), fp);
  EXPECT_EQ(session->CachedContexts().cached, 2u);

  // Switching back lands on the SAME cached context, not a rebuild.
  ASSERT_TRUE(session->SetFds({"City->Zip"}).ok());
  EXPECT_EQ(&session->context(), first);
  EXPECT_EQ(session->ContextFingerprint(), fp);
  EXPECT_EQ(session->CachedContexts().cached, 2u);
}

TEST(SessionCache, WeightModelIsPartOfTheFingerprint) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  uint64_t fp = session->ContextFingerprint();
  ASSERT_TRUE(session->SetWeights(WeightModel::kCardinality).ok());
  EXPECT_NE(session->ContextFingerprint(), fp);
  EXPECT_EQ(session->CachedContexts().cached, 2u);
  ASSERT_TRUE(session->SetWeights(WeightModel::kDistinctCount).ok());
  EXPECT_EQ(session->ContextFingerprint(), fp);
  EXPECT_EQ(session->CachedContexts().cached, 2u);
}

// The cached context keeps its warm cover memo across Σ switches: repeated
// identical searches answer from the memo (vc_memo_hits), and the warmth
// carries over a SetFds round trip (same fingerprint → same underlying
// context, per the stats).
TEST(SessionCache, CoverMemoCarriesOverAcrossSwitches) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  int64_t tau = TauFromRelative(0.3, session->RootDeltaP());

  Result<SearchProbe> cold = session->Search(RepairRequest::At(tau));
  ASSERT_TRUE(cold.ok());
  Result<SearchProbe> warm = session->Search(RepairRequest::At(tau));
  ASSERT_TRUE(warm.ok());
  // The warm run answers covers from the memo instead of recomputing.
  EXPECT_LT(warm->result.stats.vc_computations,
            cold->result.stats.vc_computations);
  EXPECT_GT(warm->result.stats.vc_memo_hits, 0);

  // Switch Σ away and back; the third run still sees the warm memo — a
  // rebuilt context would perform like the cold run again.
  FDSet other(std::vector<FD>{FD(AttrSet{0}, /*rhs=*/1)});
  ASSERT_TRUE(session->SetFds(other).ok());
  ASSERT_TRUE(session->SetFds(oracle.sigma).ok());
  Result<SearchProbe> back = session->Search(RepairRequest::At(tau));
  ASSERT_TRUE(back.ok());
  EXPECT_LE(back->result.stats.vc_computations,
            warm->result.stats.vc_computations);
  EXPECT_LT(back->result.stats.vc_computations,
            cold->result.stats.vc_computations);
  EXPECT_GE(back->result.stats.vc_memo_hits,
            warm->result.stats.vc_memo_hits);
}

// --- Batched requests ----------------------------------------------------

TEST(SessionBatch, RepairManyMatchesSequentialRepairs) {
  OracleData oracle = MakeOracleData(200);
  SessionOptions opts;
  opts.exec.num_threads = 4;
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma, opts);
  ASSERT_TRUE(session.ok());
  const Schema& schema = oracle.dirty.schema();
  int64_t root = session->RootDeltaP();

  std::vector<RepairRequest> reqs;
  for (double tau_r : {0.9, 0.0, 0.4}) {  // deliberately unsorted
    reqs.push_back(RepairRequest::AtRelative(tau_r));
  }
  reqs.push_back(RepairRequest::AtRelative(2.0));  // invalid, slot 3

  std::vector<Result<RepairResponse>> batch = session->RepairMany(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (size_t i = 0; i < 3; ++i) {
    Result<RepairResponse> single = session->Repair(reqs[i]);
    ASSERT_EQ(batch[i].ok(), single.ok()) << i;
    if (single.ok()) {
      EXPECT_EQ(batch[i]->tau, TauFromRelative(reqs[i].tau_r, root)) << i;
      EXPECT_EQ(Fingerprint(batch[i]->repair, schema),
                Fingerprint(single->repair, schema))
          << i;
    }
  }
  ASSERT_FALSE(batch[3].ok());
  EXPECT_EQ(batch[3].status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBatch, SearchManyReportsStatsForInfeasibleTaus) {
  Schema schema(std::vector<Attribute>{{"City", AttrType::kString},
                                       {"Zip", AttrType::kString}});
  Instance inst(schema);
  inst.AddTuple({Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Springfield"), Value("22222")});
  Result<Session> session = Session::Open(std::move(inst), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  std::vector<RepairRequest> reqs = {RepairRequest::At(0),
                                     RepairRequest::AtRelative(1.0)};
  std::vector<Result<SearchProbe>> probes = session->SearchMany(reqs);
  ASSERT_EQ(probes.size(), 2u);
  // τ = 0 is infeasible here, but the probe still reports the proof.
  ASSERT_TRUE(probes[0].ok());
  EXPECT_FALSE(probes[0]->result.repair.has_value());
  EXPECT_EQ(probes[0]->result.termination, SearchTermination::kCompleted);
  EXPECT_GT(probes[0]->result.stats.states_generated, 0);
  ASSERT_TRUE(probes[1].ok());
  EXPECT_TRUE(probes[1]->result.repair.has_value());
}

// --- Cancellation --------------------------------------------------------

TEST(SessionCancel, PreCancelledRequestReturnsCancelled) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  exec::CancelToken token;
  token.Cancel();
  RepairRequest req = RepairRequest::At(0);
  req.cancel = &token;
  Result<RepairResponse> r = session->Repair(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The session is fully serviceable afterwards.
  EXPECT_TRUE(session->Repair(RepairRequest::AtRelative(1.0)).ok());
}

// Cancelling a batch mid-flight: every outcome is either a finished repair
// or kCancelled, the call returns (nothing hangs), and the pool serves
// later batches — no leaked work.
TEST(SessionCancel, MidBatchCancellationDrainsCleanly) {
  OracleData oracle = MakeOracleData(250);
  SessionOptions opts;
  opts.exec.num_threads = 2;
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma, opts);
  ASSERT_TRUE(session.ok());
  int64_t root = session->RootDeltaP();

  exec::CancelToken token;
  std::vector<RepairRequest> reqs;
  for (int i = 0; i < 12; ++i) {
    RepairRequest req = RepairRequest::At(root / (i + 1));
    req.cancel = &token;
    reqs.push_back(req);
  }
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  std::vector<Result<RepairResponse>> batch = session->RepairMany(reqs);
  canceller.join();
  ASSERT_EQ(batch.size(), reqs.size());
  for (const Result<RepairResponse>& r : batch) {
    // Small τ grid points may be genuinely infeasible; what must NOT
    // appear is a hang or an unexplained failure.
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kCancelled ||
                r.status().code() == StatusCode::kNoRepairWithinTau)
        << r.status().ToString();
  }
  // Queued jobs were drained, not leaked: the next batch runs clean
  // (τ = root is always feasible — the root state itself is a goal).
  RepairRequest second = RepairRequest::At(root);
  second.seed = 7;
  std::vector<RepairRequest> again = {RepairRequest::At(root), second};
  for (const Result<RepairResponse>& r : session->RepairMany(again)) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

// --- Context-cache eviction (SessionOptions::max_cached_contexts) --------

TEST(SessionEviction, LruBoundEvictsColdestContext) {
  SessionOptions opts;
  opts.max_cached_contexts = 2;
  Result<Session> session =
      Session::Open(SmallInstance(), {"City->Zip"}, opts);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->CachedContexts().cached, 1u);

  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  EXPECT_EQ(session->CachedContexts().cached, 2u);
  EXPECT_EQ(session->CachedContexts().evictions, 0u);

  // Third distinct Σ: the coldest ("City->Zip", least recently used)
  // must make room.
  ASSERT_TRUE(session->SetFds({"Name->City"}).ok());
  ContextCacheStats stats = session->CachedContexts();
  EXPECT_EQ(stats.cached, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 3u);

  // Revisiting the evicted fingerprint is a rebuild, not a hit ...
  ASSERT_TRUE(session->SetFds({"City->Zip"}).ok());
  stats = session->CachedContexts();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.cached, 2u);

  // ... while a still-cached one is a hit ("Name->City" stayed warm).
  ASSERT_TRUE(session->SetFds({"Name->City"}).ok());
  stats = session->CachedContexts();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.cached, 2u);
}

TEST(SessionEviction, ActiveContextIsNeverEvicted) {
  SessionOptions opts;
  opts.max_cached_contexts = 1;
  Result<Session> session =
      Session::Open(SmallInstance(), {"City->Zip"}, opts);
  ASSERT_TRUE(session.ok());
  for (const char* fd : {"Name->Zip", "Name->City", "City->Zip"}) {
    ASSERT_TRUE(session->SetFds({fd}).ok());
    // The freshly activated context survives its own eviction pass and
    // answers requests.
    EXPECT_EQ(session->CachedContexts().cached, 1u);
    EXPECT_GE(session->RootDeltaP(), 0);
  }
  EXPECT_EQ(session->CachedContexts().evictions, 3u);
}

TEST(SessionEviction, UnboundedByDefault) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  ASSERT_TRUE(session->SetFds({"Name->City"}).ok());
  ContextCacheStats stats = session->CachedContexts();
  EXPECT_EQ(stats.cached, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

// --- Byte-accurate cache sizing and per-context observability ------------

TEST(SessionEviction, ByteBoundWeighsContextsByEdgeCount) {
  SessionOptions opts;
  opts.max_cached_bytes = 1;  // below any context's estimate
  Result<Session> session =
      Session::Open(SmallInstance(), {"City->Zip"}, opts);
  ASSERT_TRUE(session.ok());
  // The single (active) context is exempt even over the byte budget.
  ContextCacheStats stats = session->CachedContexts();
  EXPECT_EQ(stats.cached, 1u);
  EXPECT_GT(stats.bytes_estimate, 1u);

  // A second Σ activates; the cold context must be evicted to chase the
  // (unreachable) byte budget.
  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  stats = session->CachedContexts();
  EXPECT_EQ(stats.cached, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(SessionEviction, LargeByteBudgetKeepsEverything) {
  SessionOptions opts;
  opts.max_cached_bytes = 64 * 1024 * 1024;
  Result<Session> session =
      Session::Open(SmallInstance(), {"City->Zip"}, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  ASSERT_TRUE(session->SetFds({"Name->City"}).ok());
  ContextCacheStats stats = session->CachedContexts();
  EXPECT_EQ(stats.cached, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SessionCache, PerContextInfoReportsFingerprintAgeAndHits) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  ContextCacheStats stats = session->CachedContexts();
  ASSERT_EQ(stats.contexts.size(), 1u);
  EXPECT_TRUE(stats.contexts[0].active);
  EXPECT_EQ(stats.contexts[0].fingerprint, session->ContextFingerprint());
  EXPECT_EQ(stats.contexts[0].hits, 0u);
  EXPECT_EQ(stats.contexts[0].age, 0u);
  EXPECT_GT(stats.contexts[0].edges, 0);
  EXPECT_GT(stats.contexts[0].bytes_estimate, 0u);
  EXPECT_EQ(stats.bytes_estimate, stats.contexts[0].bytes_estimate);

  // Re-activating the same Σ is a hit on the same context...
  ASSERT_TRUE(session->SetFds({"City->Zip"}).ok());
  stats = session->CachedContexts();
  ASSERT_EQ(stats.contexts.size(), 1u);
  EXPECT_EQ(stats.contexts[0].hits, 1u);

  // ...and a second Σ leaves the first one colder (positive LRU age),
  // with the active row tracking the live fingerprint.
  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  stats = session->CachedContexts();
  ASSERT_EQ(stats.contexts.size(), 2u);
  int active_rows = 0;
  for (const CachedContextInfo& info : stats.contexts) {
    if (info.active) {
      ++active_rows;
      EXPECT_EQ(info.fingerprint, session->ContextFingerprint());
      EXPECT_EQ(info.age, 0u);
    } else {
      EXPECT_GT(info.age, 0u);
    }
  }
  EXPECT_EQ(active_rows, 1);
}

// --- Shared pool (service-style multi-session processes) -----------------

TEST(ExecSharedPool, SessionResultsMatchPrivatePool) {
  OracleData oracle = MakeOracleData(200);

  SessionOptions private_opts;
  private_opts.exec.num_threads = 4;
  Result<Session> private_session =
      Session::Open(oracle.dirty, oracle.sigma, private_opts);
  ASSERT_TRUE(private_session.ok());

  exec::ThreadPool pool(4);
  SessionOptions shared_opts;
  shared_opts.exec.num_threads = 4;
  shared_opts.shared_pool = &pool;
  Result<Session> shared_session =
      Session::Open(oracle.dirty, oracle.sigma, shared_opts);
  ASSERT_TRUE(shared_session.ok());

  std::vector<RepairRequest> reqs;
  for (double tr : {0.0, 0.25, 0.5, 1.0}) {
    reqs.push_back(RepairRequest::AtRelative(tr));
  }
  std::vector<Result<RepairResponse>> a = private_session->RepairMany(reqs);
  std::vector<Result<RepairResponse>> b = shared_session->RepairMany(reqs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok(), b[i].ok()) << i;
    if (!a[i].ok()) {
      EXPECT_EQ(a[i].status().code(), b[i].status().code());
      continue;
    }
    EXPECT_EQ(Fingerprint(a[i]->repair, oracle.dirty.schema()),
              Fingerprint(b[i]->repair, oracle.dirty.schema()))
        << i;
  }

  // Deltas also run on the shared pool; both sessions must agree after.
  DeltaBatch delta;
  for (int i = 0; i < 3; ++i) delta.Insert(oracle.dirty.row(i));
  ASSERT_TRUE(private_session->Apply(delta).ok());
  ASSERT_TRUE(shared_session->Apply(delta).ok());
  EXPECT_EQ(private_session->RootDeltaP(), shared_session->RootDeltaP());
}

// --- Range enumeration ---------------------------------------------------

TEST(SessionEnumerate, MatchesInternalRangeRepair) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  int64_t root = session->RootDeltaP();
  Result<MultiRepairResult> got = session->EnumerateRepairs(0, root);
  ASSERT_TRUE(got.ok());
  MultiRepairResult want = FindRepairsFds(*oracle.context, 0, root);
  ASSERT_EQ(got->repairs.size(), want.repairs.size());
  for (size_t i = 0; i < want.repairs.size(); ++i) {
    EXPECT_EQ(got->repairs[i].repair.state, want.repairs[i].repair.state);
    EXPECT_EQ(got->repairs[i].tau_lo, want.repairs[i].tau_lo);
    EXPECT_EQ(got->repairs[i].tau_hi, want.repairs[i].tau_hi);
  }
  EXPECT_EQ(session->EnumerateRepairs(5, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->EnumerateRepairs(-1, 3).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace retrust
