// retrust::Session — the public facade: open/validation errors, the oracle
// equivalence against the internal RunRepair layer, SetFds/
// SetWeights switches against a fresh Open, the search-answer memo against
// a fresh Open, batched requests, budgets, and cooperative cancellation.

#include <atomic>
#include <cstdio>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/service/wire.h"

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
  EXPECT_GT(session->ContextBytesEstimate(), 0u);
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

// Session::Repair output is bit-identical to the internal Algorithm 1
// (RunRepair) for the same (Σ, I, τ, seed). The test keeps the name of the
// wrapper RunRepair replaced.
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
          RunRepair(*oracle.context, *oracle.encoded, tau, opts).repair;
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

// --- SetFds / SetWeights: one context, rebuilt per switch ----------------

/// A fresh session's reply to `req` over a copy of `session`'s data, Σ and
/// weight model: nothing is memoized there yet.
Result<RepairResponse> FreshRepair(const Session& session,
                                   const RepairRequest& req) {
  SessionOptions opts;
  opts.weights = session.options().weights;
  Result<Session> fresh =
      Session::Open(session.instance(), session.fds(), opts);
  if (!fresh.ok()) return fresh.status();
  return fresh->Repair(req);
}

/// Both failed with the same code, or both carry the same τ, termination
/// and repair fingerprint.
void ExpectSameReply(const Result<RepairResponse>& got,
                     const Result<RepairResponse>& want, const Schema& schema,
                     const std::string& at) {
  ASSERT_EQ(got.ok(), want.ok()) << at;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << at;
    return;
  }
  EXPECT_EQ(got->tau, want->tau) << at;
  EXPECT_EQ(got->termination, want->termination) << at;
  EXPECT_EQ(Fingerprint(got->repair, schema),
            Fingerprint(want->repair, schema))
      << at;
}

/// The session answers Repair and Search over a τr grid bit-identically to
/// a fresh Session::Open over a copy of its data, Σ and weight model.
void ExpectMatchesFreshOpen(const Session& session, const std::string& label) {
  SessionOptions opts;
  opts.weights = session.options().weights;
  Result<Session> fresh =
      Session::Open(session.instance(), session.fds(), opts);
  ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status().ToString();
  ASSERT_EQ(session.RootDeltaP(), fresh->RootDeltaP()) << label;
  const Schema& schema = session.schema();
  for (double tau_r : {0.0, 0.2, 0.5, 1.0}) {
    const RepairRequest req = RepairRequest::AtRelative(tau_r);
    const std::string at = label + " tau_r=" + std::to_string(tau_r);
    ExpectSameReply(session.Repair(req), fresh->Repair(req), schema, at);
    Result<SearchProbe> got_probe = session.Search(req);
    Result<SearchProbe> want_probe = fresh->Search(req);
    ASSERT_TRUE(got_probe.ok() && want_probe.ok()) << at;
    const ModifyFdsResult& g = got_probe->result;
    const ModifyFdsResult& w = want_probe->result;
    EXPECT_EQ(got_probe->tau, want_probe->tau) << at;
    EXPECT_EQ(g.stats.states_visited, w.stats.states_visited) << at;
    ASSERT_EQ(g.repair.has_value(), w.repair.has_value()) << at;
    if (!g.repair.has_value()) continue;
    EXPECT_EQ(g.repair->state.ext, w.repair->state.ext) << at;
    EXPECT_EQ(g.repair->distc, w.repair->distc) << at;
    EXPECT_EQ(g.repair->delta_p, w.repair->delta_p) << at;
  }
}

/// A second Σ over MakeOracleData's 10-attribute schema.
FDSet OtherSigma() {
  return FDSet(std::vector<FD>{FD(AttrSet{0, 1}, /*rhs=*/2),
                               FD(AttrSet{3}, /*rhs=*/4)});
}

TEST(SessionSetFds, SwitchApplySwitchBackMatchesFreshOpen) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectMatchesFreshOpen(*session, "open");

  ASSERT_TRUE(session->SetFds(OtherSigma()).ok());
  EXPECT_EQ(session->fds(), OtherSigma());
  ExpectMatchesFreshOpen(*session, "sigma2");

  DeltaBatch delta;
  delta.Insert(oracle.dirty.row(3))
      .Update(1, 2, oracle.dirty.At(7, 2))
      .Delete(5);
  ASSERT_TRUE(session->Apply(delta).ok());
  ExpectMatchesFreshOpen(*session, "sigma2 + delta");

  // Back to Σ1: a context built over the post-delta data.
  ASSERT_TRUE(session->SetFds(oracle.sigma).ok());
  EXPECT_EQ(session->fds(), oracle.sigma);
  ExpectMatchesFreshOpen(*session, "sigma1 after delta");
}

TEST(SessionSetFds, WeightsRoundTripMatchesFreshOpen) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (WeightModel model : {WeightModel::kCardinality, WeightModel::kEntropy,
                            WeightModel::kDistinctCount}) {
    ASSERT_TRUE(session->SetWeights(model).ok());
    EXPECT_EQ(session->options().weights, model);
    ExpectMatchesFreshOpen(*session,
                           "weights " + std::to_string(static_cast<int>(model)));
  }
}

TEST(SessionSetFds, FailedSwitchLeavesSessionUnchanged) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const FdSearchContext* context = &session->context();
  const int64_t root = session->RootDeltaP();

  const FDSet trivial(std::vector<FD>{FD(AttrSet{0, 1}, /*rhs=*/1)});
  const FDSet outside(std::vector<FD>{FD(AttrSet{12}, /*rhs=*/1)});
  const struct {
    const FDSet* sigma;
    StatusCode code;
  } cases[] = {{&trivial, StatusCode::kInvalidFd},
               {&outside, StatusCode::kSchemaMismatch}};
  for (const auto& c : cases) {
    Status status = session->SetFds(*c.sigma);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), c.code);
  }
  Status unparsable = session->SetFds({"A0->NoSuchColumn"});
  ASSERT_FALSE(unparsable.ok());
  EXPECT_EQ(unparsable.code(), StatusCode::kInvalidFd);

  EXPECT_EQ(&session->context(), context);
  EXPECT_EQ(session->fds(), oracle.sigma);
  EXPECT_EQ(session->RootDeltaP(), root);
  ExpectMatchesFreshOpen(*session, "after failed switches");
}

// Requests racing SetFds see either the whole old or the whole new
// context (Session* runs under TSan).
TEST(SessionSetFds, ConcurrentRequestsSeeOneWholeContext) {
  OracleData oracle = MakeOracleData(80);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto answer = [](const Session& s) {
    Result<SearchProbe> probe = s.Search(RepairRequest::AtRelative(0.5));
    if (!probe.ok()) return std::string("error");
    std::string out = std::to_string(probe->tau);
    if (probe->result.repair.has_value()) {
      out += '|';
      out += std::to_string(probe->result.repair->distc);
    }
    return out;
  };
  const std::string want_first = answer(*session);
  Result<Session> other = Session::Open(oracle.dirty, OtherSigma());
  ASSERT_TRUE(other.ok());
  const std::string want_other = answer(*other);
  ASSERT_NE(want_first, want_other);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const std::string got = answer(*session);
        if (got != want_first && got != want_other) ++mismatches;
      }
    });
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        session->SetFds(i % 2 == 0 ? OtherSigma() : oracle.sigma).ok());
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(answer(*session), want_first);
}

// --- Batched requests ----------------------------------------------------

TEST(SessionBatch, RepairManyMatchesSequentialRepairs) {
  OracleData oracle = MakeOracleData(200);
  exec::ThreadPool pool(4);
  SessionOptions opts;
  opts.pool = &pool;
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

/// A reply as the wire encodes it, without its wall-clock `seconds`.
std::string WireReply(const Result<RepairResponse>& r, const Schema& schema) {
  service::Json json =
      r.ok() ? service::ToJson(*r, schema) : service::ErrorJson(r.status());
  json.MutableObject().erase("seconds");
  return json.Dump();
}

// Every batch item is answered exactly as the same request sent alone to a
// fresh session, whatever the mix of policies in the batch and the number
// of threads it fans out on.
TEST(SessionBatch, ItemsEqualSingleRequests) {
  OracleData oracle = MakeOracleData(120);
  const Schema& schema = oracle.dirty.schema();
  std::vector<RepairRequest> reqs;
  for (double tau_r : {0.1, 0.3, 0.6, 1.0}) {
    for (search::SearchPolicy policy :
         {search::SearchPolicy::kGreedy, search::SearchPolicy::kExact,
          search::SearchPolicy::kAnytime}) {
      for (uint64_t seed : {uint64_t{1}, uint64_t{9}}) {
        RepairRequest req = RepairRequest::AtRelative(tau_r);
        req.policy = policy;
        req.seed = seed;
        reqs.push_back(req);
      }
    }
  }
  std::vector<std::string> want_repairs;
  std::vector<Result<SearchProbe>> want_probes;
  for (const RepairRequest& req : reqs) {
    Result<Session> fresh = Session::Open(oracle.dirty, oracle.sigma);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    want_repairs.push_back(WireReply(fresh->Repair(req), schema));
    want_probes.push_back(fresh->Search(req));
  }
  for (int threads : {1, 4}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    SessionOptions opts;
    opts.pool = pool.get();
    Result<Session> session = Session::Open(oracle.dirty, oracle.sigma, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    std::vector<Result<RepairResponse>> repairs = session->RepairMany(reqs);
    std::vector<Result<SearchProbe>> probes = session->SearchMany(reqs);
    ASSERT_EQ(repairs.size(), reqs.size());
    ASSERT_EQ(probes.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      const std::string at =
          "threads=" + std::to_string(threads) + " item " + std::to_string(i) +
          " " + std::string(search::PolicyName(reqs[i].policy)) +
          " tau_r=" + std::to_string(reqs[i].tau_r);
      EXPECT_EQ(WireReply(repairs[i], schema), want_repairs[i]) << at;
      ASSERT_TRUE(probes[i].ok() && want_probes[i].ok()) << at;
      const ModifyFdsResult& got = probes[i]->result;
      const ModifyFdsResult& want = want_probes[i]->result;
      EXPECT_EQ(probes[i]->tau, want_probes[i]->tau) << at;
      EXPECT_EQ(got.termination, want.termination) << at;
      EXPECT_EQ(got.stats.states_visited, want.stats.states_visited) << at;
      ASSERT_EQ(got.repair.has_value(), want.repair.has_value()) << at;
      if (!got.repair.has_value()) continue;
      EXPECT_EQ(got.repair->state, want.repair->state) << at;
      EXPECT_EQ(got.repair->distc, want.repair->distc) << at;
      EXPECT_EQ(got.repair->delta_p, want.repair->delta_p) << at;
    }
  }
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
  exec::ThreadPool pool(2);
  SessionOptions opts;
  opts.pool = &pool;
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

// --- Search-answer memo ----------------------------------------------------

/// True when the reply's stats show a search ran (every search pushes at
/// least its root state); false for a memo hit.
bool Searched(const Result<RepairResponse>& r) {
  return r.ok() && r->repair.stats.states_generated > 0;
}

TEST(SessionSearchMemo, RepeatsMatchFreshOpenUnderEveryPolicy) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Schema& schema = session->schema();
  for (search::SearchPolicy policy :
       {search::SearchPolicy::kExact, search::SearchPolicy::kAnytime,
        search::SearchPolicy::kGreedy}) {
    for (double tau_r : {0.0, 0.1, 0.25, 0.5, 1.0}) {
      for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{42}}) {
        RepairRequest req = RepairRequest::AtRelative(tau_r);
        req.policy = policy;
        req.seed = seed;
        const std::string at = std::string(search::PolicyName(policy)) +
                               " tau_r=" + std::to_string(tau_r) +
                               " seed=" + std::to_string(seed);
        Result<RepairResponse> got = session->Repair(req);
        ExpectSameReply(got, FreshRepair(*session, req), schema, at);
        if (got.ok() && seed != 1) {
          // The seed-1 request searched; later seeds reuse its answer.
          EXPECT_FALSE(Searched(got)) << at;
          EXPECT_EQ(got->repair.stats.expansions, 0) << at;
          EXPECT_TRUE(got->repair.incumbents.empty()) << at;
        }
      }
    }
  }
  // Probes, batched or not, never read the memo: they report their own
  // search.
  const RepairRequest req = RepairRequest::AtRelative(0.25);
  ASSERT_TRUE(session->Repair(req).ok());
  Result<Session> fresh = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(fresh.ok());
  Result<SearchProbe> probe = session->Search(req);
  Result<SearchProbe> fresh_probe = fresh->Search(req);
  ASSERT_TRUE(probe.ok() && fresh_probe.ok());
  EXPECT_GT(probe->result.stats.states_visited, 0);
  EXPECT_EQ(probe->result.stats.states_visited,
            fresh_probe->result.stats.states_visited);
  const std::vector<RepairRequest> batch = {req};
  std::vector<Result<SearchProbe>> swept = session->SearchMany(batch);
  ASSERT_EQ(swept.size(), 1u);
  ASSERT_TRUE(swept[0].ok());
  EXPECT_EQ(swept[0]->result.stats.states_visited,
            fresh_probe->result.stats.states_visited);
}

TEST(SessionSearchMemo, ApplyClearsTheMemo) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const double grid[] = {0.1, 0.25, 0.5, 1.0};
  for (double tau_r : grid) {
    ASSERT_TRUE(session->Repair(RepairRequest::AtRelative(tau_r)).ok());
  }
  DeltaBatch delta;
  delta.Insert(oracle.dirty.row(3))
      .Update(1, 2, oracle.dirty.At(7, 2))
      .Update(40, 5, oracle.dirty.At(41, 5))
      .Delete(5);
  ASSERT_TRUE(session->Apply(delta).ok());
  for (double tau_r : grid) {
    RepairRequest req = RepairRequest::AtRelative(tau_r);
    req.seed = 3;
    const std::string at = "after delta tau_r=" + std::to_string(tau_r);
    Result<RepairResponse> got = session->Repair(req);
    EXPECT_TRUE(Searched(got)) << at;
    ExpectSameReply(got, FreshRepair(*session, req), session->schema(), at);
    ExpectSameReply(session->Repair(req), got, session->schema(),
                    at + " repeat");
  }
}

TEST(SessionSearchMemo, SetFdsAndSetWeightsClearTheMemo) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const RepairRequest req = RepairRequest::At(session->RootDeltaP() / 4);
  ASSERT_TRUE(session->Repair(req).ok());

  ASSERT_TRUE(session->SetFds(OtherSigma()).ok());
  Result<RepairResponse> got = session->Repair(req);
  EXPECT_TRUE(Searched(got));
  ExpectSameReply(got, FreshRepair(*session, req), session->schema(),
                  "sigma2");

  ASSERT_TRUE(session->SetWeights(WeightModel::kEntropy).ok());
  got = session->Repair(req);
  EXPECT_TRUE(Searched(got));
  ExpectSameReply(got, FreshRepair(*session, req), session->schema(),
                  "entropy");
  EXPECT_FALSE(Searched(session->Repair(req)));

  // A failed switch keeps the context, and with it the memo.
  ASSERT_FALSE(session->SetFds({"A0->NoSuchColumn"}).ok());
  EXPECT_FALSE(Searched(session->Repair(req)));
}

TEST(SessionSearchMemo, BudgetsAndDeadlinesAlwaysSearch) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const RepairRequest plain = RepairRequest::AtRelative(0.25);
  Result<RepairResponse> first = session->Repair(plain);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t visited = first->repair.stats.states_visited;
  ASSERT_GT(visited, 1);

  for (int64_t budget : {visited, visited - 1}) {
    RepairRequest req = plain;
    req.budget = budget;
    const std::string at = "budget=" + std::to_string(budget);
    Result<RepairResponse> got = session->Repair(req);
    if (got.ok()) {
      EXPECT_TRUE(Searched(got)) << at;
    }
    ExpectSameReply(got, FreshRepair(*session, req), session->schema(), at);
  }
  RepairRequest generous = plain;
  generous.deadline_seconds = 3600.0;
  Result<RepairResponse> got = session->Repair(generous);
  EXPECT_TRUE(Searched(got));
  ExpectSameReply(got, first, session->schema(), "deadline");
}

TEST(SessionSearchMemo, PreCancelledTokenReturnsCancelled) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  const RepairRequest plain = RepairRequest::AtRelative(0.5);
  ASSERT_TRUE(session->Repair(plain).ok());
  exec::CancelToken token;
  token.Cancel();
  RepairRequest req = plain;
  req.cancel = &token;
  Result<RepairResponse> r = session->Repair(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(Searched(session->Repair(plain)));
}

TEST(SessionSearchMemo, ConcurrentRepeatsAgree) {
  OracleData oracle = MakeOracleData(120);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  const Schema& schema = session->schema();
  std::string want[2];
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    RepairRequest req = RepairRequest::AtRelative(0.3);
    req.seed = seed;
    Result<RepairResponse> fresh = FreshRepair(*session, req);
    ASSERT_TRUE(fresh.ok());
    want[seed - 1] = Fingerprint(fresh->repair, schema);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        RepairRequest req = RepairRequest::AtRelative(0.3);
        req.seed = static_cast<uint64_t>((t + i) % 2 + 1);
        Result<RepairResponse> got = session->Repair(req);
        if (!got.ok() ||
            Fingerprint(got->repair, schema) != want[req.seed - 1]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_FALSE(Searched(session->Repair(RepairRequest::AtRelative(0.3))));
}

TEST(SessionSearchMemo, FullMemoStopsInsertingButKeepsServing) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  // Every τ >= the root bound is feasible at the root, so distinct
  // absolute τ values fill the memo cheaply.
  const int64_t cap = static_cast<int64_t>(Session::kSearchMemoCapacity);
  for (int64_t tau = 0; tau < cap; ++tau) {
    ASSERT_TRUE(Searched(session->Repair(RepairRequest::At(tau)))) << tau;
  }
  const RepairRequest overflow = RepairRequest::At(cap);
  EXPECT_TRUE(Searched(session->Repair(overflow)));
  Result<RepairResponse> again = session->Repair(overflow);
  EXPECT_TRUE(Searched(again));
  ExpectSameReply(again, FreshRepair(*session, overflow), session->schema(),
                  "overflow");
  EXPECT_FALSE(Searched(session->Repair(RepairRequest::At(0))));
  EXPECT_FALSE(Searched(session->Repair(RepairRequest::At(cap - 1))));
}

// Single and batched repairs read and fill one memo: whichever comes
// second is a hit and answers exactly as the first did.
TEST(SessionSearchMemo, BatchesShareTheMemo) {
  OracleData oracle = MakeOracleData(150);
  const Schema& schema = oracle.dirty.schema();
  RepairRequest req = RepairRequest::AtRelative(0.25);
  req.seed = 5;
  const std::vector<RepairRequest> batch = {req};
  for (bool single_first : {true, false}) {
    const std::string at = single_first ? "Repair first" : "RepairMany first";
    Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Result<RepairResponse> first =
        single_first ? session->Repair(req) : session->RepairMany(batch)[0];
    Result<RepairResponse> second =
        single_first ? session->RepairMany(batch)[0] : session->Repair(req);
    ASSERT_TRUE(first.ok() && second.ok()) << at;
    EXPECT_EQ(WireReply(second, schema), WireReply(first, schema)) << at;
    EXPECT_GT(first->repair.stats.states_visited, 0) << at;
    EXPECT_EQ(second->repair.stats.states_visited, 0) << at;
  }
}

// --- Data-repair bases (one per goal state) ---------------------------------

/// Two absolute τ whose exact searches end at the same non-root goal state.
std::pair<int64_t, int64_t> TausSharingAGoal(const Session& session) {
  std::vector<std::pair<int64_t, SearchState>> goals;
  for (int64_t tau = 0; tau < session.RootDeltaP(); ++tau) {
    Result<SearchProbe> probe = session.Search(RepairRequest::At(tau));
    if (!probe.ok() || !probe->result.repair.has_value()) continue;
    const SearchState& goal = probe->result.repair->state;
    if (goal.IsRoot()) continue;
    for (const auto& [earlier, state] : goals) {
      if (state == goal) return {earlier, tau};
    }
    goals.emplace_back(tau, goal);
  }
  return {-1, -1};
}

TEST(SessionSearchMemo, TausReachingOneGoalShareOneBase) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto [tau1, tau2] = TausSharingAGoal(*session);
  ASSERT_GE(tau1, 0) << "no two τ reach one goal on this data";
  EXPECT_EQ(session->memo_stats().bases, 0u);  // probes fill nothing

  RepairRequest first_req = RepairRequest::At(tau1);
  RepairRequest second_req = RepairRequest::At(tau2);
  second_req.seed = 9;
  Result<RepairResponse> first = session->Repair(first_req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Session::MemoStats stats = session->memo_stats();
  EXPECT_EQ(stats.answers, 1u);
  EXPECT_EQ(stats.bases, 1u);
  EXPECT_GT(stats.base_bytes, 0u);

  // A new τ searches, then chases the base its goal already has.
  Result<RepairResponse> second = session->Repair(second_req);
  EXPECT_TRUE(Searched(second));
  stats = session->memo_stats();
  EXPECT_EQ(stats.answers, 2u);
  EXPECT_EQ(stats.bases, 1u);
  ExpectSameReply(second, FreshRepair(*session, second_req),
                  session->schema(), "second tau");
  ExpectSameReply(session->Repair(first_req), first, session->schema(),
                  "first tau repeated");
}

TEST(SessionSearchMemo, StateChangesLeaveNoBase) {
  OracleData oracle = MakeOracleData(150);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const RepairRequest req = RepairRequest::AtRelative(0.3);
  auto fill = [&](const std::string& at) {
    ASSERT_TRUE(session->Repair(req).ok()) << at;
    ASSERT_EQ(session->memo_stats().bases, 1u) << at;
  };

  fill("before delta");
  DeltaBatch delta;
  delta.Update(1, 2, oracle.dirty.At(7, 2)).Delete(5);
  ASSERT_TRUE(session->Apply(delta).ok());
  EXPECT_EQ(session->memo_stats().bases, 0u) << "Apply";

  fill("before SetFds");
  ASSERT_TRUE(session->SetFds(OtherSigma()).ok());
  EXPECT_EQ(session->memo_stats().bases, 0u) << "SetFds";

  fill("before SetWeights");
  ASSERT_TRUE(session->SetWeights(WeightModel::kEntropy).ok());
  EXPECT_EQ(session->memo_stats().bases, 0u) << "SetWeights";

  // A failed switch keeps the context, so the base it holds stays valid.
  fill("before a failed switch");
  ASSERT_FALSE(session->SetFds({"A0->NoSuchColumn"}).ok());
  EXPECT_EQ(session->memo_stats().bases, 1u) << "failed switch";
  ExpectSameReply(session->Repair(req), FreshRepair(*session, req),
                  session->schema(), "after a failed switch");

  // A restored session starts with an empty memo and answers alike.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = testing::TempDir() + "/api_session_test." +
                           info->name() + ".snap";
  std::remove(path.c_str());
  ASSERT_TRUE(session->SaveSnapshot(path).ok());
  SessionOptions opts;
  opts.weights = WeightModel::kEntropy;
  Result<Session> restored = Session::OpenSnapshot(path, opts);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->memo_stats().bases, 0u) << "OpenSnapshot";
  ExpectSameReply(restored->Repair(req), session->Repair(req),
                  session->schema(), "restored");
}

// Four threads race to build one goal's base; the first insert wins and
// every reply equals a fresh session's.
TEST(SessionSearchMemo, ConcurrentFirstRepairsOfOneGoalAgree) {
  OracleData oracle = MakeOracleData(120);
  Result<Session> session = Session::Open(oracle.dirty, oracle.sigma);
  ASSERT_TRUE(session.ok());
  const Schema& schema = session->schema();
  constexpr int kThreads = 4;
  std::string want[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    RepairRequest req = RepairRequest::AtRelative(0.4);
    req.seed = static_cast<uint64_t>(t) + 1;
    Result<RepairResponse> fresh = FreshRepair(*session, req);
    ASSERT_TRUE(fresh.ok());
    want[t] = Fingerprint(fresh->repair, schema);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        RepairRequest req = RepairRequest::AtRelative(0.4);
        req.seed = static_cast<uint64_t>((t + i) % kThreads) + 1;
        Result<RepairResponse> got = session->Repair(req);
        if (!got.ok() ||
            Fingerprint(got->repair, schema) != want[req.seed - 1]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(session->memo_stats().bases, 1u);
}

// --- Context memory estimate -------------------------------------------

TEST(SessionOpen, ContextBytesEstimateCountsEdges) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const size_t edges = session->context().index().edges().size();
  ASSERT_GT(edges, 0u);
  const size_t with_edges = session->ContextBytesEstimate();
  EXPECT_GE(with_edges, session->context().index().edges().size_bytes() +
                            sizeof(FdSearchContext));

  // Name is a key: no pair agrees on it, so the new context holds no edges.
  ASSERT_TRUE(session->SetFds({"Name->Zip"}).ok());
  EXPECT_EQ(session->ContextBytesEstimate(), sizeof(FdSearchContext));
  EXPECT_LT(session->ContextBytesEstimate(), with_edges);
}

// --- Shared pool (service-style multi-session processes) -----------------

TEST(ExecSharedPool, SessionResultsMatchPrivatePool) {
  OracleData oracle = MakeOracleData(200);

  exec::ThreadPool private_pool(4);
  SessionOptions private_opts;
  private_opts.pool = &private_pool;
  Result<Session> private_session =
      Session::Open(oracle.dirty, oracle.sigma, private_opts);
  ASSERT_TRUE(private_session.ok());

  exec::ThreadPool pool(4);
  SessionOptions shared_opts;
  shared_opts.pool = &pool;
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
