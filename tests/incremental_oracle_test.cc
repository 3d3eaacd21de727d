// Oracle tests for the incremental update engine: after ANY interleaving
// of tuple inserts, cell updates, and deletes, the delta-maintained
// structures (difference-set index, violation table, cover memo answers,
// search results) must be BIT-IDENTICAL to a from-scratch rebuild over the
// mutated instance — for any thread count. Plus the snapshot-version
// contract: a delta cannot race an exec::Sweep (suites named Exec* run
// under CI's TSan job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/exec/sweep.h"
#include "src/relational/delta.h"
#include "src/repair/modify_fds.h"

namespace retrust {
namespace {

Schema MakeSchema(int m) {
  std::vector<Attribute> attrs(m);
  for (int a = 0; a < m; ++a) {
    std::string name = "A";
    name += std::to_string(a);
    attrs[a] = {std::move(name), AttrType::kInt};
  }
  return Schema(std::move(attrs));
}

Tuple RandomTuple(std::mt19937_64& rng, int m, int domain) {
  Tuple t(m);
  for (int a = 0; a < m; ++a) {
    t[a] = Value(static_cast<int64_t>(rng() % domain));
  }
  return t;
}

/// Small domains per attribute so FDs are genuinely violated.
Instance RandomInstance(std::mt19937_64& rng, int n, int m, int domain) {
  Instance inst(MakeSchema(m));
  for (int t = 0; t < n; ++t) inst.AddTuple(RandomTuple(rng, m, domain));
  return inst;
}

FDSet TestSigma() {
  // A0 -> A1, A2 -> A3, {A0,A2} -> A4 over a 5-attribute schema.
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{2}, 3});
  sigma.Add(FD{AttrSet{0, 2}, 4});
  return sigma;
}

/// A random mix of inserts, updates, and (distinct) deletes.
DeltaBatch RandomDelta(std::mt19937_64& rng, int n, int m, int domain) {
  DeltaBatch delta;
  const int inserts = static_cast<int>(rng() % 4);
  for (int i = 0; i < inserts; ++i) {
    delta.Insert(RandomTuple(rng, m, domain));
  }
  if (n > 0) {
    const int updates = static_cast<int>(rng() % 4);
    for (int i = 0; i < updates; ++i) {
      delta.Update(static_cast<TupleId>(rng() % n),
                   static_cast<AttrId>(rng() % m),
                   Value(static_cast<int64_t>(rng() % domain)));
    }
    const int deletes = static_cast<int>(rng() % 3);
    std::vector<TupleId> ids(n);
    for (int t = 0; t < n; ++t) ids[t] = t;
    std::shuffle(ids.begin(), ids.end(), rng);
    for (int i = 0; i < deletes && i < n; ++i) delta.Delete(ids[i]);
  }
  return delta;
}

void ExpectIndexEqual(const DifferenceSetIndex& got,
                      const DifferenceSetIndex& want) {
  ASSERT_EQ(got.size(), want.size());
  for (int g = 0; g < got.size(); ++g) {
    EXPECT_EQ(got.group(g).diff.bits(), want.group(g).diff.bits())
        << "group " << g;
    ASSERT_EQ(got.group(g).edges.size(), want.group(g).edges.size())
        << "group " << g;
    for (size_t e = 0; e < got.group(g).edges.size(); ++e) {
      EXPECT_EQ(got.group(g).edges[e], want.group(g).edges[e])
          << "group " << g << " edge " << e;
    }
  }
}

SearchState RandomState(std::mt19937_64& rng, const StateSpace& space) {
  SearchState s(space.num_fds());
  for (int i = 0; i < space.num_fds(); ++i) {
    s.ext[i] = AttrSet(rng() & space.allowed(i).bits());
  }
  return s;
}

// --- Delta-vs-rebuild bit-identity across 1-8 threads --------------------

class IncrementalOracle : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalOracle, RandomInterleavingsMatchRebuild) {
  const int threads = GetParam();
  const int m = 5;
  const int domain = 4;
  exec::Options eopts;
  eopts.num_threads = threads;
  CardinalityWeight weights;  // instance-independent: isolates the index

  std::mt19937_64 rng(0xbe5ca1e5 + threads);
  Instance inst = RandomInstance(rng, 40, m, domain);
  EncodedInstance enc(inst);
  FDSet sigma = TestSigma();
  FdSearchContext ctx(sigma, enc, weights, {}, eopts);
  const uint64_t version0 = ctx.version();

  for (int step = 0; step < 12; ++step) {
    DeltaBatch delta = RandomDelta(rng, enc.NumTuples(), m, domain);
    DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), m);
    inst.ApplyDelta(delta, plan);
    enc.ApplyDelta(delta, plan);
    ctx.ApplyDelta(enc, plan.dirty, plan.remap, eopts);

    // The encoded instance mirrors the plain one positionally.
    ASSERT_EQ(enc.NumTuples(), inst.NumTuples());
    for (TupleId t = 0; t < inst.NumTuples(); ++t) {
      for (AttrId a = 0; a < m; ++a) {
        EXPECT_EQ(enc.DecodeCell(t, a), inst.At(t, a))
            << "step " << step << " cell (" << t << ", " << a << ")";
      }
    }

    // From-scratch rebuild over the SAME mutated encoded instance, serial.
    FdSearchContext fresh(sigma, enc, weights);
    ExpectIndexEqual(ctx.index(), fresh.index());
    EXPECT_EQ(ctx.RootDeltaP(), fresh.RootDeltaP()) << "step " << step;

    // Cover answers through the (remapped) memo match a cold evaluator.
    for (int probe = 0; probe < 15; ++probe) {
      SearchState s = RandomState(rng, ctx.space());
      EXPECT_EQ(ctx.CoverSize(s, nullptr), fresh.CoverSize(s, nullptr))
          << "step " << step << " probe " << probe;
    }

    // Full searches agree move for move (visit schedules included).
    for (int64_t tau : {int64_t{0}, ctx.RootDeltaP() / 2}) {
      ModifyFdsResult got = ModifyFds(ctx, tau);
      ModifyFdsResult want = ModifyFds(fresh, tau);
      ASSERT_EQ(got.repair.has_value(), want.repair.has_value())
          << "step " << step << " tau " << tau;
      EXPECT_EQ(got.stats.states_visited, want.stats.states_visited);
      if (got.repair.has_value()) {
        EXPECT_EQ(got.repair->state.ext, want.repair->state.ext);
        EXPECT_EQ(got.repair->distc, want.repair->distc);
        EXPECT_EQ(got.repair->delta_p, want.repair->delta_p);
      }
    }
  }
  EXPECT_EQ(ctx.version(), version0 + 12);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalOracle,
                         ::testing::Values(1, 2, 4, 8));

// --- Edge cases ----------------------------------------------------------

TEST(IncrementalEdge, EmptyDeltaIsANoOp) {
  std::mt19937_64 rng(7);
  Result<Session> session =
      Session::Open(RandomInstance(rng, 20, 5, 3), TestSigma());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const uint64_t version = session->DataVersion();
  const int64_t root = session->RootDeltaP();

  Result<ApplyStats> stats = session->Apply(DeltaBatch{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->contexts_patched, 0);
  EXPECT_EQ(session->DataVersion(), version);  // empty deltas don't bump
  EXPECT_EQ(session->RootDeltaP(), root);
  EXPECT_EQ(session->instance().NumTuples(), 20);
}

TEST(IncrementalEdge, DeleteEverything) {
  std::mt19937_64 rng(11);
  Instance inst = RandomInstance(rng, 15, 5, 3);
  Result<Session> session = Session::Open(std::move(inst), TestSigma());
  ASSERT_TRUE(session.ok());
  ASSERT_GT(session->RootDeltaP(), 0);

  DeltaBatch delta;
  for (TupleId t = 0; t < 15; ++t) delta.Delete(t);
  Result<ApplyStats> stats = session->Apply(delta);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_tuples, 0);
  EXPECT_EQ(session->instance().NumTuples(), 0);
  EXPECT_EQ(session->RootDeltaP(), 0);

  // An empty relation satisfies everything: tau = 0 repairs with no edits.
  Result<RepairResponse> repair = session->Repair(RepairRequest::At(0));
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_EQ(repair->repair.changed_cells.size(), 0u);

  // And the session keeps working: refill via inserts.
  DeltaBatch refill;
  for (int i = 0; i < 10; ++i) refill.Insert(RandomTuple(rng, 5, 2));
  ASSERT_TRUE(session->Apply(refill).ok());
  EXPECT_EQ(session->instance().NumTuples(), 10);
  Result<Session> fresh = Session::Open(session->instance(), TestSigma());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(session->RootDeltaP(), fresh->RootDeltaP());
}

TEST(IncrementalEdge, InvalidDeltasRejectedBeforeMutating) {
  std::mt19937_64 rng(13);
  Result<Session> session =
      Session::Open(RandomInstance(rng, 10, 5, 3), TestSigma());
  ASSERT_TRUE(session.ok());
  const int64_t root = session->RootDeltaP();
  const uint64_t version = session->DataVersion();

  DeltaBatch bad_delete;
  bad_delete.Delete(10);
  EXPECT_EQ(session->Apply(bad_delete).status().code(),
            StatusCode::kInvalidArgument);

  DeltaBatch dup_delete;
  dup_delete.Delete(3).Delete(3);
  EXPECT_EQ(session->Apply(dup_delete).status().code(),
            StatusCode::kInvalidArgument);

  DeltaBatch bad_update;
  bad_update.Update(2, 99, Value(int64_t{1}));
  EXPECT_EQ(session->Apply(bad_update).status().code(),
            StatusCode::kInvalidArgument);

  DeltaBatch bad_arity;
  bad_arity.Insert(Tuple(3));
  EXPECT_EQ(session->Apply(bad_arity).status().code(),
            StatusCode::kInvalidArgument);

  // A delta that mixes valid and invalid entries must not half-apply.
  DeltaBatch mixed;
  mixed.Insert(RandomTuple(rng, 5, 3)).Delete(42);
  EXPECT_EQ(session->Apply(mixed).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->instance().NumTuples(), 10);
  EXPECT_EQ(session->RootDeltaP(), root);
  EXPECT_EQ(session->DataVersion(), version);
}

// --- Session-level oracle: Apply == fresh Open over the mutated data -----

TEST(IncrementalSession, ApplyMatchesFreshOpen) {
  std::mt19937_64 rng(0x5e55);
  Result<Session> session =
      Session::Open(RandomInstance(rng, 30, 5, 3), TestSigma());
  ASSERT_TRUE(session.ok());
  // Warm the context (memo entries that Apply must remap or drop).
  ASSERT_TRUE(session->Repair(RepairRequest::AtRelative(0.5)).ok());

  for (int step = 0; step < 6; ++step) {
    DeltaBatch delta =
        RandomDelta(rng, session->instance().NumTuples(), 5, 3);
    Result<ApplyStats> stats = session->Apply(delta);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    Result<Session> fresh = Session::Open(session->instance(), TestSigma());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(session->RootDeltaP(), fresh->RootDeltaP()) << "step " << step;

    for (double tau_r : {0.0, 0.4, 1.0}) {
      Result<RepairResponse> got =
          session->Repair(RepairRequest::AtRelative(tau_r));
      Result<RepairResponse> want =
          fresh->Repair(RepairRequest::AtRelative(tau_r));
      ASSERT_EQ(got.ok(), want.ok())
          << "step " << step << " tau_r " << tau_r;
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
        continue;
      }
      EXPECT_EQ(got->tau, want->tau);
      EXPECT_EQ(got->repair.sigma_prime.ToString(session->schema()),
                want->repair.sigma_prime.ToString(session->schema()));
      EXPECT_EQ(got->repair.distc, want->repair.distc);
      EXPECT_EQ(got->repair.delta_p, want->repair.delta_p);
      EXPECT_EQ(got->repair.data.Decode().ToTable(),
                want->repair.data.Decode().ToTable());
    }
  }
}

TEST(IncrementalSession, ApplyPatchesEveryCachedContext) {
  std::mt19937_64 rng(0xcafe);
  Result<Session> session =
      Session::Open(RandomInstance(rng, 25, 5, 3), TestSigma());
  ASSERT_TRUE(session.ok());
  // Cache a second context, then switch back: two live fingerprints.
  FDSet alt;
  alt.Add(FD{AttrSet{1}, 2});
  ASSERT_TRUE(session->SetFds(alt).ok());
  ASSERT_TRUE(session->SetFds(TestSigma()).ok());
  ASSERT_EQ(session->CachedContexts().cached, 2u);

  DeltaBatch delta;
  for (int i = 0; i < 5; ++i) delta.Insert(RandomTuple(rng, 5, 2));
  Result<ApplyStats> stats = session->Apply(delta);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->contexts_patched, 2);

  // BOTH contexts must answer for the post-delta data — switching Σ after
  // the delta reuses the patched cache, matching a fresh session.
  ASSERT_TRUE(session->SetFds(alt).ok());
  Result<Session> fresh = Session::Open(session->instance(), alt);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(session->RootDeltaP(), fresh->RootDeltaP());
  EXPECT_EQ(session->CachedContexts().cached, 2u);  // reused, not rebuilt
}

// --- Snapshot versioning vs exec::Sweep (Exec* => runs under TSan) -------

TEST(ExecIncrementalVersion, StaleSweepRefusesToRun) {
  std::mt19937_64 rng(3);
  Instance inst = RandomInstance(rng, 20, 5, 3);
  EncodedInstance enc(inst);
  CardinalityWeight weights;
  FDSet sigma = TestSigma();
  FdSearchContext ctx(sigma, enc, weights);
  exec::Sweep sweep(ctx, enc);
  ASSERT_EQ(sweep.pinned_version(), ctx.version());
  ASSERT_EQ(sweep.RunSearches({int64_t{0}, ctx.RootDeltaP()}).size(), 2u);

  DeltaBatch delta;
  delta.Insert(RandomTuple(rng, 5, 3));
  DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), 5);
  inst.ApplyDelta(delta, plan);
  enc.ApplyDelta(delta, plan);
  ctx.ApplyDelta(enc, plan.dirty, plan.remap);

  // The sweep's pinned snapshot is gone: running would mix pre- and
  // post-delta state, so it must throw until Refresh() re-pins.
  EXPECT_THROW(sweep.RunSearches(std::vector<int64_t>{0}), std::logic_error);
  std::vector<exec::SweepJob> jobs(1);
  EXPECT_THROW(sweep.RunRepairs(jobs), std::logic_error);
  sweep.Refresh();
  EXPECT_EQ(sweep.RunSearches(std::vector<int64_t>{0}).size(), 1u);
}

TEST(ExecIncrementalVersion, SessionBatchesWorkAcrossApplies) {
  std::mt19937_64 rng(5);
  Result<Session> session =
      Session::Open(RandomInstance(rng, 20, 5, 3), TestSigma());
  ASSERT_TRUE(session.ok());
  std::vector<RepairRequest> reqs = {RepairRequest::AtRelative(1.0),
                                     RepairRequest::AtRelative(0.5)};
  for (int round = 0; round < 3; ++round) {
    // The facade refreshes every sweep pin inside Apply, so batches keep
    // running after each delta.
    for (const Result<RepairResponse>& r : session->RepairMany(reqs)) {
      ASSERT_TRUE(r.ok() ||
                  r.status().code() == StatusCode::kNoRepairWithinTau);
    }
    DeltaBatch delta = RandomDelta(rng, session->instance().NumTuples(),
                                   5, 3);
    ASSERT_TRUE(session->Apply(delta).ok());
  }
}

TEST(ExecIncrementalVersion, ConcurrentAppliesAndRequestsStayConsistent) {
  std::mt19937_64 rng(9);
  SessionOptions opts;
  opts.exec.num_threads = 2;
  Result<Session> session =
      Session::Open(RandomInstance(rng, 25, 5, 3), TestSigma(), opts);
  ASSERT_TRUE(session.ok());

  // Reader threads hammer batched requests while a writer thread applies
  // deltas: the snapshot lock serializes them, so every request must
  // observe a coherent state (no throws, no torn answers). Iteration
  // counts are fixed — glibc's shared_mutex favors readers, so an
  // unbounded reader loop could starve the writer indefinitely.
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int r = 0; r < 3; ++r) {
    workers.emplace_back([&] {
      std::vector<RepairRequest> reqs = {RepairRequest::AtRelative(1.0),
                                         RepairRequest::AtRelative(0.3)};
      for (int i = 0; i < 20; ++i) {
        for (const Result<RepairResponse>& resp : session->RepairMany(reqs)) {
          if (!resp.ok() &&
              resp.status().code() != StatusCode::kNoRepairWithinTau) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  workers.emplace_back([&] {
    std::mt19937_64 writer_rng(17);
    for (int step = 0; step < 10; ++step) {
      DeltaBatch delta = RandomDelta(writer_rng,
                                     session->instance().NumTuples(), 5, 3);
      Result<ApplyStats> stats = session->Apply(delta);
      if (!stats.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);

  Result<Session> fresh = Session::Open(session->instance(), TestSigma());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(session->RootDeltaP(), fresh->RootDeltaP());
}

}  // namespace
}  // namespace retrust
