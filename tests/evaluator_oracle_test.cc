// Oracle tests for the δP evaluation pipeline (ViolationTable → group
// bitset → CoverMemo; DESIGN.md): every fast path must be BIT-IDENTICAL to
// the legacy per-state FD-set scan it replaced, across randomized
// instances, states, thread counts, and τ values. The suite is named
// Exec* so CI's TSan job exercises the memo's concurrency too.

#include <gtest/gtest.h>

#include <memory>

#include "src/eval/experiment.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/exec/thread_pool.h"
#include "src/fd/violation_table.h"
#include "src/graph/cover_memo.h"
#include "src/repair/evaluation.h"
#include "src/util/rng.h"

namespace retrust {
namespace {

ExperimentData MakeData(uint64_t seed, int num_tuples = 300) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes = {4};
  gen.seed = seed;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = seed + 1;
  return PrepareExperiment(gen, perturb);
}

// The pre-refactor violation test, verbatim: difference set d violates FD
// i of the relaxation iff A_i ∈ d and (X_i ∪ Y_i) ∩ d = ∅.
bool LegacyGroupViolated(const FDSet& sigma, AttrSet diff,
                         const SearchState& s) {
  for (int i = 0; i < sigma.size(); ++i) {
    const FD& fd = sigma.fd(i);
    if (diff.Contains(fd.rhs) && !fd.lhs.Union(s.ext[i]).Intersects(diff)) {
      return true;
    }
  }
  return false;
}

// The pre-refactor FdSearchContext::CoverSize, verbatim: concatenate the
// edges of violated groups in canonical index order, greedy matching.
int64_t LegacyCoverSize(const FdSearchContext& ctx, const SearchState& s) {
  std::vector<Edge> edges;
  for (int i = 0; i < ctx.index().size(); ++i) {
    const DiffSetGroup g = ctx.index().group(i);
    if (LegacyGroupViolated(ctx.sigma(), g.diff, s)) {
      edges.insert(edges.end(), g.edges.begin(), g.edges.end());
    }
  }
  MatchingCoverScratch scratch(ctx.num_tuples());
  return scratch.CoverSize(edges);
}

// A mix of states: the root, random walks down the unique-parent tree
// (realistic search states), and uniformly random extension vectors within
// allowed() (adversarial coverage).
std::vector<SearchState> RandomStates(const FdSearchContext& ctx, Rng* rng,
                                      size_t count) {
  std::vector<SearchState> out;
  out.push_back(SearchState::Root(ctx.sigma().size()));
  while (out.size() < count / 2) {
    SearchState s = SearchState::Root(ctx.sigma().size());
    int depth = static_cast<int>(rng->NextInt(1, 4));
    for (int d = 0; d < depth; ++d) {
      std::vector<SearchState> kids = ctx.space().Children(s);
      if (kids.empty()) break;
      s = kids[rng->PickIndex(kids)];
    }
    out.push_back(std::move(s));
  }
  while (out.size() < count) {
    SearchState s(ctx.sigma().size());
    for (int i = 0; i < ctx.sigma().size(); ++i) {
      for (AttrId a : ctx.space().allowed(i)) {
        if (rng->NextBool(0.25)) s.ext[i].Add(a);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ExecEvaluationOracle, ViolationTableMatchesLegacyScan) {
  for (uint64_t seed : {11u, 42u, 99u}) {
    ExperimentData data = MakeData(seed);
    const FdSearchContext& ctx = data.context();
    const ViolationTable& table = ctx.evaluator().table();
    ASSERT_EQ(table.num_groups(), ctx.index().size());
    ASSERT_EQ(table.num_fds(), ctx.sigma().size());
    Rng rng(seed);
    for (const SearchState& s : RandomStates(ctx, &rng, 40)) {
      GroupBitset bits;
      table.ViolatedGroups(s.ext, &bits);
      for (int g = 0; g < ctx.index().size(); ++g) {
        bool legacy =
            LegacyGroupViolated(ctx.sigma(), ctx.index().group(g).diff, s);
        EXPECT_EQ(table.GroupViolated(g, s.ext), legacy)
            << "group " << g << " state " << s.ToString();
        EXPECT_EQ(bits.Test(g), legacy)
            << "bitset group " << g << " state " << s.ToString();
      }
    }
  }
}

// Checks `table` against the legacy scan over `index` group by group, for
// both the word-parallel ViolatedGroups and the per-group GroupViolated.
// Bits past the last group must stay clear.
void ExpectTableMatchesLegacy(const FDSet& sigma,
                              const DifferenceSetIndex& index,
                              const ViolationTable& table,
                              const std::vector<SearchState>& states) {
  ASSERT_EQ(table.num_groups(), index.size());
  for (const SearchState& s : states) {
    GroupBitset bits;
    table.ViolatedGroups(s.ext, &bits);
    ASSERT_EQ(bits.num_bits(), index.size());
    int violated = 0;
    for (int g = 0; g < index.size(); ++g) {
      const bool legacy = LegacyGroupViolated(sigma, index.group(g).diff, s);
      violated += legacy;
      EXPECT_EQ(table.GroupViolated(g, s.ext), legacy)
          << "group " << g << " state " << s.ToString();
      EXPECT_EQ(bits.Test(g), legacy)
          << "bitset group " << g << " state " << s.ToString();
    }
    EXPECT_EQ(bits.Count(), violated) << "state " << s.ToString();
  }
}

TEST(ExecEvaluationOracle, ViolationTableMatchesLegacyScanWideSigma) {
  // The wide400 regime (tests/search_golden_test.cc): 220 groups, i.e.
  // four words with a partial last one.
  CensusConfig gen;
  gen.num_tuples = 400;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes.assign(4, 4);
  gen.seed = 2;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = 3;
  ExperimentData data = PrepareExperiment(gen, perturb);
  const FdSearchContext& ctx = data.context();
  ASSERT_EQ(ctx.index().size(), 220);
  Rng rng(400);
  ExpectTableMatchesLegacy(ctx.sigma(), ctx.index(), ctx.evaluator().table(),
                           RandomStates(ctx, &rng, 120));
}

TEST(ExecEvaluationOracle, ViolationTablePatchedByDeltaMatchesLegacyScan) {
  // Random inserts, cell updates and deletes through Session::Apply, which
  // rebuilds the table over the patched index. Values are copied from
  // other cells of the same column, so every delta is well-typed.
  ExperimentData data = MakeData(61);
  Session& session = *data.session;
  const int m = session.schema().NumAttrs();
  Rng rng(61);
  for (int step = 0; step < 6; ++step) {
    const Instance& inst = session.instance();
    const int n = inst.NumTuples();
    auto cell = [&](AttrId a) {
      return inst.At(static_cast<TupleId>(rng.NextInt(0, n - 1)), a);
    };
    DeltaBatch delta;
    for (int k = 0; k < 3; ++k) {
      Tuple t(m);
      for (AttrId a = 0; a < m; ++a) t[a] = cell(a);
      delta.Insert(std::move(t));
    }
    for (int k = 0; k < 4; ++k) {
      const AttrId a = static_cast<AttrId>(rng.NextInt(0, m - 1));
      delta.Update(static_cast<TupleId>(rng.NextInt(0, n - 1)), a, cell(a));
    }
    delta.Delete(static_cast<TupleId>(rng.NextInt(0, n - 1)));
    Result<ApplyStats> applied = session.Apply(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    const FdSearchContext& ctx = data.context();
    const ViolationTable& patched = ctx.evaluator().table();
    ExpectTableMatchesLegacy(ctx.sigma(), ctx.index(), patched,
                             RandomStates(ctx, &rng, 30));
    // And it equals a from-scratch table over the patched index.
    EXPECT_EQ(patched.fd_masks(),
              ViolationTable(ctx.sigma(), ctx.index()).fd_masks());
  }
}

TEST(ExecEvaluationOracle, ViolationTableWithNoGroups) {
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{2}, 3});
  const DifferenceSetIndex empty;
  ViolationTable table(sigma, empty);
  EXPECT_EQ(table.num_groups(), 0);
  std::vector<SearchState> states = {SearchState::Root(2), SearchState(2)};
  states.back().ext = {AttrSet{2, 5}, AttrSet{0, 63}};
  ExpectTableMatchesLegacy(sigma, empty, table, states);
  ExpectTableMatchesLegacy(sigma, empty, ViolationTable(sigma, empty, {}),
                           states);
}

TEST(ExecEvaluationOracle, MemoizedCoverMatchesLegacyScan) {
  for (uint64_t seed : {7u, 23u}) {
    ExperimentData data = MakeData(seed);
    const FdSearchContext& ctx = data.context();
    Rng rng(seed);
    std::vector<SearchState> states = RandomStates(ctx, &rng, 30);
    SearchStats stats;
    std::vector<int64_t> first_pass;
    for (const SearchState& s : states) {
      int64_t got = ctx.CoverSize(s, &stats);
      EXPECT_EQ(got, LegacyCoverSize(ctx, s)) << s.ToString();
      first_pass.push_back(got);
    }
    // Second pass re-evaluates every state: answers must be identical and
    // now come (at least partly) from the memo.
    int64_t hits_before = stats.vc_memo_hits;
    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_EQ(ctx.CoverSize(states[i], &stats), first_pass[i]);
    }
    EXPECT_GT(stats.vc_memo_hits, hits_before);
  }
}

TEST(ExecEvaluationOracle, OrderedCoverMatchesOrderSensitiveConcat) {
  ExperimentData data = MakeData(5);
  const FdSearchContext& ctx = data.context();
  const DeltaPEvaluator& ev = ctx.evaluator();
  int n = ctx.index().size();
  ASSERT_GT(n, 1);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    // A random subset of group ids in a random ORDER — the order is part
    // of the semantics (greedy matching is order-sensitive).
    std::vector<int> groups;
    for (int g = 0; g < n; ++g) {
      if (rng.NextBool(0.3)) groups.push_back(g);
    }
    rng.Shuffle(&groups);
    int32_t got = ev.CoverOfGroups(groups, nullptr);
    std::vector<Edge> edges;
    for (int g : groups) {
      const auto& ge = ctx.index().group(g).edges;
      edges.insert(edges.end(), ge.begin(), ge.end());
    }
    MatchingCoverScratch scratch(ctx.num_tuples());
    EXPECT_EQ(got, scratch.CoverSize(edges));
    // Memo hit path answers the same.
    EXPECT_EQ(ev.CoverOfGroups(groups, nullptr), got);
  }
}

TEST(ExecEvaluationOracle, GcMatchesLegacyHeuristicPath) {
  for (uint64_t seed : {13u, 57u}) {
    ExperimentData data = MakeData(seed);
    const FdSearchContext& ctx = data.context();
    // A standalone GcHeuristic (no evaluator) keeps the pre-refactor scan
    // path; the context's heuristic runs through the table + cover memo.
    // Identical inputs must give EXACTLY identical gc values.
    GcHeuristic legacy(ctx.sigma(), ctx.space(), ctx.weights(), ctx.index(),
                       ctx.num_tuples());
    Rng rng(seed);
    std::vector<SearchState> states = RandomStates(ctx, &rng, 16);
    for (double tau_r : {0.0, 0.2, 0.6, 1.0}) {
      int64_t tau = TauFromRelative(tau_r, data.root_delta_p);
      for (const SearchState& s : states) {
        SearchStats st_new;
        SearchStats st_old;
        EXPECT_EQ(ctx.heuristic().Compute(s, tau, &st_new),
                  legacy.Compute(s, tau, &st_old))
            << "tau_r=" << tau_r << " state " << s.ToString();
      }
    }
  }
}

TEST(ExecEvaluationOracle, ModifyFdsBitIdenticalAcrossThreadsAndTaus) {
  for (uint64_t seed : {3u, 21u}) {
    ExperimentData data = MakeData(seed);
    for (double tau_r : {0.0, 0.1, 0.3, 0.7, 1.0}) {
      int64_t tau = TauFromRelative(tau_r, data.root_delta_p);
      // Warm-memo serial run on the shared context...
      ModifyFdsResult serial = ModifyFds(data.context(), tau);
      // ...must equal a cold-memo run on a fresh context (cache contents
      // can never change results).
      FdSearchContext fresh(data.dirty.fds, data.encoded(), data.weights());
      ModifyFdsResult cold = ModifyFds(fresh, tau);
      EXPECT_EQ(cold.stats.states_visited, serial.stats.states_visited);
      EXPECT_EQ(cold.stats.states_generated, serial.stats.states_generated);
      ASSERT_EQ(cold.repair.has_value(), serial.repair.has_value());
      if (serial.repair.has_value()) {
        EXPECT_EQ(cold.repair->state, serial.repair->state);
        EXPECT_EQ(cold.repair->distc, serial.repair->distc);
        EXPECT_EQ(cold.repair->cover_size, serial.repair->cover_size);
        EXPECT_EQ(cold.repair->delta_p, serial.repair->delta_p);
      }
    }
  }
}

TEST(ExecEvaluationOracle, RepairDataShardedBitIdentical) {
  ExperimentData data = MakeData(31);
  Rng rng_serial(9);
  DataRepairResult serial = RepairData(data.encoded(), data.dirty.fds,
                                       &rng_serial);
  for (int threads : {2, 8}) {
    Rng rng(9);
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    DataRepairResult sharded =
        RepairData(data.encoded(), data.dirty.fds, &rng, pool.get());
    EXPECT_EQ(sharded.cover_size, serial.cover_size) << threads;
    EXPECT_EQ(sharded.change_bound, serial.change_bound) << threads;
    ASSERT_EQ(sharded.changed_cells.size(), serial.changed_cells.size());
    for (size_t i = 0; i < serial.changed_cells.size(); ++i) {
      EXPECT_EQ(sharded.changed_cells[i].tuple, serial.changed_cells[i].tuple);
      EXPECT_EQ(sharded.changed_cells[i].attr, serial.changed_cells[i].attr);
    }
    EXPECT_EQ(sharded.repaired.Decode().ToTable(),
              serial.repaired.Decode().ToTable());
  }
}

// A session's batch shares ONE evaluation layer across τ items: states
// visited by several items pay for their cover once. Checked behaviorally
// (results identical to independent serial runs — exec_determinism_test
// covers the rest) plus via the memo's effectiveness counters.
TEST(ExecEvaluationOracle, SweepSharesCoverMemoAcrossTauJobs) {
  ExperimentData data = MakeData(47, 250);
  exec::ThreadPool pool(4);
  SessionOptions opts;
  opts.pool = &pool;
  Result<Session> session =
      Session::Open(data.dirty_instance(), data.dirty.fds, opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<RepairRequest> reqs;
  for (double tau_r : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    reqs.push_back(RepairRequest::AtRelative(tau_r));
  }
  const CoverMemo& memo = session->context().evaluator().memo();
  CoverMemo::Stats before = memo.stats();
  std::vector<Result<SearchProbe>> swept = session->SearchMany(reqs);
  CoverMemo::Stats after = memo.stats();
  ASSERT_EQ(swept.size(), reqs.size());
  EXPECT_GT(after.hits, before.hits);  // cross-item (and in-item) reuse
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(swept[i].ok()) << swept[i].status().ToString();
    const ModifyFdsResult& got = swept[i]->result;
    FdSearchContext fresh(data.dirty.fds, data.encoded(), data.weights());
    ModifyFdsResult serial = ModifyFds(fresh, swept[i]->tau);
    EXPECT_EQ(got.stats.states_visited, serial.stats.states_visited);
    ASSERT_EQ(got.repair.has_value(), serial.repair.has_value());
    if (serial.repair.has_value()) {
      EXPECT_EQ(got.repair->state, serial.repair->state);
      EXPECT_EQ(got.repair->delta_p, serial.repair->delta_p);
    }
  }
}

}  // namespace
}  // namespace retrust
