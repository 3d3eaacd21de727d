// Oracle tests for the blocked difference-set builder: the LHS-blocked
// build must be BIT-IDENTICAL to the naive all-pairs build — same groups
// (difference set, edge order), same root δP, same full search traces — at
// any thread count, for every shape of Σ: an empty LHS (whose π_∅ is one
// class, so full-disagreement pairs are ordinary edges), duplicate LHSs,
// and LHSs that are supersets of another.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/fd/difference_set.h"
#include "src/relational/delta.h"
#include "src/repair/modify_fds.h"
#include "src/repair/weights.h"

namespace retrust {
namespace {

Schema MakeSchema(int m) {
  std::vector<Attribute> attrs(m);
  for (int a = 0; a < m; ++a) {
    attrs[a] = {"A" + std::to_string(a), AttrType::kInt};
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

Instance RandomInstance(std::mt19937_64& rng, int n, int m, int domain) {
  Instance inst(MakeSchema(m));
  for (int t = 0; t < n; ++t) inst.AddTuple(RandomTuple(rng, m, domain));
  return inst;
}

FDSet TestSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{2}, 3});
  sigma.Add(FD{AttrSet{0, 2}, 4});
  return sigma;
}

/// Σ with an empty-LHS FD — the degenerate "Case B" regime where pairs
/// disagreeing on EVERY attribute are conflict edges (the universe group).
FDSet EmptyLhsSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 0});
  sigma.Add(FD{AttrSet{0}, 1});
  return sigma;
}

/// Σ whose LHSs repeat ({A0} twice) and nest ({A0, A3} ⊃ {A0}): only the
/// minimal distinct LHSs block, and the index must not notice.
FDSet NestedLhsSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{0}, 2});
  sigma.Add(FD{AttrSet{0, 3}, 4});
  return sigma;
}

/// Full structural equality — the blocked and naive front doors must agree
/// on the exact representation, not just on the logical pair population.
void ExpectIndexIdentical(const DifferenceSetIndex& got,
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

void ExpectSameSearch(const ModifyFdsResult& got, const ModifyFdsResult& want) {
  ASSERT_EQ(got.repair.has_value(), want.repair.has_value());
  if (got.repair.has_value()) {
    ASSERT_EQ(got.repair->state.ext.size(), want.repair->state.ext.size());
    for (size_t i = 0; i < got.repair->state.ext.size(); ++i) {
      EXPECT_EQ(got.repair->state.ext[i].bits(), want.repair->state.ext[i].bits());
    }
    EXPECT_DOUBLE_EQ(got.repair->distc, want.repair->distc);
    EXPECT_EQ(got.repair->cover_size, want.repair->cover_size);
    EXPECT_EQ(got.repair->delta_p, want.repair->delta_p);
  }
  EXPECT_EQ(got.stats.states_visited, want.stats.states_visited);
  EXPECT_EQ(got.stats.states_generated, want.stats.states_generated);
  EXPECT_EQ(got.termination, want.termination);
}

// --- Blocked == naive, randomized, across thread counts ------------------

class BlockedOracle : public ::testing::TestWithParam<int> {};

TEST_P(BlockedOracle, RandomInstancesMatchNaive) {
  const int threads = GetParam();
  exec::Options eopts;
  eopts.num_threads = threads;
  std::mt19937_64 rng(0xb10cced + threads);
  for (int round = 0; round < 8; ++round) {
    const int n = 5 + static_cast<int>(rng() % 60);
    const int m = 2 + static_cast<int>(rng() % 5);
    const int domain = 2 + static_cast<int>(rng() % 5);
    Instance inst = RandomInstance(rng, n, m, domain);
    EncodedInstance enc(inst);
    FDSet sigma;
    sigma.Add(FD{AttrSet{0}, 1});
    if (m >= 4) sigma.Add(FD{AttrSet{2}, 3});

    DiffSetBuildStats blocked_stats;
    DiffSetBuildStats naive_stats;
    DifferenceSetIndex blocked = BuildDifferenceSetIndex(
        enc, sigma, eopts, DiffSetBuildMode::kBlocked, &blocked_stats);
    DifferenceSetIndex naive = BuildDifferenceSetIndex(
        enc, sigma, eopts, DiffSetBuildMode::kNaive, &naive_stats);
    ExpectIndexIdentical(blocked, naive);

    // The two front doors must agree on the logical pair population even
    // though they count different things along the way.
    EXPECT_EQ(blocked_stats.pairs_materialized, naive_stats.pairs_materialized)
        << "round " << round;
    EXPECT_EQ(naive_stats.pairs_candidate,
              static_cast<int64_t>(n) * (n - 1) / 2);
    // Ownership: every candidate pair is owned by at most one LHS.
    EXPECT_LE(blocked_stats.pairs_owned, blocked_stats.pairs_candidate);
    EXPECT_LE(blocked_stats.pairs_materialized, blocked_stats.pairs_owned);
  }
}

TEST_P(BlockedOracle, SearchTracesMatchNaive) {
  const int threads = GetParam();
  exec::Options eopts;
  eopts.num_threads = threads;
  CardinalityWeight weights;
  std::mt19937_64 rng(0x5ea2c4 + threads);
  for (int round = 0; round < 4; ++round) {
    Instance inst = RandomInstance(rng, 30, 5, 3);
    EncodedInstance enc(inst);
    FDSet sigma = TestSigma();
    FdSearchContext blocked(sigma, enc, weights, {}, eopts,
                            DiffSetBuildMode::kBlocked);
    FdSearchContext naive(sigma, enc, weights, {}, eopts,
                          DiffSetBuildMode::kNaive);
    ASSERT_EQ(blocked.RootDeltaP(), naive.RootDeltaP());
    for (int64_t tau :
         {int64_t{0}, blocked.RootDeltaP() / 2, blocked.RootDeltaP()}) {
      ExpectSameSearch(ModifyFds(blocked, tau), ModifyFds(naive, tau));
    }
  }
}

TEST_P(BlockedOracle, EmptyLhsSigmaMatchesNaive) {
  const int threads = GetParam();
  exec::Options eopts;
  eopts.num_threads = threads;
  CardinalityWeight weights;
  std::mt19937_64 rng(0xca5eb + threads);
  for (int round = 0; round < 4; ++round) {
    Instance inst = RandomInstance(rng, 20, 3, 2 + round);
    EncodedInstance enc(inst);
    FDSet sigma = EmptyLhsSigma();
    DifferenceSetIndex blocked =
        BuildDifferenceSetIndex(enc, sigma, eopts, DiffSetBuildMode::kBlocked);
    DifferenceSetIndex naive =
        BuildDifferenceSetIndex(enc, sigma, eopts, DiffSetBuildMode::kNaive);
    ExpectIndexIdentical(blocked, naive);

    // Search answers (whose covers scan the universe group) must also
    // agree.
    FdSearchContext bctx(sigma, enc, weights, {}, eopts,
                         DiffSetBuildMode::kBlocked);
    FdSearchContext nctx(sigma, enc, weights, {}, eopts,
                         DiffSetBuildMode::kNaive);
    ASSERT_EQ(bctx.RootDeltaP(), nctx.RootDeltaP());
    ExpectSameSearch(ModifyFds(bctx, bctx.RootDeltaP() / 2),
                     ModifyFds(nctx, nctx.RootDeltaP() / 2));
  }
}

TEST_P(BlockedOracle, DuplicateAndSupersetLhsMatchNaive) {
  const int threads = GetParam();
  exec::Options eopts;
  eopts.num_threads = threads;
  CardinalityWeight weights;
  std::mt19937_64 rng(0x5b5e7 + threads);
  for (int round = 0; round < 4; ++round) {
    Instance inst = RandomInstance(rng, 40, 5, 2 + round);
    EncodedInstance enc(inst);
    FDSet sigma = NestedLhsSigma();
    DiffSetBuildStats stats;
    DifferenceSetIndex blocked = BuildDifferenceSetIndex(
        enc, sigma, eopts, DiffSetBuildMode::kBlocked, &stats);
    DifferenceSetIndex naive =
        BuildDifferenceSetIndex(enc, sigma, eopts, DiffSetBuildMode::kNaive);
    ExpectIndexIdentical(blocked, naive);

    // {A0} is the only blocking key, so each candidate is a distinct pair
    // agreeing on A0 and every one of them is owned.
    int64_t agree_on_a0 = 0;
    for (TupleId u = 0; u < enc.NumTuples(); ++u) {
      for (TupleId v = u + 1; v < enc.NumTuples(); ++v) {
        agree_on_a0 += enc.At(u, 0) == enc.At(v, 0);
      }
    }
    EXPECT_EQ(stats.pairs_candidate, agree_on_a0) << "round " << round;
    EXPECT_EQ(stats.pairs_owned, agree_on_a0) << "round " << round;

    FdSearchContext bctx(sigma, enc, weights, {}, eopts,
                         DiffSetBuildMode::kBlocked);
    FdSearchContext nctx(sigma, enc, weights, {}, eopts,
                         DiffSetBuildMode::kNaive);
    ASSERT_EQ(bctx.RootDeltaP(), nctx.RootDeltaP());
    ExpectSameSearch(ModifyFds(bctx, bctx.RootDeltaP() / 2),
                     ModifyFds(nctx, nctx.RootDeltaP() / 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BlockedOracle,
                         ::testing::Values(1, 2, 4, 8));

// --- Full-disagreement (universe-diff) groups ------------------------------

TEST(CountedGroups, AllDistinctWithoutEmptyLhsProducesEmptyIndex) {
  // Every pair disagrees everywhere; without an empty-LHS FD such pairs
  // agree on no LHS, so the blocked build never even enumerates them.
  Instance inst(MakeSchema(2));
  for (int t = 0; t < 6; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(t + 100))});
  }
  EncodedInstance enc(inst);
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  DiffSetBuildStats stats;
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      enc, sigma, {}, DiffSetBuildMode::kBlocked, &stats);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(stats.pairs_candidate, 0);
  EXPECT_EQ(stats.pairs_materialized, 0);
}

TEST(CountedGroups, AllDistinctWithEmptyLhsIsOneUniverseGroup) {
  // π_∅ is one class holding every tuple, so all C(5,2) pairs are
  // enumerated and stored as the universe group, in ascending order.
  Instance inst(MakeSchema(2));
  for (int t = 0; t < 5; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(t + 100))});
  }
  EncodedInstance enc(inst);
  DiffSetBuildStats stats;
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      enc, EmptyLhsSigma(), {}, DiffSetBuildMode::kBlocked, &stats);
  ExpectIndexIdentical(index, BuildDifferenceSetIndex(
                                  enc, EmptyLhsSigma(), {},
                                  DiffSetBuildMode::kNaive));
  ASSERT_EQ(index.size(), 1);
  EXPECT_EQ(index.group(0).diff.bits(), AttrSet::Universe(2).bits());
  EXPECT_EQ(index.group(0).frequency(), 10);
  EXPECT_EQ(stats.pairs_candidate, 10);
  EXPECT_EQ(stats.pairs_materialized, 10);
  const std::vector<Edge>& edges = index.group(0).edges;
  ASSERT_EQ(edges.size(), 10u);
  size_t k = 0;
  for (TupleId u = 0; u < 5; ++u) {
    for (TupleId v = u + 1; v < 5; ++v) {
      EXPECT_EQ(edges[k], Edge(u, v));
      ++k;
    }
  }
}

TEST(CountedGroups, AllDuplicateTuplesProduceNoConflicts) {
  Instance inst(MakeSchema(3));
  for (int t = 0; t < 8; ++t) {
    inst.AddTuple({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  }
  EncodedInstance enc(inst);
  DiffSetBuildStats stats;
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      enc, EmptyLhsSigma(), {}, DiffSetBuildMode::kBlocked, &stats);
  ExpectIndexIdentical(index, BuildDifferenceSetIndex(
                                  enc, EmptyLhsSigma(), {},
                                  DiffSetBuildMode::kNaive));
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(stats.pairs_candidate, 28);  // C(8,2), all equal pairs
  EXPECT_EQ(stats.pairs_materialized, 0);
}

TEST(CountedGroups, SingleAttributeInstance) {
  // m = 1: the universe is {A0}; with Σ = {∅ -> A0}, unequal pairs form
  // the universe group and equal pairs vanish.
  Instance inst(MakeSchema(1));
  for (int64_t v : {0, 1, 0, 2, 1}) inst.AddTuple({Value(v)});
  EncodedInstance enc(inst);
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 0});
  DifferenceSetIndex blocked =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kBlocked);
  DifferenceSetIndex naive =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kNaive);
  ExpectIndexIdentical(blocked, naive);
  ASSERT_EQ(blocked.size(), 1);
  EXPECT_EQ(blocked.group(0).frequency(), 8);  // C(5,2) minus two equal pairs
}

TEST(CountedGroups, CopiedIndexMaterializesIndependently) {
  Instance inst(MakeSchema(2));
  for (int t = 0; t < 4; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(t + 10))});
  }
  EncodedInstance enc(inst);
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(enc, EmptyLhsSigma(), {});
  ASSERT_EQ(index.size(), 1);
  DifferenceSetIndex copy = index;
  ExpectIndexIdentical(copy, index);
  // The copy owns its edges: patching the original leaves it untouched.
  DeltaBatch delta;
  delta.Delete(0);
  DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), 2);
  enc.ApplyDelta(delta, plan);
  index.ApplyDelta(enc, EmptyLhsSigma(), plan.dirty, plan.remap, nullptr);
  EXPECT_EQ(index.group(0).frequency(), 3);
  EXPECT_EQ(copy.group(0).frequency(), 6);
}

// --- Delta maintenance over the columnar layout --------------------------

TEST(ColumnarDelta, PatchedContextMatchesFreshBlockedBuild) {
  exec::Options eopts;
  eopts.num_threads = 4;
  CardinalityWeight weights;
  std::mt19937_64 rng(0xc01a);
  const int m = 5;
  const int domain = 3;
  Instance inst = RandomInstance(rng, 25, m, domain);
  EncodedInstance enc(inst);
  FDSet sigma = TestSigma();
  FdSearchContext ctx(sigma, enc, weights, {}, eopts);

  for (int step = 0; step < 6; ++step) {
    DeltaBatch delta;
    delta.Insert(RandomTuple(rng, m, domain));
    if (enc.NumTuples() > 0) {
      delta.Update(static_cast<TupleId>(rng() % enc.NumTuples()),
                   static_cast<AttrId>(rng() % m),
                   Value(static_cast<int64_t>(rng() % domain)));
      delta.Delete(static_cast<TupleId>(rng() % enc.NumTuples()));
    }
    DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), m);
    inst.ApplyDelta(delta, plan);
    enc.ApplyDelta(delta, plan);
    ctx.ApplyDelta(enc, plan.dirty, plan.remap, eopts);

    // Column-major mutation must decode back to the mutated rows (codes
    // themselves are encounter-ordered, so only values are comparable
    // against a re-encode), and the columns must agree with the cells.
    ASSERT_EQ(enc.NumTuples(), inst.NumTuples());
    const std::vector<int32_t> row_major = enc.RowMajorCodes();
    for (TupleId t = 0; t < inst.NumTuples(); ++t) {
      for (AttrId a = 0; a < m; ++a) {
        ASSERT_EQ(enc.DecodeCell(t, a), inst.At(t, a))
            << "t=" << t << " a=" << a;
        ASSERT_EQ(enc.column(a)[t], enc.At(t, a));
        ASSERT_EQ(row_major[static_cast<size_t>(t) * m + a], enc.At(t, a));
      }
    }

    FdSearchContext fresh(sigma, enc, weights, {}, eopts);
    ExpectIndexIdentical(ctx.index(), fresh.index());
    EXPECT_EQ(ctx.RootDeltaP(), fresh.RootDeltaP());
    ExpectSameSearch(ModifyFds(ctx, ctx.RootDeltaP() / 2),
                     ModifyFds(fresh, fresh.RootDeltaP() / 2));
  }
}

TEST(ColumnarDelta, EmptyLhsDeltaPatchesAndMatchesFresh) {
  // In the Case-B regime FdSearchContext::ApplyDelta patches like in every
  // other: the all-partners scan finds full-disagreement pairs, so the
  // result matches a fresh context — including the delta that creates the
  // FIRST full-disagreement pair — and untouched groups stay preserved.
  exec::Options eopts;
  eopts.num_threads = 2;
  CardinalityWeight weights;
  FDSet sigma = EmptyLhsSigma();

  // Start with tuples that all agree on attribute 1: no universe group.
  const AttrSet universe = AttrSet::Universe(2);
  auto has_universe_group = [&](const DifferenceSetIndex& index) {
    for (const DiffSetGroup& g : index.groups()) {
      if (g.diff == universe) return true;
    }
    return false;
  };
  Instance inst(MakeSchema(2));
  for (int64_t v : {0, 1, 2}) inst.AddTuple({Value(v), Value(int64_t{7})});
  EncodedInstance enc(inst);
  FdSearchContext ctx(sigma, enc, weights, {}, eopts);
  ASSERT_FALSE(has_universe_group(ctx.index()));
  ASSERT_EQ(ctx.index().size(), 1);  // {A0}: the three A-conflicts

  // The insert disagrees with everyone everywhere: the first
  // full-disagreement pairs. The {A0} group keeps its edges untouched.
  DeltaBatch delta;
  delta.Insert({Value(int64_t{9}), Value(int64_t{8})});
  DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), 2);
  inst.ApplyDelta(delta, plan);
  enc.ApplyDelta(delta, plan);
  FdSearchContext::DeltaReport report =
      ctx.ApplyDelta(enc, plan.dirty, plan.remap, eopts);
  EXPECT_EQ(report.index.groups_preserved, 1);

  FdSearchContext fresh(sigma, enc, weights, {}, eopts);
  EXPECT_TRUE(has_universe_group(ctx.index()));
  ExpectIndexIdentical(ctx.index(), fresh.index());
  EXPECT_EQ(ctx.RootDeltaP(), fresh.RootDeltaP());
  ExpectSameSearch(ModifyFds(ctx, 0), ModifyFds(fresh, 0));

  // And further deltas (update + delete) keep matching.
  DeltaBatch delta2;
  delta2.Update(0, 1, Value(int64_t{8}));
  delta2.Delete(2);
  DeltaPlan plan2 = PlanDelta(delta2, enc.NumTuples(), 2);
  inst.ApplyDelta(delta2, plan2);
  enc.ApplyDelta(delta2, plan2);
  ctx.ApplyDelta(enc, plan2.dirty, plan2.remap, eopts);
  FdSearchContext fresh2(sigma, enc, weights, {}, eopts);
  ExpectIndexIdentical(ctx.index(), fresh2.index());
  EXPECT_EQ(ctx.RootDeltaP(), fresh2.RootDeltaP());
}

}  // namespace
}  // namespace retrust
