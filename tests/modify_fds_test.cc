#include "src/repair/modify_fds.h"

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"

namespace retrust {
namespace {

Instance Fig2() {
  Instance inst(Schema::FromNames({"A", "B", "C", "D"}));
  auto add = [&](const char* a, const char* b, const char* c,
                 const char* d) {
    inst.AddTuple({Value(a), Value(b), Value(c), Value(d)});
  };
  add("1", "1", "1", "1");
  add("1", "2", "1", "3");
  add("2", "2", "1", "1");
  add("2", "3", "4", "3");
  return inst;
}

TEST(ModifyFds, RootIsGoalAtLargeTau) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  ModifyFdsResult r = ModifyFds(ctx, /*tau=*/100);
  ASSERT_TRUE(r.repair.has_value());
  EXPECT_TRUE(r.repair->state.IsRoot());
  EXPECT_EQ(r.repair->distc, 0.0);
  // Root δP on Fig 2: the canonical (diff-set-group-ordered) matching
  // picks edge (t2,t3) first, covering all three path edges with 2
  // tuples; α = 2, so δP = 4 (matching the paper's worked value).
  EXPECT_EQ(r.repair->delta_p, 4);
}

TEST(ModifyFds, TauZeroNeedsFullResolution) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  ModifyFdsResult r = ModifyFds(ctx, /*tau=*/0);
  ASSERT_TRUE(r.repair.has_value());
  // All Figure 2 diffsets (BD, AD, BCD) are resolvable by extensions, so a
  // zero-violation relaxation exists. Resolving BD needs D on A->B and B
  // on C->D; resolving AD additionally needs A on C->D: 3 appends total.
  EXPECT_EQ(r.repair->delta_p, 0);
  EXPECT_EQ(r.repair->distc, 3.0);
  EXPECT_TRUE(Satisfies(enc, r.repair->sigma_prime));
}

TEST(ModifyFds, NoRepairWhenRhsOnlyDiffAndTauZero) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  ModifyFdsResult r = ModifyFds(ctx, 0);
  EXPECT_FALSE(r.repair.has_value());
}

TEST(ModifyFds, ResultSatisfiesDeltaPBound) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  for (int64_t tau : {0, 2, 4, 6, 8, 20}) {
    ModifyFdsResult r = ModifyFds(ctx, tau);
    if (r.repair.has_value()) {
      EXPECT_LE(r.repair->delta_p, tau) << "tau=" << tau;
    }
  }
}

TEST(ModifyFds, AStarMatchesBestFirstCost) {
  // Both searches are exact w.r.t. the δP goal test, so they must agree on
  // the optimal distc (possibly via different states).
  CensusConfig cfg;
  cfg.num_tuples = 500;
  cfg.num_attrs = 10;
  cfg.planted_lhs_sizes = {4};
  cfg.seed = 21;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.01;
  popts.seed = 5;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  EncodedInstance enc(dirty.data);
  DistinctCountWeight w(enc);
  FdSearchContext ctx(dirty.fds, enc, w);
  int64_t root_dp = ctx.RootDeltaP();
  for (double tr : {0.1, 0.3, 0.6}) {
    int64_t tau = static_cast<int64_t>(tr * root_dp);
    ModifyFdsOptions astar, bf;
    astar.mode = SearchMode::kAStar;
    bf.mode = SearchMode::kBestFirst;
    ModifyFdsResult ra = ModifyFds(ctx, tau, astar);
    ModifyFdsResult rb = ModifyFds(ctx, tau, bf);
    ASSERT_EQ(ra.repair.has_value(), rb.repair.has_value());
    if (ra.repair.has_value()) {
      EXPECT_NEAR(ra.repair->distc, rb.repair->distc, 1e-6)
          << "tau=" << tau;
      EXPECT_LE(ra.stats.states_visited, rb.stats.states_visited * 2);
    }
  }
}

TEST(ModifyFds, TieBreakPrefersSmallerDeltaP) {
  // Employees example (paper Example 1): at tau between the two
  // single-attribute goals, the tie on distc breaks toward smaller δP
  // (closer to the data) — Phone (δP = 0) over BirthDate (δP = 2).
  Instance inst(Schema::FromNames(
      {"GivenName", "Surname", "BirthDate", "Gender", "Phone", "Income"}));
  auto add = [&](const char* g, const char* s, const char* b,
                 const char* ge, const char* p, const char* i) {
    inst.AddTuple(
        {Value(g), Value(s), Value(b), Value(ge), Value(p), Value(i)});
  };
  add("Jack", "White", "d1", "M", "p1", "60k");
  add("Danielle", "Blake", "d2", "F", "p2", "120k");
  add("Danielle", "Blake", "d2", "F", "p3", "100k");
  add("Hong", "Li", "d3", "F", "p4", "90k");
  add("Hong", "Li", "d4", "F", "p5", "84k");
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"Surname,GivenName->Income"}, inst.schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  ModifyFdsResult r = ModifyFds(ctx, /*tau=*/2);
  ASSERT_TRUE(r.repair.has_value());
  EXPECT_EQ(r.repair->distc, 1.0);
  // Phone resolves everything: δP must be 0.
  EXPECT_EQ(r.repair->delta_p, 0);
  EXPECT_TRUE(
      r.repair->sigma_prime.fd(0).lhs.Contains(inst.schema().Find("Phone")));
}

TEST(ModifyFds, MaxVisitedCapStopsSearch) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  ModifyFdsOptions opts;
  opts.mode = SearchMode::kBestFirst;
  opts.max_visited = 1;
  FdSearchContext ctx(sigma, enc, w);
  ModifyFdsResult r = ModifyFds(ctx, 0, opts);
  EXPECT_LE(r.stats.states_visited, 2);
}

TEST(ModifyFds, EmptySigmaTriviallyRepaired) {
  EncodedInstance enc(Fig2());
  CardinalityWeight w;
  FdSearchContext ctx(FDSet(), enc, w);
  ModifyFdsResult r = ModifyFds(ctx, 0);
  ASSERT_TRUE(r.repair.has_value());
  EXPECT_EQ(r.repair->distc, 0.0);
  EXPECT_EQ(r.repair->delta_p, 0);
}

TEST(ModifyFds, StatsArePopulated) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  ModifyFdsResult r = ModifyFds(ctx, 2);
  EXPECT_GT(r.stats.states_visited, 0);
  EXPECT_GT(r.stats.states_generated, 0);
  EXPECT_GE(r.stats.seconds, 0.0);
}

}  // namespace
}  // namespace retrust
