#include "src/repair/repair_driver.h"

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

TEST(RepairDriver, RepairSatisfiesSigmaPrimeAndTau) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  for (int64_t tau : {0, 2, 4, 100}) {
    auto repair = RunRepair(ctx, enc, tau).repair;
    ASSERT_TRUE(repair.has_value()) << "tau=" << tau;
    EXPECT_TRUE(Satisfies(repair->data, repair->sigma_prime));
    // Theorem 2 consistency: actual cell changes bounded by tau.
    EXPECT_LE(static_cast<int64_t>(repair->changed_cells.size()), tau)
        << "tau=" << tau;
    // Σ' is a positional LHS extension of Σ.
    auto ext = sigma.ExtensionsTo(repair->sigma_prime);
    EXPECT_EQ(ext, repair->extensions);
  }
}

TEST(RepairDriver, NoRepairPropagates) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  EXPECT_FALSE(RunRepair(ctx, enc, 0).repair.has_value());
  // δopt is 1, but the PTIME bound is δP = α·|C2opt| = 1·2 = 2: the
  // P-approximate driver needs tau >= 2 (Definition 5's approximation).
  EXPECT_FALSE(RunRepair(ctx, enc, 1).repair.has_value());
  auto repair = RunRepair(ctx, enc, 2).repair;
  ASSERT_TRUE(repair.has_value());
  EXPECT_LE(repair->changed_cells.size(), 2u);
  EXPECT_GE(repair->changed_cells.size(), 1u);
  EXPECT_TRUE(Satisfies(repair->data, repair->sigma_prime));
}

TEST(RepairDriver, DeterministicGivenSeed) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  CardinalityWeight w;
  RepairOptions opts;
  opts.seed = 99;
  // Two contexts: the context build is part of what must be deterministic.
  FdSearchContext ctx1(sigma, enc, w);
  FdSearchContext ctx2(sigma, enc, w);
  auto r1 = RunRepair(ctx1, enc, 4, opts).repair;
  auto r2 = RunRepair(ctx2, enc, 4, opts).repair;
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_EQ(r1->data.DistdTo(r2->data), 0);
  EXPECT_EQ(r1->changed_cells.size(), r2->changed_cells.size());
  EXPECT_TRUE(r1->sigma_prime == r2->sigma_prime);
}

TEST(RepairDriver, TauFromRelative) {
  EXPECT_EQ(TauFromRelative(0.0, 100), 0);
  EXPECT_EQ(TauFromRelative(1.0, 100), 100);
  EXPECT_EQ(TauFromRelative(0.5, 100), 50);
  EXPECT_EQ(TauFromRelative(0.17, 100), 17);
  // Clamped.
  EXPECT_EQ(TauFromRelative(-0.2, 100), 0);
  EXPECT_EQ(TauFromRelative(1.7, 100), 100);
}

// Pareto property (Theorem 1 flavor): sweeping tau yields repairs whose
// (distc, cells-changed) pairs are mutually non-dominated.
TEST(RepairDriver, SweepYieldsNonDominatedRepairs) {
  CensusConfig cfg;
  cfg.num_tuples = 400;
  cfg.num_attrs = 10;
  cfg.planted_lhs_sizes = {4};
  cfg.seed = 31;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.02;
  popts.seed = 6;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  EncodedInstance enc(dirty.data);
  DistinctCountWeight w(enc);
  FdSearchContext ctx(dirty.fds, enc, w);
  int64_t root = ctx.RootDeltaP();

  struct Point {
    double distc;
    int64_t delta_p;
  };
  std::vector<Point> points;
  for (double tr : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto repair = RunRepair(ctx, enc, TauFromRelative(tr, root)).repair;
    if (repair.has_value()) {
      points.push_back({repair->distc, repair->delta_p});
    }
  }
  ASSERT_GE(points.size(), 2u);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      bool dominates = points[i].distc <= points[j].distc &&
                       points[i].delta_p <= points[j].delta_p &&
                       (points[i].distc < points[j].distc ||
                        points[i].delta_p < points[j].delta_p);
      EXPECT_FALSE(dominates)
          << "repair " << i << " dominates repair " << j;
    }
  }
}

}  // namespace
}  // namespace retrust
