// Cross-variant checks: best-first vs A* in the range scan, the paper's
// strict Algorithm-3 boundary rule, heuristic budgets, and max-degree
// covers — the configurations the ablation bench sweeps.

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/repair/multi_repair.h"
#include "src/repair/repair_driver.h"

namespace retrust {
namespace {

struct Workload {
  Instance dirty;
  FDSet sigma;
  EncodedInstance enc;
};

Workload Make(uint64_t seed) {
  CensusConfig cfg;
  cfg.num_tuples = 350;
  cfg.num_attrs = 10;
  cfg.planted_lhs_sizes = {4};
  cfg.seed = seed;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.02;
  popts.seed = seed + 1;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  return {dirty.data, dirty.fds, EncodedInstance(dirty.data)};
}

TEST(SearchVariants, RangeScanModesAgreeOnFrontierCosts) {
  Workload wl = Make(91);
  DistinctCountWeight w(wl.enc);
  FdSearchContext ctx(wl.sigma, wl.enc, w);
  int64_t root = ctx.RootDeltaP();
  MultiRepairResult a = FindRepairsFds(ctx, 0, root, SearchMode::kAStar);
  MultiRepairResult b = FindRepairsFds(ctx, 0, root, SearchMode::kBestFirst);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_NEAR(a.repairs[i].repair.distc, b.repairs[i].repair.distc, 1e-6);
    EXPECT_EQ(a.repairs[i].repair.delta_p, b.repairs[i].repair.delta_p);
  }
}

TEST(SearchVariants, HeuristicBudgetsAgreeOnOptimum) {
  Workload wl = Make(92);
  DistinctCountWeight w(wl.enc);
  int64_t tau = 0;
  {
    FdSearchContext probe(wl.sigma, wl.enc, w);
    tau = probe.RootDeltaP() / 4;
  }
  double reference = -1;
  for (int budget : {1, 2, 4, 8}) {
    HeuristicOptions hopts;
    hopts.max_diffsets = budget;
    FdSearchContext ctx(wl.sigma, wl.enc, w, hopts);
    ModifyFdsResult r = ModifyFds(ctx, tau);
    ASSERT_TRUE(r.repair.has_value()) << "budget " << budget;
    if (reference < 0) {
      reference = r.repair->distc;
    } else {
      EXPECT_NEAR(r.repair->distc, reference, 1e-6)
          << "optimality must be budget-independent (budget " << budget
          << ")";
    }
  }
}

TEST(SearchVariants, StrictBoundaryRuleStillFindsValidRepairs) {
  // The paper's literal '<' rule may overestimate gc at the δP = τ
  // boundary; the search then possibly returns a costlier (but still
  // valid) repair. It must never return an invalid one.
  Workload wl = Make(93);
  DistinctCountWeight w(wl.enc);
  HeuristicOptions strict;
  strict.strict_leave_check = true;
  FdSearchContext ctx_strict(wl.sigma, wl.enc, w, strict);
  FdSearchContext ctx_default(wl.sigma, wl.enc, w);
  int64_t root = ctx_default.RootDeltaP();
  for (double tr : {0.25, 0.75}) {
    int64_t tau = static_cast<int64_t>(tr * root);
    ModifyFdsResult rs = ModifyFds(ctx_strict, tau);
    ModifyFdsResult rd = ModifyFds(ctx_default, tau);
    ASSERT_TRUE(rd.repair.has_value());
    if (rs.repair.has_value()) {
      EXPECT_LE(rs.repair->delta_p, tau);
      EXPECT_GE(rs.repair->distc, rd.repair->distc - 1e-9);
    }
  }
}

TEST(SearchVariants, DuplicateFdsInSigma) {
  // Figure 11 replicates an FD to grow |Σ|; every component must cope
  // with duplicates (the paper explicitly allows |Σ'| duplicates).
  Workload wl = Make(94);
  std::vector<FD> fds = {wl.sigma.fd(0), wl.sigma.fd(0)};
  FDSet sigma(fds);
  DistinctCountWeight w(wl.enc);
  FdSearchContext ctx(sigma, wl.enc, w);
  int64_t root = ctx.RootDeltaP();
  auto repair = RunRepair(ctx, wl.enc, root).repair;
  ASSERT_TRUE(repair.has_value());
  EXPECT_TRUE(Satisfies(repair->data, repair->sigma_prime));
  // And at a mid trust level.
  auto mid = RunRepair(ctx, wl.enc, root / 2).repair;
  if (mid.has_value()) {
    EXPECT_TRUE(Satisfies(mid->data, mid->sigma_prime));
    EXPECT_LE(static_cast<int64_t>(mid->changed_cells.size()), root / 2);
  }
}

}  // namespace
}  // namespace retrust
