#include "src/eval/experiment.h"

#include <gtest/gtest.h>

namespace retrust {
namespace {

ExperimentData Prepare(double fd_err, double data_err,
                       WeightModel wk = WeightModel::kDistinctCount) {
  CensusConfig gen;
  gen.num_tuples = 500;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes = {5};
  gen.seed = 71;
  PerturbOptions perturb;
  perturb.fd_error_rate = fd_err;
  perturb.data_error_rate = data_err;
  perturb.seed = 72;
  return PrepareExperiment(gen, perturb, wk);
}

TEST(Experiment, PrepareWiresEverything) {
  ExperimentData data = Prepare(0.4, 0.02);
  EXPECT_EQ(data.encoded().NumTuples(), 500);
  EXPECT_GT(data.root_delta_p, 0);
  ASSERT_NE(data.session, nullptr);
  EXPECT_EQ(data.session->RootDeltaP(), data.root_delta_p);
  EXPECT_FALSE(data.dirty.perturbed_cells.empty());
  EXPECT_GT(data.dirty.removed_lhs[0].Count(), 0);
}

TEST(Experiment, FullTrustInFdsRepairsData) {
  // Data-errors only; tau = 100% lets the algorithm keep Σ and fix cells.
  ExperimentData data = Prepare(0.0, 0.03);
  ExperimentRun run = RunRepairAt(data, 1.0);
  ASSERT_TRUE(run.repaired);
  EXPECT_EQ(run.distc, 0.0);                  // FDs untouched
  EXPECT_GT(run.cells_changed, 0);
  EXPECT_DOUBLE_EQ(run.quality.fd.precision, 1.0);
  EXPECT_DOUBLE_EQ(run.quality.fd.recall, 1.0);  // nothing was removed
}

TEST(Experiment, FullTrustInDataRepairsFds) {
  // FD-errors only; tau = 0 forbids cell changes.
  ExperimentData data = Prepare(0.4, 0.0);
  ExperimentRun run = RunRepairAt(data, 0.0);
  ASSERT_TRUE(run.repaired);
  EXPECT_EQ(run.cells_changed, 0);
  EXPECT_GT(run.distc, 0.0);
  // The appended attributes are exactly the removed ones (high precision
  // workload: the removed attrs are the cheapest way to re-separate).
  EXPECT_GT(run.quality.fd.recall, 0.0);
}

TEST(Experiment, QualityScoresWithinRange) {
  ExperimentData data = Prepare(0.4, 0.02);
  for (double tr : {0.0, 0.5, 1.0}) {
    ExperimentRun run = RunRepairAt(data, tr);
    if (!run.repaired) continue;
    for (double v :
         {run.quality.data.precision, run.quality.data.recall,
          run.quality.fd.precision, run.quality.fd.recall,
          run.quality.CombinedF()}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Experiment, UnifiedCostRuns) {
  ExperimentData data = Prepare(0.4, 0.02);
  ExperimentRun run = RunUnifiedCost(data);
  EXPECT_TRUE(run.repaired);
  ASSERT_TRUE(run.repair.has_value());
  EXPECT_TRUE(Satisfies(run.repair->data, run.repair->sigma_prime));
}

TEST(Experiment, WeightKindsAllWork) {
  for (WeightModel wk : {WeightModel::kDistinctCount, WeightModel::kCardinality,
                        WeightModel::kEntropy}) {
    ExperimentData data = Prepare(0.4, 0.0, wk);
    ExperimentRun run = RunRepairAt(data, 0.5);
    EXPECT_TRUE(run.repaired);
  }
}

TEST(Experiment, ModesAgreeOnCost) {
  ExperimentData data = Prepare(0.4, 0.01);
  ExperimentRun a = RunRepairAt(data, 0.3, SearchMode::kAStar);
  ExperimentRun b = RunRepairAt(data, 0.3, SearchMode::kBestFirst);
  ASSERT_EQ(a.repaired, b.repaired);
  if (a.repaired) {
    EXPECT_NEAR(a.distc, b.distc, 1e-6);
  }
}

}  // namespace
}  // namespace retrust
