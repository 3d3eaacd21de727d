#include "src/repair/multi_repair.h"

#include <gtest/gtest.h>

#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/repair/repair_driver.h"

namespace retrust {
namespace {

struct Workload {
  Instance instance;
  FDSet sigma;
  EncodedInstance encoded;
};

Workload MakeWorkload(uint64_t seed) {
  CensusConfig cfg;
  cfg.num_tuples = 400;
  cfg.num_attrs = 10;
  cfg.planted_lhs_sizes = {4};
  cfg.seed = seed;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.02;
  popts.seed = seed + 1;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  Workload w;
  w.instance = dirty.data;
  w.sigma = dirty.fds;
  w.encoded = EncodedInstance(w.instance);
  return w;
}

TEST(MultiRepair, RangeRepairCoversWholeRange) {
  Workload wl = MakeWorkload(51);
  DistinctCountWeight w(wl.encoded);
  FdSearchContext ctx(wl.sigma, wl.encoded, w);
  int64_t root = ctx.RootDeltaP();
  MultiRepairResult multi = FindRepairsFds(ctx, 0, root);
  ASSERT_FALSE(multi.repairs.empty());
  // First repair covers tau_hi = root; ranges descend and abut:
  // next.tau_hi == current.tau_lo - 1.
  EXPECT_EQ(multi.repairs.front().tau_hi, root);
  for (size_t i = 0; i < multi.repairs.size(); ++i) {
    const RangedFdRepair& r = multi.repairs[i];
    EXPECT_LE(r.tau_lo, r.tau_hi);
    EXPECT_EQ(r.tau_lo, r.repair.delta_p);
    if (i + 1 < multi.repairs.size()) {
      EXPECT_EQ(multi.repairs[i + 1].tau_hi, r.tau_lo - 1);
    }
  }
}

TEST(MultiRepair, RangeMatchesIndependentSearches) {
  // Every tau in the range must get the same optimal distc from Algorithm 6
  // as from an independent Algorithm 2 run.
  Workload wl = MakeWorkload(52);
  DistinctCountWeight w(wl.encoded);
  FdSearchContext ctx(wl.sigma, wl.encoded, w);
  int64_t root = ctx.RootDeltaP();
  MultiRepairResult multi = FindRepairsFds(ctx, 0, root);
  for (const RangedFdRepair& r : multi.repairs) {
    for (int64_t tau : {r.tau_lo, r.tau_hi}) {
      ModifyFdsResult single = ModifyFds(ctx, tau);
      ASSERT_TRUE(single.repair.has_value()) << "tau=" << tau;
      EXPECT_NEAR(single.repair->distc, r.repair.distc, 1e-6)
          << "tau=" << tau;
    }
  }
}

TEST(MultiRepair, CostsDecreaseWithLargerTau) {
  // Along the frontier: larger tau (more data trust) => cheaper FD repair.
  Workload wl = MakeWorkload(53);
  DistinctCountWeight w(wl.encoded);
  FdSearchContext ctx(wl.sigma, wl.encoded, w);
  MultiRepairResult multi = FindRepairsFds(ctx, 0, ctx.RootDeltaP());
  for (size_t i = 0; i + 1 < multi.repairs.size(); ++i) {
    // repairs are ordered by descending tau_hi.
    EXPECT_LE(multi.repairs[i].repair.distc,
              multi.repairs[i + 1].repair.distc + 1e-9);
    EXPECT_GT(multi.repairs[i].repair.delta_p,
              multi.repairs[i + 1].repair.delta_p);
  }
}

TEST(MultiRepair, SamplingFindsSubsetOfRangeRepairs) {
  Workload wl = MakeWorkload(54);
  DistinctCountWeight w(wl.encoded);
  FdSearchContext ctx(wl.sigma, wl.encoded, w);
  int64_t root = ctx.RootDeltaP();
  MultiRepairResult range = FindRepairsFds(ctx, 0, root);
  MultiRepairResult sample = SamplingRepairs(ctx, 0, root, root / 7 + 1);
  EXPECT_LE(sample.repairs.size(), range.repairs.size());
  // Every sampled repair cost appears on the range frontier.
  for (const RangedFdRepair& s : sample.repairs) {
    bool found = false;
    for (const RangedFdRepair& r : range.repairs) {
      if (std::abs(r.repair.distc - s.repair.distc) < 1e-9) found = true;
    }
    EXPECT_TRUE(found) << "sampled repair missing from range frontier";
  }
}

TEST(MultiRepair, SamplingWithStepOneFindsEverything) {
  Workload wl = MakeWorkload(55);
  DistinctCountWeight w(wl.encoded);
  FdSearchContext ctx(wl.sigma, wl.encoded, w);
  int64_t root = std::min<int64_t>(ctx.RootDeltaP(), 60);
  MultiRepairResult range = FindRepairsFds(ctx, 0, root);
  MultiRepairResult sample = SamplingRepairs(ctx, 0, root, 1);
  // Same frontier (deduplicated), up to tie-breaking among equal-cost
  // states: compare the multisets of distc values.
  std::vector<double> a, b;
  for (const auto& r : range.repairs) a.push_back(r.repair.distc);
  for (const auto& r : sample.repairs) b.push_back(r.repair.distc);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(MultiRepair, EmptyRangeWhenTauLoExceedsTauHi) {
  Workload wl = MakeWorkload(56);
  DistinctCountWeight w(wl.encoded);
  FdSearchContext ctx(wl.sigma, wl.encoded, w);
  MultiRepairResult multi = FindRepairsFds(ctx, 100, 50);
  EXPECT_TRUE(multi.repairs.empty());
}

}  // namespace
}  // namespace retrust
