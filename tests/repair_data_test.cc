#include "src/repair/repair_data.h"

#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/exec/sweep.h"
#include "src/fd/conflict_graph.h"
#include "src/fd/violation.h"
#include "src/graph/vertex_cover.h"
#include "src/repair/repair_driver.h"

namespace retrust {
namespace {

Instance Fig6() {
  // Figure 6's instance (same as Figure 2).
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

TEST(RepairData, OutputSatisfiesSigmaPrime) {
  EncodedInstance enc(Fig6());
  // Figure 6 repairs under Σ' = {CA->B, C->D}.
  FDSet sigma = FDSet::Parse({"C,A->B", "C->D"}, Fig6().schema());
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    DataRepairResult r = RepairData(enc, sigma, &rng);
    EXPECT_TRUE(Satisfies(r.repaired, sigma)) << "seed " << seed;
    EXPECT_LE(static_cast<int64_t>(r.changed_cells.size()),
              r.change_bound);
  }
}

TEST(RepairData, NoChangesWhenAlreadyConsistent) {
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A,B->C"}, Fig6().schema());
  Rng rng(1);
  DataRepairResult r = RepairData(enc, sigma, &rng);
  EXPECT_TRUE(r.changed_cells.empty());
  EXPECT_EQ(r.cover_size, 0);
  EXPECT_EQ(enc.DistdTo(r.repaired), 0);
}

TEST(RepairData, OnlyCoverTuplesChange) {
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig6().schema());
  ConflictGraph cg = BuildConflictGraph(enc, sigma);
  auto cover = GreedyVertexCover(cg.graph);
  std::vector<char> in_cover(enc.NumTuples(), 0);
  for (int32_t t : cover) in_cover[t] = 1;
  Rng rng(3);
  DataRepairResult r = RepairData(enc, sigma, &rng);
  for (const CellRef& c : r.changed_cells) {
    EXPECT_TRUE(in_cover[c.tuple])
        << "changed non-cover tuple t" << c.tuple;
  }
}

TEST(RepairData, GroundedRepairStillSatisfies) {
  // V-instance semantics: instantiating the variables with fresh values
  // must preserve satisfaction.
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig6().schema());
  Rng rng(7);
  DataRepairResult r = RepairData(enc, sigma, &rng);
  Instance grounded = r.repaired.Decode().Ground();
  EncodedInstance genc(grounded);
  EXPECT_TRUE(Satisfies(genc, sigma));
}

TEST(RepairData, PerTupleChangesBoundedByAlpha) {
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig6().schema());
  int64_t per_tuple = std::min<int64_t>(enc.NumAttrs() - 1, sigma.size());
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    DataRepairResult r = RepairData(enc, sigma, &rng);
    std::vector<int> changes_per_tuple(enc.NumTuples(), 0);
    for (const CellRef& c : r.changed_cells) ++changes_per_tuple[c.tuple];
    for (int c : changes_per_tuple) {
      EXPECT_LE(c, per_tuple) << "seed " << seed;
    }
  }
}

TEST(FindAssignment, ForcesRhsFromCleanWitness) {
  // Clean tuple (1, x); repairing t1 = (1, y) with A fixed forces B = x.
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex clean(enc, sigma);
  clean.Insert(enc, 0);
  auto tc = internal::FindAssignment(&enc, 1, AttrSet{0}, sigma, clean);
  ASSERT_TRUE(tc.has_value());
  EXPECT_EQ((*tc)[0], enc.At(1, 0));
  EXPECT_EQ((*tc)[1], enc.At(0, 1));  // forced to the witness's B
}

TEST(FindAssignment, FailsWhenForcedValueConflictsWithFixed) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex clean(enc, sigma);
  clean.Insert(enc, 0);
  // Both cells fixed: B is pinned to y but the clean witness forces x.
  auto tc = internal::FindAssignment(&enc, 1, AttrSet{0, 1}, sigma, clean);
  EXPECT_FALSE(tc.has_value());
}

TEST(FindAssignment, FreshVariablesAvoidSpuriousMatches) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("2"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex clean(enc, sigma);
  clean.Insert(enc, 0);
  // Only B fixed: A becomes a fresh variable that matches no clean key.
  auto tc = internal::FindAssignment(&enc, 1, AttrSet{1}, sigma, clean);
  ASSERT_TRUE(tc.has_value());
  EXPECT_TRUE(IsVariableCode((*tc)[0]));
  EXPECT_EQ((*tc)[1], enc.At(1, 1));
}

TEST(FindAssignment, ChasesTransitiveFds) {
  // Σ' = {A->B, B->C}; fixing A forces B, which forces C.
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  inst.AddTuple({Value("1"), Value("b"), Value("c")});
  inst.AddTuple({Value("1"), Value("z"), Value("w")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B", "B->C"}, inst.schema());
  internal::CleanIndex clean(enc, sigma);
  clean.Insert(enc, 0);
  auto tc = internal::FindAssignment(&enc, 1, AttrSet{0}, sigma, clean);
  ASSERT_TRUE(tc.has_value());
  EXPECT_EQ((*tc)[1], enc.At(0, 1));
  EXPECT_EQ((*tc)[2], enc.At(0, 2));
}

// Property sweep: on perturbed census workloads, the repair always
// satisfies Σ' and respects the Theorem 3 change bound.
class RepairDataProperty : public ::testing::TestWithParam<int> {};

TEST_P(RepairDataProperty, SatisfiesAndBounded) {
  CensusConfig cfg;
  cfg.num_tuples = 300;
  cfg.num_attrs = 8;
  cfg.planted_lhs_sizes = {3};
  cfg.seed = static_cast<uint64_t>(GetParam()) * 13 + 1;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.34;
  popts.data_error_rate = 0.03;
  popts.seed = static_cast<uint64_t>(GetParam()) * 7 + 2;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  EncodedInstance enc(dirty.data);
  Rng rng(static_cast<uint64_t>(GetParam()));
  DataRepairResult r = RepairData(enc, dirty.fds, &rng);
  EXPECT_TRUE(Satisfies(r.repaired, dirty.fds));
  EXPECT_LE(static_cast<int64_t>(r.changed_cells.size()), r.change_bound);
  // Cells not reported as changed are truly unchanged.
  int diff = enc.DistdTo(r.repaired);
  EXPECT_EQ(diff, static_cast<int>(r.changed_cells.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairDataProperty, ::testing::Range(0, 12));

// --- Context front door == standalone oracle -------------------------------
//
// RunRepair reads Algorithm 4's cover from the search context (the goal
// state's violated groups of Σ's index); the standalone RepairData builds
// the Σ' index from scratch. With the same seed both must produce the same
// I', the same changed cells, the same cover and the same change bound.

/// The τ grid every comparison runs: both endpoints plus interior points.
constexpr double kTauGrid[] = {0.0, 0.25, 0.5, 0.75, 1.0};

PerturbedData CensusWorkload(int seed, int num_tuples = 300) {
  CensusConfig cfg;
  cfg.num_tuples = num_tuples;
  cfg.num_attrs = 8;
  cfg.planted_lhs_sizes = {3, 2};
  cfg.seed = static_cast<uint64_t>(seed) * 31 + 5;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.04;
  popts.seed = static_cast<uint64_t>(seed) * 17 + 3;
  return Perturb(data.instance, data.planted_fds, popts);
}

/// Compares one context-path repair against the standalone oracle.
void ExpectMatchesStandalone(const FdSearchContext& ctx,
                             const EncodedInstance& inst, const Repair& got,
                             uint64_t seed, const std::string& label) {
  Rng oracle_rng(seed);
  DataRepairResult want = RepairData(inst, got.sigma_prime, &oracle_rng);
  EXPECT_EQ(got.data.NumTuples(), want.repaired.NumTuples()) << label;
  EXPECT_TRUE(got.data.DiffCells(want.repaired).empty()) << label;
  EXPECT_EQ(got.changed_cells, want.changed_cells) << label;
  EXPECT_EQ(want.cover_size * ctx.alpha(), got.delta_p) << label;

  // The context front door itself, for the fields Repair does not carry.
  Rng ctx_rng(seed);
  DataRepairResult direct =
      RepairData(ctx, inst, SearchState(got.extensions), &ctx_rng);
  EXPECT_EQ(direct.cover_size, want.cover_size) << label;
  EXPECT_EQ(direct.change_bound, want.change_bound) << label;
  EXPECT_EQ(direct.changed_cells, want.changed_cells) << label;
}

/// Runs RunRepair over the τ grid and checks every repair against the
/// oracle. Returns how many grid points produced a repair.
int ExpectGridMatchesStandalone(const FdSearchContext& ctx,
                                const EncodedInstance& inst, int threads,
                                const std::string& label) {
  int repaired = 0;
  const int64_t root = ctx.RootDeltaP();
  for (double tau_r : kTauGrid) {
    RepairOptions opts;
    opts.search.exec.num_threads = threads;
    opts.seed = static_cast<uint64_t>(tau_r * 100) + 11;
    RepairOutcome outcome =
        RunRepair(ctx, inst, TauFromRelative(tau_r, root), opts);
    if (!outcome.repair.has_value()) continue;
    ++repaired;
    ExpectMatchesStandalone(ctx, inst, *outcome.repair, opts.seed,
                            label + " tau_r=" + std::to_string(tau_r));
  }
  return repaired;
}

class ContextRepairOracle : public ::testing::TestWithParam<int> {};

TEST_P(ContextRepairOracle, RunRepairMatchesStandaloneAtEveryThreadCount) {
  PerturbedData dirty = CensusWorkload(GetParam());
  EncodedInstance enc(dirty.data);
  CardinalityWeight weights;
  for (int threads : {1, 2, 4, 8}) {
    exec::Options eopts;
    eopts.num_threads = threads;
    FdSearchContext ctx(dirty.fds, enc, weights, {}, eopts);
    EXPECT_GT(ExpectGridMatchesStandalone(
                  ctx, enc, threads, "threads=" + std::to_string(threads)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextRepairOracle, ::testing::Range(0, 4));

TEST(ContextRepairOracleCases, SweepBatchMatchesStandalone) {
  PerturbedData dirty = CensusWorkload(7);
  EncodedInstance enc(dirty.data);
  CardinalityWeight weights;
  FdSearchContext ctx(dirty.fds, enc, weights);
  exec::Sweep sweep(ctx, enc, exec::Options{4});
  std::vector<exec::SweepJob> jobs;
  for (double tau_r : kTauGrid) {
    exec::SweepJob job;
    job.tau = TauFromRelative(tau_r, ctx.RootDeltaP());
    job.opts.seed = static_cast<uint64_t>(tau_r * 100) + 3;
    jobs.push_back(job);
  }
  std::vector<exec::SweepOutcome> outcomes = sweep.RunRepairs(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  int repaired = 0;
  for (size_t j = 0; j < outcomes.size(); ++j) {
    if (!outcomes[j].repair.has_value()) continue;
    ++repaired;
    ExpectMatchesStandalone(ctx, enc, *outcomes[j].repair, jobs[j].opts.seed,
                            "job " + std::to_string(j));
  }
  EXPECT_GT(repaired, 0);
}

// Session::Apply patches the context's index in place; the patched index
// must serve Algorithm 4 exactly as a fresh Σ' build over the mutated data.
TEST(ContextRepairOracleCases, PatchedContextAfterApplyMatchesStandalone) {
  PerturbedData dirty = CensusWorkload(3, 200);
  Result<Session> session = Session::Open(dirty.data, dirty.fds);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_GT(session->RootDeltaP(), 0);  // build the context before the delta
  DeltaBatch delta;
  delta.Insert(dirty.data.row(0)).Insert(dirty.data.row(9));
  delta.Update(4, 2, dirty.data.At(12, 2));
  delta.Update(20, 5, dirty.data.At(30, 5));
  delta.Delete(7);
  ASSERT_TRUE(session->Apply(delta).ok());
  EXPECT_GT(ExpectGridMatchesStandalone(session->context(), session->data(),
                                        1, "post-apply"),
            0);
}

// A snapshot restore adopts the saved index instead of rebuilding it.
TEST(ContextRepairOracleCases, RestoredContextMatchesStandalone) {
  PerturbedData dirty = CensusWorkload(5, 200);
  Result<Session> original = Session::Open(dirty.data, dirty.fds);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = testing::TempDir() + "/repair_data_test." +
                           info->test_suite_name() + "." + info->name() +
                           ".snap";
  std::remove(path.c_str());
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  Result<Session> restored = Session::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(ExpectGridMatchesStandalone(restored->context(), restored->data(),
                                        1, "restored"),
            0);
}

// Σ with an empty-LHS FD: pairs disagreeing everywhere are conflict edges,
// carried by the index as the universe group. Algorithm 5 cannot always
// complete a tuple here (when the empty-LHS FD's RHS is the first attribute
// fixed and the clean set forces another value), so a seed the oracle
// throws on must throw through the context path too.
TEST(ContextRepairOracleCases, EmptyLhsSigmaMatchesStandalone) {
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 0});
  sigma.Add(FD{AttrSet{0}, 1});
  CardinalityWeight weights;
  std::mt19937_64 gen(0x5eed);
  int universe_group_repairs = 0;
  for (int round = 0; round < 4; ++round) {
    // A is constant but for two tuples and B, C are scattered, so most
    // A-conflicts disagree everywhere: the universe group leads the order.
    Instance inst(Schema::FromNames({"A", "B", "C"}));
    std::uniform_int_distribution<int> value(0, 8 + round);
    for (int t = 0; t < 24; ++t) {
      inst.AddTuple({Value(t % 11 == 5 ? std::to_string(t) : "0"),
                     Value(std::to_string(value(gen))),
                     Value(std::to_string(value(gen)))});
    }
    EncodedInstance enc(inst);
    FdSearchContext ctx(sigma, enc, weights);
    for (double tau_r : kTauGrid) {
      const int64_t tau = TauFromRelative(tau_r, ctx.RootDeltaP());
      ModifyFdsResult search = ModifyFds(ctx, tau);
      if (!search.repair.has_value()) continue;
      // The empty LHS survives in Σ', so the universe group is in the cover.
      const bool universe = search.repair->state.ext[0].Empty();
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        const std::string label = "round " + std::to_string(round) +
                                  " tau_r=" + std::to_string(tau_r) +
                                  " seed=" + std::to_string(seed);
        RepairOptions opts;
        opts.seed = seed;
        Rng oracle_rng(seed);
        bool oracle_threw = false;
        try {
          RepairData(enc, search.repair->sigma_prime, &oracle_rng);
        } catch (const std::logic_error&) {
          oracle_threw = true;
        }
        if (oracle_threw) {
          EXPECT_THROW(RunRepair(ctx, enc, tau, opts), std::logic_error)
              << label;
          continue;
        }
        RepairOutcome outcome = RunRepair(ctx, enc, tau, opts);
        ASSERT_TRUE(outcome.repair.has_value()) << label;
        ExpectMatchesStandalone(ctx, enc, *outcome.repair, seed, label);
        if (universe) ++universe_group_repairs;
      }
    }
  }
  EXPECT_GT(universe_group_repairs, 0);
}

}  // namespace
}  // namespace retrust
