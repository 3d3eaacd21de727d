// The exec/ determinism contract: every parallel code path produces output
// BIT-IDENTICAL to serial execution for any thread count — sharded
// violation detection, speculative successor evaluation in ModifyFds, and
// whole repairs through RepairDataAndFds, on a generated instance.

#include <string>

#include <gtest/gtest.h>

#include "src/eval/experiment.h"
#include "src/exec/sweep.h"

namespace retrust {
namespace {

ExperimentData MakeData(int num_tuples = 400) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes = {4};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = 7;
  return PrepareExperiment(gen, perturb);
}

// Full structural fingerprint of a Repair; two repairs with equal
// fingerprints are byte-identical for every field the API exposes.
std::string Fingerprint(const std::optional<Repair>& repair,
                        const Schema& schema) {
  if (!repair.has_value()) return "(none)";
  std::string fp = repair->sigma_prime.ToString(schema);
  fp += "|distc=" + std::to_string(repair->distc);
  fp += "|deltaP=" + std::to_string(repair->delta_p);
  for (const AttrSet& ext : repair->extensions) {
    fp += "|" + ext.ToString();
  }
  fp += "|cells:";
  for (const CellRef& c : repair->changed_cells) {
    fp += std::to_string(c.tuple) + "," + std::to_string(c.attr) + ";";
  }
  fp += "|data:" + repair->data.Decode().ToTable();
  return fp;
}

TEST(ExecDeterminism, ViolationDetectionShardedBitIdentical) {
  ExperimentData data = MakeData();
  ConflictGraph serial = BuildConflictGraph(data.encoded(), data.dirty.fds);
  DifferenceSetIndex serial_index = BuildDifferenceSetIndex(
      data.encoded(), data.dirty.fds, {}, DiffSetBuildMode::kNaive);
  for (int threads : {2, 3, 8}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({threads});
    ASSERT_NE(pool, nullptr);
    ConflictGraph sharded =
        BuildConflictGraph(data.encoded(), data.dirty.fds, pool.get());
    EXPECT_EQ(sharded.graph.edges(), serial.graph.edges()) << threads;
    EXPECT_EQ(sharded.edge_fd_mask, serial.edge_fd_mask) << threads;

    DifferenceSetIndex index = BuildDifferenceSetIndex(
        data.encoded(), data.dirty.fds, {threads}, DiffSetBuildMode::kNaive);
    ASSERT_EQ(index.size(), serial_index.size()) << threads;
    for (int g = 0; g < index.size(); ++g) {
      EXPECT_EQ(index.group(g).diff, serial_index.group(g).diff) << threads;
      EXPECT_EQ(index.group(g).edges, serial_index.group(g).edges) << threads;
    }
  }
}

TEST(ExecDeterminism, ViolatingPairsShardedBitIdentical) {
  ExperimentData data = MakeData();
  for (const FD& fd : data.dirty.fds.fds()) {
    std::vector<Edge> serial = ViolatingPairs(data.encoded(), fd);
    for (int threads : {2, 8}) {
      std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({threads});
      EXPECT_EQ(ViolatingPairs(data.encoded(), fd, pool.get()), serial)
          << fd.ToString() << " at " << threads << " threads";
    }
  }
}

// The acceptance-criteria test: RepairDataAndFds output is byte-identical
// at 1, 2, and 8 threads, across several trust levels (including τ values
// where the search must relax FDs and where it must repair cells).
TEST(ExecDeterminism, RepairDataAndFdsIdenticalAcrossThreadCounts) {
  ExperimentData data = MakeData();
  const Schema& schema = data.dirty_instance().schema();
  for (double tau_r : {0.0, 0.15, 0.5, 1.0}) {
    int64_t tau = TauFromRelative(tau_r, data.root_delta_p);
    RepairOptions serial_opts;
    std::optional<Repair> serial =
        RepairDataAndFds(data.context(), data.encoded(), tau, serial_opts);
    std::string want = Fingerprint(serial, schema);
    for (int threads : {2, 8}) {
      RepairOptions opts;
      opts.search.exec.num_threads = threads;
      std::optional<Repair> parallel =
          RepairDataAndFds(data.context(), data.encoded(), tau, opts);
      EXPECT_EQ(Fingerprint(parallel, schema), want)
          << "tau_r=" << tau_r << " threads=" << threads;
    }
  }
}

// Search-internal determinism: the speculative engine must visit the exact
// same states in the exact same order as the lazy serial engine — checked
// via the visited/generated counters, which count main-loop events only.
TEST(ExecDeterminism, SearchScheduleIdenticalAcrossThreadCounts) {
  ExperimentData data = MakeData();
  int64_t tau = TauFromRelative(0.2, data.root_delta_p);
  for (SearchMode mode : {SearchMode::kAStar, SearchMode::kBestFirst}) {
    ModifyFdsOptions serial_opts;
    serial_opts.mode = mode;
    ModifyFdsResult serial = ModifyFds(data.context(), tau, serial_opts);
    for (int threads : {2, 8}) {
      ModifyFdsOptions opts;
      opts.mode = mode;
      opts.exec.num_threads = threads;
      ModifyFdsResult parallel = ModifyFds(data.context(), tau, opts);
      EXPECT_EQ(parallel.stats.states_visited, serial.stats.states_visited);
      EXPECT_EQ(parallel.stats.states_generated,
                serial.stats.states_generated);
      ASSERT_EQ(parallel.repair.has_value(), serial.repair.has_value());
      if (serial.repair.has_value()) {
        EXPECT_EQ(parallel.repair->state, serial.repair->state);
        EXPECT_EQ(parallel.repair->distc, serial.repair->distc);
        EXPECT_EQ(parallel.repair->delta_p, serial.repair->delta_p);
      }
    }
  }
}

TEST(ExecDeterminism, SweepMatchesIndependentSerialRuns) {
  ExperimentData data = MakeData(250);
  std::vector<int64_t> taus = exec::TauGridFromRelative(
      {0.0, 0.1, 0.3, 0.6, 0.9}, data.root_delta_p);

  std::vector<ModifyFdsResult> serial;
  for (int64_t tau : taus) {
    serial.push_back(ModifyFds(data.context(), tau));
  }

  for (int threads : {1, 4}) {
    exec::Sweep sweep(data.context(), data.encoded(), {threads});
    std::vector<ModifyFdsResult> swept = sweep.RunSearches(taus);
    ASSERT_EQ(swept.size(), serial.size());
    for (size_t i = 0; i < taus.size(); ++i) {
      ASSERT_EQ(swept[i].repair.has_value(), serial[i].repair.has_value())
          << "tau=" << taus[i] << " threads=" << threads;
      EXPECT_EQ(swept[i].stats.states_visited,
                serial[i].stats.states_visited);
      if (serial[i].repair.has_value()) {
        EXPECT_EQ(swept[i].repair->state, serial[i].repair->state);
        EXPECT_EQ(swept[i].repair->delta_p, serial[i].repair->delta_p);
      }
    }
  }
}

TEST(ExecDeterminism, SweepRepairsReturnedInJobOrder) {
  ExperimentData data = MakeData(250);
  std::vector<exec::SweepJob> jobs;
  for (double tau_r : {0.9, 0.1, 0.5}) {  // deliberately unsorted
    exec::SweepJob job;
    job.tau = TauFromRelative(tau_r, data.root_delta_p);
    jobs.push_back(job);
  }
  exec::Sweep sweep(data.context(), data.encoded(), {4});
  std::vector<exec::SweepOutcome> outcomes = sweep.RunRepairs(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  const Schema& schema = data.dirty_instance().schema();
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(outcomes[i].tau, jobs[i].tau);
    RepairOptions opts;
    std::optional<Repair> serial =
        RepairDataAndFds(data.context(), data.encoded(), jobs[i].tau, opts);
    EXPECT_EQ(Fingerprint(outcomes[i].repair, schema),
              Fingerprint(serial, schema));
  }
}

TEST(ExecDeterminism, ContextConstructionShardedBitIdentical) {
  ExperimentData data = MakeData(250);
  FdSearchContext serial_ctx(data.dirty.fds, data.encoded(), data.weights());
  exec::Options eight;
  eight.num_threads = 8;
  FdSearchContext sharded_ctx(data.dirty.fds, data.encoded(), data.weights(),
                              HeuristicOptions{}, eight);
  ASSERT_EQ(sharded_ctx.index().size(), serial_ctx.index().size());
  for (int g = 0; g < serial_ctx.index().size(); ++g) {
    EXPECT_EQ(sharded_ctx.index().group(g).diff,
              serial_ctx.index().group(g).diff);
    EXPECT_EQ(sharded_ctx.index().group(g).edges,
              serial_ctx.index().group(g).edges);
  }
  EXPECT_EQ(sharded_ctx.RootDeltaP(), serial_ctx.RootDeltaP());
}

}  // namespace
}  // namespace retrust
