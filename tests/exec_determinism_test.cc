// The exec/ determinism contract: every parallel code path produces output
// BIT-IDENTICAL to serial execution for any thread count — sharded
// violation detection, sharded context construction, and Session batches
// (whose items each run one serial search), on a generated instance.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/experiment.h"

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
    fp += '|';
    fp += ext.ToString();
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
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    ASSERT_NE(pool, nullptr);
    ConflictGraph sharded =
        BuildConflictGraph(data.encoded(), data.dirty.fds, pool.get());
    EXPECT_EQ(sharded.graph.edges(), serial.graph.edges()) << threads;
    EXPECT_EQ(sharded.edge_fd_mask, serial.edge_fd_mask) << threads;

    DifferenceSetIndex index = BuildDifferenceSetIndex(
        data.encoded(), data.dirty.fds, pool.get(), DiffSetBuildMode::kNaive);
    ASSERT_EQ(index.size(), serial_index.size()) << threads;
    for (int g = 0; g < index.size(); ++g) {
      EXPECT_EQ(index.group(g).diff, serial_index.group(g).diff) << threads;
      EXPECT_TRUE(std::ranges::equal(index.group(g).edges,
                                     serial_index.group(g).edges))
          << threads;
    }
  }
}

TEST(ExecDeterminism, ViolatingPairsShardedBitIdentical) {
  ExperimentData data = MakeData();
  for (const FD& fd : data.dirty.fds.fds()) {
    std::vector<Edge> serial = ViolatingPairs(data.encoded(), fd);
    for (int threads : {2, 8}) {
      std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
      EXPECT_EQ(ViolatingPairs(data.encoded(), fd, pool.get()), serial)
          << fd.ToString() << " at " << threads << " threads";
    }
  }
}

// A session over the experiment's (Id, Σd) whose batches fan out on
// `pool` (null = serial), which must outlive it.
Session BatchSession(const ExperimentData& data, exec::ThreadPool* pool) {
  SessionOptions opts;
  opts.pool = pool;
  Result<Session> session =
      Session::Open(data.dirty_instance(), data.dirty.fds, opts);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

TEST(ExecDeterminism, SweepMatchesIndependentSerialRuns) {
  ExperimentData data = MakeData(250);
  std::vector<RepairRequest> reqs;
  std::vector<ModifyFdsResult> serial;
  for (double tau_r : {0.0, 0.1, 0.3, 0.6, 0.9}) {
    reqs.push_back(RepairRequest::AtRelative(tau_r));
    serial.push_back(
        ModifyFds(data.context(), TauFromRelative(tau_r, data.root_delta_p)));
  }

  for (int threads : {1, 4}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    Session session = BatchSession(data, pool.get());
    std::vector<Result<SearchProbe>> swept = session.SearchMany(reqs);
    ASSERT_EQ(swept.size(), serial.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(swept[i].ok()) << swept[i].status().ToString();
      const ModifyFdsResult& got = swept[i]->result;
      ASSERT_EQ(got.repair.has_value(), serial[i].repair.has_value())
          << "tau=" << swept[i]->tau << " threads=" << threads;
      EXPECT_EQ(got.stats.states_visited, serial[i].stats.states_visited);
      if (serial[i].repair.has_value()) {
        EXPECT_EQ(got.repair->state, serial[i].repair->state);
        EXPECT_EQ(got.repair->delta_p, serial[i].repair->delta_p);
      }
    }
  }
}

TEST(ExecDeterminism, SweepRepairsReturnedInJobOrder) {
  ExperimentData data = MakeData(250);
  std::vector<RepairRequest> reqs;
  for (double tau_r : {0.9, 0.1, 0.5}) {  // deliberately unsorted
    reqs.push_back(
        RepairRequest::At(TauFromRelative(tau_r, data.root_delta_p)));
  }
  exec::ThreadPool pool(4);
  Session session = BatchSession(data, &pool);
  std::vector<Result<RepairResponse>> outcomes = session.RepairMany(reqs);
  ASSERT_EQ(outcomes.size(), reqs.size());
  const Schema& schema = data.dirty_instance().schema();
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::optional<Repair> got;
    if (outcomes[i].ok()) {
      EXPECT_EQ(outcomes[i]->tau, reqs[i].tau);
      got = outcomes[i]->repair;
    }
    RepairOptions opts;
    std::optional<Repair> serial =
        RunRepair(data.context(), data.encoded(), reqs[i].tau, opts).repair;
    EXPECT_EQ(Fingerprint(got, schema), Fingerprint(serial, schema));
  }
}

TEST(ExecDeterminism, ContextConstructionShardedBitIdentical) {
  ExperimentData data = MakeData(250);
  FdSearchContext serial_ctx(data.dirty.fds, data.encoded(), data.weights());
  std::unique_ptr<exec::ThreadPool> eight = exec::MakePool(8);
  FdSearchContext sharded_ctx(data.dirty.fds, data.encoded(), data.weights(),
                              HeuristicOptions{}, eight.get());
  ASSERT_EQ(sharded_ctx.index().size(), serial_ctx.index().size());
  for (int g = 0; g < serial_ctx.index().size(); ++g) {
    EXPECT_EQ(sharded_ctx.index().group(g).diff,
              serial_ctx.index().group(g).diff);
    EXPECT_TRUE(std::ranges::equal(sharded_ctx.index().group(g).edges,
                                   serial_ctx.index().group(g).edges));
  }
  EXPECT_EQ(sharded_ctx.RootDeltaP(), serial_ctx.RootDeltaP());
}

}  // namespace
}  // namespace retrust
