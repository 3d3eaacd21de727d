// Explore the Pareto frontier of data-vs-FD repairs on a census-like
// workload: generate clean data with planted FDs, perturb both the cells
// and the FDs, then enumerate every distinct minimal FD repair across the
// whole trust range (Algorithm 6) and materialize + score each one — the
// materializations run as one batched Session::RepairMany, fanned out on
// the session's pool over the shared search context.
//
//   build/examples/example_tradeoff_explorer

#include <cstdio>
#include <thread>

#include "src/eval/experiment.h"

using namespace retrust;

int main() {
  CensusConfig gen;
  gen.num_tuples = 1500;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes = {5};
  gen.seed = 11;

  PerturbOptions perturb;
  perturb.fd_error_rate = 0.4;   // 2 of 5 LHS attributes dropped
  perturb.data_error_rate = 0.02;
  perturb.seed = 23;

  // Batched requests fan out on all hardware threads.
  ExperimentData data = PrepareExperiment(
      gen, perturb, WeightModel::kDistinctCount, HeuristicOptions{},
      static_cast<int>(std::thread::hardware_concurrency()));
  Session& session = *data.session;
  const Schema& schema = data.dirty_instance().schema();

  std::printf("clean FDs : %s\n",
              data.clean.planted_fds.ToString(schema).c_str());
  std::printf("given FDs : %s (after removing %d LHS attrs)\n",
              data.dirty.fds.ToString(schema).c_str(),
              data.dirty.removed_lhs[0].Count());
  std::printf("injected cell errors: %zu\n",
              data.dirty.perturbed_cells.size());
  std::printf("deltaP(Sigma_d, I_d) = %lld\n\n",
              static_cast<long long>(data.root_delta_p));

  Result<MultiRepairResult> frontier =
      session.EnumerateRepairs(0, data.root_delta_p);
  if (!frontier.ok()) {
    std::fprintf(stderr, "enumerate failed: %s\n",
                 frontier.status().ToString().c_str());
    return 1;
  }

  // Materialize every frontier point concurrently: one request per
  // distinct FD repair, at the τ that discovered it.
  std::vector<RepairRequest> requests;
  requests.reserve(frontier->repairs.size());
  for (const RangedFdRepair& r : frontier->repairs) {
    requests.push_back(RepairRequest::At(r.tau_hi));
  }
  std::vector<Result<RepairResponse>> responses =
      session.RepairMany(requests);

  std::printf("%-42s %10s %10s %10s %10s\n", "Sigma'", "distc", "tau range",
              "cells", "combinedF");
  for (size_t i = 0; i < frontier->repairs.size(); ++i) {
    const RangedFdRepair& r = frontier->repairs[i];
    if (!responses[i].ok()) continue;
    const Repair& repair = responses[i]->repair;
    RepairQuality q = ScoreRepair(data, repair);
    char range[32];
    std::snprintf(range, sizeof(range), "[%lld,%lld]",
                  static_cast<long long>(r.tau_lo),
                  static_cast<long long>(r.tau_hi));
    std::printf("%-42s %10.0f %10s %10zu %10.3f\n",
                r.repair.sigma_prime.ToString(schema).c_str(),
                r.repair.distc, range, repair.changed_cells.size(),
                q.CombinedF());
  }
  std::printf("\n(states visited by the range search: %lld)\n",
              static_cast<long long>(frontier->stats.states_visited));
  return 0;
}
