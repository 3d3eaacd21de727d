#include "src/eval/experiment.h"

#include <stdexcept>

namespace retrust {

ExperimentData PrepareExperiment(const CensusConfig& gen,
                                 const PerturbOptions& perturb,
                                 WeightModel weights,
                                 const HeuristicOptions& hopts, int threads) {
  ExperimentData data;
  data.clean = GenerateCensusLike(gen);
  data.dirty = Perturb(data.clean.instance, data.clean.planted_fds, perturb);
  data.pool = exec::MakePool(threads);
  SessionOptions sopts;
  sopts.weights = weights;
  sopts.heuristic = hopts;
  sopts.pool = data.pool.get();
  Result<Session> session =
      Session::Open(data.dirty.data, data.dirty.fds, sopts);
  // Generated Σd is always well-formed; a failure here is harness misuse.
  if (!session.ok()) {
    throw std::runtime_error("PrepareExperiment: " +
                             session.status().ToString());
  }
  data.session = std::make_unique<Session>(std::move(*session));
  data.root_delta_p = data.session->RootDeltaP();
  return data;
}

RepairQuality ScoreRepair(const ExperimentData& data, const Repair& repair) {
  RepairQuality q;
  q.data = EvaluateDataRepair(data.clean.instance, data.dirty_instance(),
                              repair.data.Decode());
  q.fd = EvaluateFdRepair(repair.extensions, data.dirty.removed_lhs);
  return q;
}

ExperimentRun RunRepairAt(const ExperimentData& data, double tau_r,
                          SearchMode mode, uint64_t seed) {
  ExperimentRun run;
  run.tau = TauFromRelative(tau_r, data.root_delta_p);
  RepairRequest req = RepairRequest::At(run.tau);
  req.mode = mode;
  req.seed = seed;
  Result<RepairResponse> response = data.session->Repair(req);
  if (!response.ok()) return run;
  Repair repair = std::move(response->repair);
  run.repaired = true;
  run.stats = repair.stats;
  run.distc = repair.distc;
  run.cells_changed = static_cast<int64_t>(repair.changed_cells.size());
  run.quality = ScoreRepair(data, repair);
  run.repair = std::move(repair);
  return run;
}

ExperimentRun RunUnifiedCost(const ExperimentData& data,
                             const UnifiedCostOptions& opts) {
  ExperimentRun run;
  Repair repair =
      UnifiedCostRepair(data.dirty.fds, data.encoded(), data.weights(), opts);
  run.repaired = true;
  run.stats = repair.stats;
  run.distc = repair.distc;
  run.cells_changed = static_cast<int64_t>(repair.changed_cells.size());
  run.quality = ScoreRepair(data, repair);
  run.repair = std::move(repair);
  return run;
}

}  // namespace retrust
