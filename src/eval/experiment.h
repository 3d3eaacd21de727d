// Shared experiment harness: generate clean data + FDs, perturb both, run a
// repair, score it. Every bench binary (Figures 7-13) is a thin driver over
// these helpers.

#ifndef RETRUST_EVAL_EXPERIMENT_H_
#define RETRUST_EVAL_EXPERIMENT_H_

#include <memory>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/metrics.h"
#include "src/eval/perturb.h"
#include "src/repair/repair_driver.h"
#include "src/repair/unified_cost.h"

namespace retrust {

/// Everything a repair experiment needs, prepared once and reused across
/// τ sweeps / search modes. The repair wiring (encoding, weights, search
/// context) lives inside `session` — the same facade downstream users get;
/// the accessors below reach through it for the kernels the micro
/// benchmarks and determinism tests drive directly.
struct ExperimentData {
  GeneratedData clean;          ///< Ic, Σc
  PerturbedData dirty;          ///< Id, Σd + ground truth
  /// The session's pool (null = serial); declared first so it outlives
  /// the session.
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<Session> session;  ///< facade over (Id, Σd)
  int64_t root_delta_p = 0;     ///< δP(Σd, Id): τr = 100% maps here

  const Instance& dirty_instance() const { return dirty.data; }
  const EncodedInstance& encoded() const { return session->data(); }
  const FdSearchContext& context() const { return session->context(); }
  const WeightFunction& weights() const { return session->weights(); }
};

/// Generates, perturbs, encodes, and builds the search context. `threads`
/// sizes the session's pool (exec::MakePool: <= 1 is serial), which shards
/// the difference-set construction and runs its batches (identical output
/// for any thread count).
ExperimentData PrepareExperiment(
    const CensusConfig& gen, const PerturbOptions& perturb,
    WeightModel weights = WeightModel::kDistinctCount,
    const HeuristicOptions& hopts = {}, int threads = 1);

/// Runs Algorithm 1 at relative trust τr and scores the result against the
/// ground truth. Returns quality plus the raw repair.
struct ExperimentRun {
  bool repaired = false;
  RepairQuality quality;
  SearchStats stats;
  int64_t tau = 0;
  double distc = 0.0;
  int64_t cells_changed = 0;
  std::optional<Repair> repair;
};

ExperimentRun RunRepairAt(const ExperimentData& data, double tau_r,
                          SearchMode mode = SearchMode::kAStar,
                          uint64_t seed = 1);

/// Runs the unified-cost baseline on the same prepared data and scores it.
ExperimentRun RunUnifiedCost(const ExperimentData& data,
                             const UnifiedCostOptions& opts = {});

/// Scores an arbitrary repair against the prepared ground truth.
RepairQuality ScoreRepair(const ExperimentData& data, const Repair& repair);

}  // namespace retrust

#endif  // RETRUST_EVAL_EXPERIMENT_H_
