// Unified-cost data + constraint repair — a re-implementation of the
// baseline the paper compares against (Chiang & Miller, "A unified model
// for data and constraint repair", ICDE 2011; reference [5]).
//
// The defining property of that approach (per the paper's §8.2 and §9) is
// that it aggregates data-change cost and FD-change cost into ONE objective
// with a fixed built-in relative trust, searches a constrained FD space
// (single-attribute LHS additions only), and returns a single repair.
//
// Our re-implementation is a greedy hill-climber over that unified
// objective:
//     score(Σc) = δP(Σc, I) + lambda · distc(Σ, Σc)
// starting at Σc = Σ and repeatedly applying the single-attribute LHS
// append that lowers the score most, stopping at a local minimum; the data
// side is then materialized with Algorithm 4, its cover read from the
// climber's own search context. With informative attribute
// weights (the distinct-count weights the paper uses) FD appends are
// expensive, so the climber rarely modifies FDs — reproducing the paper's
// observation that the unified baseline kept FDs unchanged across its
// experiments (Figure 8).

#ifndef RETRUST_REPAIR_UNIFIED_COST_H_
#define RETRUST_REPAIR_UNIFIED_COST_H_

#include "src/repair/repair_driver.h"

namespace retrust {

/// Options for the unified-cost baseline.
struct UnifiedCostOptions {
  /// Relative weight of FD changes vs cell changes in the unified score
  /// (the baseline's implicit, fixed trust level).
  double lambda = 1.0;
  /// Restrict to at most one appended attribute per FD (the constrained
  /// space reference [5] searches).
  bool single_attr_per_fd = true;
  uint64_t seed = 1;
};

/// Runs the unified-cost baseline serially over a context it builds;
/// always returns a repair (τ is not a concept here — the trade-off is
/// fixed by lambda).
Repair UnifiedCostRepair(const FDSet& sigma, const EncodedInstance& inst,
                         const WeightFunction& weights,
                         const UnifiedCostOptions& opts = {});

}  // namespace retrust

#endif  // RETRUST_REPAIR_UNIFIED_COST_H_
