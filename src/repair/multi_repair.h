// Computing multiple repairs across a relative-trust range (paper §7,
// Algorithm 6), plus the Sampling-Repair strawman it is compared against in
// Figure 13.
//
// Range-Repair runs one search: whenever a goal state Σh is found at the
// current τ, it is recorded as covering the trust range [δP(Σh, I), τ], τ
// drops to δP(Σh, I) - 1, and the open list's priorities are recomputed
// (gc depends on τ). States already discarded can never become goals for a
// smaller τ, so the single pass enumerates every distinct FD repair in the
// range — reusing all search work across trust levels.

#ifndef RETRUST_REPAIR_MULTI_REPAIR_H_
#define RETRUST_REPAIR_MULTI_REPAIR_H_

#include <vector>

#include "src/repair/modify_fds.h"

namespace retrust {

/// One FD repair found by the range scan, with the τ interval it covers.
struct RangedFdRepair {
  FdRepair repair;
  int64_t tau_lo = 0;  ///< smallest τ this repair serves (= its δP)
  int64_t tau_hi = 0;  ///< largest τ it was discovered for
};

/// Result of a multi-repair run.
struct MultiRepairResult {
  std::vector<RangedFdRepair> repairs;  ///< descending tau_hi order
  SearchStats stats;
};

/// Algorithm 6 (Range-Repair): all distinct minimal FD repairs for
/// τ ∈ [tau_lo, tau_hi].
MultiRepairResult FindRepairsFds(const FdSearchContext& ctx, int64_t tau_lo,
                                 int64_t tau_hi,
                                 SearchMode mode = SearchMode::kAStar);

/// Sampling-Repair: runs Algorithm 2 independently at τ = tau_hi,
/// tau_hi - step, ... >= tau_lo and deduplicates the results. The
/// straightforward approach Figure 13 compares against.
MultiRepairResult SamplingRepairs(const FdSearchContext& ctx, int64_t tau_lo,
                                  int64_t tau_hi, int64_t step,
                                  const ModifyFdsOptions& opts = {});

}  // namespace retrust

#endif  // RETRUST_REPAIR_MULTI_REPAIR_H_
