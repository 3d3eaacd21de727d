// Algorithm 1 (Repair_Data_FDs): the end-to-end τ-constrained repair.
//
// Step 1 finds Σ' minimizing distc subject to δP(Σ', I) ≤ τ (Algorithm 2);
// step 2 materializes I' |= Σ' with at most δP cell changes (Algorithm 4).
// Step 2 takes its cover from the search context step 1 used — the goal
// state's violated groups of Σ's difference-set index — so a request
// builds no index of its own (repair_data.h explains why that is exact).
// The result is a P-approximate τ-constrained repair with
// P = 2·min(|R|-1, |Σ|) (paper Definition 5, Theorem 2).

#ifndef RETRUST_REPAIR_REPAIR_DRIVER_H_
#define RETRUST_REPAIR_REPAIR_DRIVER_H_

#include <optional>

#include "src/repair/modify_fds.h"
#include "src/repair/repair_data.h"

namespace retrust {

/// Options for the end-to-end repair. One repair runs serially on the
/// calling thread: the search (Algorithm 2) and Algorithm 4's data-repair
/// pass, which reads its cover from the context and is seed-driven.
/// Parallelism runs across repairs (Session batches, service workers) and
/// in the context's construction, which the caller shards on a pool.
struct RepairOptions {
  ModifyFdsOptions search;
  uint64_t seed = 1;  ///< drives Algorithm 4's random orders
};

/// A complete (Σ', I') repair plus measurements.
struct Repair {
  FDSet sigma_prime;
  std::vector<AttrSet> extensions;   ///< Δc(Σ, Σ')
  double distc = 0.0;
  EncodedInstance data;              ///< I' (a V-instance)
  std::vector<CellRef> changed_cells;  ///< Δd(I, I')
  int64_t delta_p = 0;               ///< δP(Σ', I) bound used by the search
  SearchStats stats;
  /// FD-search incumbent trajectory (ModifyFdsResult::incumbents): the
  /// anytime policy's quality-vs-time curve; a single point under exact.
  std::vector<search::IncumbentPoint> incumbents;
};

/// Full outcome of Algorithm 1: the repair when one was found, plus the
/// search stats and the reason the search stopped — available even when no
/// repair exists, which is what the api/ facade's Status mapping needs.
struct RepairOutcome {
  std::optional<Repair> repair;
  SearchStats stats;  ///< step-1 search stats (same as repair->stats)
  SearchTermination termination = SearchTermination::kCompleted;
};

/// Algorithm 1 over a prebuilt search context, reporting the full outcome:
/// the search step (ModifyFds) followed by MaterializeRepair. `repair` is
/// empty iff no relaxation of Σ admits a repair with at most τ cell
/// changes (no goal state exists) or the search was interrupted first.
RepairOutcome RunRepair(const FdSearchContext& ctx,
                        const EncodedInstance& inst, int64_t tau,
                        const RepairOptions& opts = {});

/// Algorithm 1's materialize step: turns a finished search over `ctx` into
/// the outcome, running Algorithm 4 with `seed` when the search found a
/// repair. `inst` must be the instance `ctx` was built over (or equal to
/// it): the data repair walks ctx.index()'s edges over the goal state's
/// violated groups. `base`, when given, must be BuildRepairBase(ctx, inst,
/// goal) for the search's goal, and only the chase runs; null builds it.
/// The outcome carries `search`'s stats, termination and incumbents
/// unchanged. Debug builds check the result's post-conditions (cover·α ==
/// δP, I' |= Σ', |Δd| ≤ change bound) and throw std::logic_error on a
/// breach.
RepairOutcome MaterializeRepair(const FdSearchContext& ctx,
                                const EncodedInstance& inst,
                                ModifyFdsResult search, uint64_t seed,
                                const RepairBase* base = nullptr);

/// Debug-build oracle for a search answer served from a memo instead of a
/// search: re-runs ModifyFds(ctx, tau, opts) — uncancellable, untraced —
/// and throws std::logic_error unless it ends with the same goal state,
/// distc, δP and termination as `stored`. Does nothing under NDEBUG.
void CheckSearchAnswer(const FdSearchContext& ctx, int64_t tau,
                       ModifyFdsOptions opts, const ModifyFdsResult& stored);

/// Debug-build oracle for a RepairBase served from a memo instead of
/// built: rebuilds BuildRepairBase(ctx, inst, goal) and throws
/// std::logic_error unless its Σ', cover and clean index equal `stored`'s.
/// Does nothing under NDEBUG.
void CheckRepairBase(const FdSearchContext& ctx, const EncodedInstance& inst,
                     const SearchState& goal, const RepairBase& stored);

/// Converts a relative trust level τr ∈ [0, 1] to an absolute τ against the
/// root bound δP(Σ, I) (the paper defines τr against δopt, which is
/// NP-hard; the PTIME bound only rescales the axis — see DESIGN.md).
/// Out-of-range inputs clamp: τr below 0 or NaN maps to 0, above 1 to 1,
/// and a negative root bound is treated as 0. The api/ facade offers
/// CheckedTauFromRelative, which rejects such inputs instead.
int64_t TauFromRelative(double tau_r, int64_t root_delta_p);

}  // namespace retrust

#endif  // RETRUST_REPAIR_REPAIR_DRIVER_H_
