// Minimal FD modification for a trust level τ (paper §5, Algorithm 2).
//
// Finds Σ' ∈ S(Σ) with δP(Σ', I) = α·|C2opt(Σ', I)| ≤ τ minimizing
// distc(Σ, Σ'), by searching the LHS-extension tree with A* ordered by the
// gc heuristic (or plain best-first on state cost, the paper's baseline).
//
// The conflict graph of any relaxation Σ' is a subgraph of Σ's conflict
// graph (relaxations only remove violations), so the search precomputes Σ's
// difference-set index once and evaluates every candidate Σ' by filtering
// edge groups — no per-state conflict-graph rebuild.

#ifndef RETRUST_REPAIR_MODIFY_FDS_H_
#define RETRUST_REPAIR_MODIFY_FDS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/exec/cancel.h"
#include "src/fd/difference_set.h"
#include "src/obs/trace.h"
#include "src/repair/evaluation.h"
#include "src/repair/heuristic.h"
#include "src/repair/state_space.h"
#include "src/search/policy.h"

namespace retrust {

/// Search strategy for the open list.
enum class SearchMode {
  kAStar,      ///< order by gc(S) (Algorithm 2)
  kBestFirst,  ///< order by cost(S) only (paper's baseline, §5.1)
};

/// Options for the FD-modification search. A search runs serially on the
/// calling thread; parallelism runs across searches over one context
/// (DESIGN.md, the determinism contract).
struct ModifyFdsOptions {
  SearchMode mode = SearchMode::kAStar;
  /// Which engine policy runs the open list (src/search/policy.h): exact
  /// best-first (the default — bit-identical to the pre-engine ModifyFds),
  /// weighted-A* anytime, or greedy descent. The weighting factor, δP-floor
  /// pruning, and initial upper bound only apply to the non-exact policies.
  search::PolicyOptions policy;
  /// Safety cap on popped states (0 = unlimited). Hitting it reports
  /// SearchTermination::kVisitBudget.
  int64_t max_visited = 0;
  /// Wall-clock cap in seconds (0 = none), checked once per popped state.
  /// Expiry reports SearchTermination::kDeadline. Like `cancel`, a deadline
  /// makes the outcome timing-dependent — opt-in only, never a default.
  double deadline_seconds = 0.0;
  /// Cooperative cancellation, polled once per popped state. Not owned;
  /// the caller keeps the token alive for the duration of the search.
  const exec::CancelToken* cancel = nullptr;
  /// Per-phase wall-time accumulators (expand/evaluate/cover/bound) for
  /// request tracing. Null (the default) disables instrumentation: the
  /// engine's hot loop then does no clock reads for tracing, and the
  /// search outcome is unaffected either way — timing never feeds back
  /// into the schedule.
  obs::SearchPhaseStats* phase_trace = nullptr;
};

/// One FD repair: the chosen relaxation plus its measurements.
struct FdRepair {
  SearchState state;            ///< Δc(Σ, Σ')
  FDSet sigma_prime;            ///< Σ' = Σ extended by `state`
  double distc = 0.0;           ///< Σ w(Y_i)
  int64_t cover_size = 0;       ///< |C2opt(Σ', I)|
  int64_t delta_p = 0;          ///< α·|C2opt(Σ', I)|
};

/// Why a search loop stopped. Only kCompleted carries the full Algorithm 2
/// guarantee (the repair is cost-minimal, or provably none exists ≤ τ); the
/// other values mean the search was interrupted — `repair` then holds the
/// best goal state found so far, if any.
enum class SearchTermination {
  kCompleted,    ///< open list exhausted or optimality bound closed
  kVisitBudget,  ///< stopped by ModifyFdsOptions::max_visited
  kDeadline,     ///< stopped by ModifyFdsOptions::deadline_seconds
  kCancelled,    ///< stopped by ModifyFdsOptions::cancel
};

/// Result of ModifyFds.
struct ModifyFdsResult {
  std::optional<FdRepair> repair;  ///< empty when no goal state was reached
  SearchStats stats;
  SearchTermination termination = SearchTermination::kCompleted;
  /// Incumbent trajectory: one point per time the best-so-far repair was
  /// set or improved (every policy records it; only the anytime policy
  /// typically has more than one point). Empty when no repair was found.
  std::vector<search::IncumbentPoint> incumbents;
};

/// Precomputed, τ-independent context shared by searches over one (Σ, I):
/// Σ's difference-set index (its groups hold every conflict edge of Σ),
/// the δP evaluation layer (violation incidence table + memoized covers),
/// state space, and the gc heuristic, whose options are fixed here. The
/// index also serves Algorithm 4: a repair's cover is the goal state's
/// violated groups of this index (RepairData's context overload), so data
/// repair builds no index of its own. Build once, run
/// ModifyFds/FindRepairsFds/RunRepair many times — also
/// concurrently. A context is immutable after construction (a delta
/// derives a new one: AfterDelta) and every method is thread-safe (pooled
/// scratch owned by the evaluation layer, mutex-guarded memos), which is
/// what a Session's concurrent requests rely on; they share the table AND
/// the cover memo. Each search itself runs serially on its calling thread.
class FdSearchContext {
 public:
  /// Builds the difference-set index with the blocked builder, sharding it
  /// and the violation table on the borrowed `pool` (nullable = serial;
  /// identical output for any thread count).
  FdSearchContext(const FDSet& sigma, const EncodedInstance& inst,
                  const WeightFunction& weights,
                  const HeuristicOptions& hopts = {},
                  exec::ThreadPool* pool = nullptr);

  /// Construction over a pre-built difference-set index — a snapshot's
  /// (src/persist/) or one a delta patched (AfterDelta) — instead of paying
  /// the O(n²) conflict-graph/difference-set build. Builds the violation
  /// table over it as a fresh context does, sharded on the borrowed `pool`
  /// (nullable = serial), and preloads the saved cover-memo entries
  /// (empty after a delta). `index` and `warm` must describe the SAME
  /// (Σ, I); answers are then bit-identical to a fresh build at any thread
  /// count. Throws std::invalid_argument when Σ has over 64 FDs.
  FdSearchContext(const FDSet& sigma, const EncodedInstance& inst,
                  const WeightFunction& weights,
                  const HeuristicOptions& hopts, DifferenceSetIndex index,
                  DeltaPEvaluator::WarmState warm,
                  exec::ThreadPool* pool = nullptr);

  /// The context over `inst` after a DeltaBatch was applied to it in place
  /// (delta.h); `old` was built over the pre-delta `inst`, and
  /// `dirty`/`remap` come from the batch's DeltaPlan. Moves `old`'s
  /// difference-set index out and frees the rest of `old` first, patches
  /// the index in O(Δ·n) (sharded on `pool`, nullable = serial; the patch
  /// summary lands in `*patch` when non-null), then builds a new context
  /// over it with an empty cover memo, the same Σ and heuristic options,
  /// and `weights` — which must be derived from the post-delta `inst`.
  /// Every answer is BIT-IDENTICAL to a context freshly built over the
  /// mutated instance, for any thread count — an empty-LHS FD included,
  /// whose full-disagreement pairs are ordinary edges of the patch scan.
  /// If the patch throws, `old` is gone and the caller rebuilds.
  static std::unique_ptr<FdSearchContext> AfterDelta(
      std::unique_ptr<FdSearchContext> old, const EncodedInstance& inst,
      const WeightFunction& weights, const std::vector<TupleId>& dirty,
      const std::vector<TupleId>& remap, exec::ThreadPool* pool,
      IndexPatch* patch);

  const FDSet& sigma() const { return sigma_; }
  const StateSpace& space() const { return space_; }
  const DifferenceSetIndex& index() const { return index_; }
  /// Phase timings and pair counts of the index build that produced this
  /// context (zeros when it was built over a pre-built index: a snapshot
  /// restore or AfterDelta).
  const DiffSetBuildStats& build_stats() const { return build_stats_; }
  const DeltaPEvaluator& evaluator() const { return *evaluator_; }
  const GcHeuristic& heuristic() const { return heuristic_; }
  const WeightFunction& weights() const { return weights_; }
  int64_t alpha() const { return heuristic_.alpha(); }
  int num_tuples() const { return num_tuples_; }

  /// |C2opt(Σ', I)| for the relaxation given by `s`: greedy cover over Σ's
  /// conflict edges still violated under `s`, in canonical (u, v) order —
  /// evaluated through the memoized δP pipeline, bit-identical to the
  /// direct scan.
  int64_t CoverSize(const SearchState& s, SearchStats* stats) const;

  /// δP(Σ', I) = α · CoverSize.
  int64_t DeltaP(const SearchState& s, SearchStats* stats) const;

  /// δP(Σ, I) — the root bound; τ = 100% corresponds to this value.
  int64_t RootDeltaP() const;

 private:
  FDSet sigma_;
  int num_tuples_;
  StateSpace space_;
  // Declared before index_: the index initializer writes the stats through
  // a pointer, so the member must already be initialized at that point.
  DiffSetBuildStats build_stats_;
  DifferenceSetIndex index_;
  std::unique_ptr<DeltaPEvaluator> evaluator_;  ///< built over index_
  const WeightFunction& weights_;
  GcHeuristic heuristic_;
};

/// Algorithm 2: cheapest Σ' with δP(Σ', I) ≤ τ; the default exact policy
/// breaks equal costs by smaller δP. Returns no repair iff even the
/// fully-extended space cannot reach δP ≤ τ. Runs the policy
/// `opts.policy` selects (src/search/engine.cc).
ModifyFdsResult ModifyFds(const FdSearchContext& ctx, int64_t tau,
                          const ModifyFdsOptions& opts = {});

}  // namespace retrust

#endif  // RETRUST_REPAIR_MODIFY_FDS_H_
