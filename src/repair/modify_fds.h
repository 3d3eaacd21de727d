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

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/exec/cancel.h"
#include "src/exec/options.h"
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

/// Options for the FD-modification search.
struct ModifyFdsOptions {
  SearchMode mode = SearchMode::kAStar;
  HeuristicOptions heuristic;
  /// Which engine policy runs the open list (src/search/policy.h): exact
  /// best-first (the default — bit-identical to the pre-engine ModifyFds),
  /// weighted-A* anytime, or greedy descent. The weighting factor, δP-floor
  /// pruning, and initial upper bound only apply to the non-exact policies.
  search::PolicyOptions policy;
  /// Resolve cost ties among goal states by smaller δP (Definition 4's
  /// tie-break on distance to I). Costs within `cost_epsilon` tie.
  bool tie_break_delta = true;
  double cost_epsilon = 1e-9;
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
  /// Parallel successor evaluation (src/exec/). With more than one thread,
  /// a popped state's LHS-extensions are evaluated speculatively on a
  /// thread pool at expansion time, each child with its own cover scratch;
  /// the search consumes the memoized values in the exact serial order, so
  /// the REPAIR and the visit schedule (states_visited/states_generated)
  /// are BIT-IDENTICAL for any num_threads (see DESIGN.md). The
  /// heuristic_calls/vc_computations counters report actual work done,
  /// which is LARGER under speculation (children that never reach the top
  /// of the open list still get evaluated) — compare those counters across
  /// search modes only at num_threads = 1.
  exec::Options exec;
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
/// the conflict graph of Σ, its difference-set index, the δP evaluation
/// layer (violation incidence table + memoized covers), state space, and
/// heuristic. The index also serves Algorithm 4: a repair's cover is the
/// goal state's violated groups of this index (RepairData's context
/// overload), so data repair builds no index of its own. Build once, run
/// ModifyFds/FindRepairsFds/RunRepair many times — also
/// concurrently: every const method is thread-safe (pooled scratch owned
/// by the evaluation layer, mutex-guarded memos), which is what
/// exec::Sweep relies on; sweep jobs share the table AND the cover memo.
class FdSearchContext {
 public:
  /// `eopts` shards the difference-set and violation-table construction
  /// (identical output for any thread count). `mode` selects the
  /// difference-set builder: kBlocked (default, sub-quadratic when classes
  /// are small) or kNaive (the all-pairs scan, kept as an oracle) — both
  /// produce BIT-IDENTICAL indexes.
  FdSearchContext(const FDSet& sigma, const EncodedInstance& inst,
                  const WeightFunction& weights,
                  const HeuristicOptions& hopts = {},
                  const exec::Options& eopts = {},
                  DiffSetBuildMode mode = DiffSetBuildMode::kBlocked);

  /// Restore construction (src/persist/): adopts a pre-built difference-set
  /// index instead of paying the O(n²) conflict-graph/difference-set build
  /// — the whole point of a snapshot — builds the violation table over it
  /// as a fresh context does, and preloads the saved cover-memo entries.
  /// `index` and `warm` must have been exported from a context over the
  /// SAME (Σ, I); answers are then bit-identical to a fresh build at any
  /// thread count. Throws std::invalid_argument when Σ has over 64 FDs.
  FdSearchContext(const FDSet& sigma, const EncodedInstance& inst,
                  const WeightFunction& weights,
                  const HeuristicOptions& hopts, DifferenceSetIndex index,
                  DeltaPEvaluator::WarmState warm);

  /// Aggregate of what one delta did to this context's structures.
  struct DeltaReport {
    IndexPatch index;
    size_t covers_dropped = 0;  ///< cover-memo entries the rebuild dropped
    uint64_t version = 0;  ///< the context version after the patch
  };

  /// Delta-maintains the context after `inst` — the SAME instance this
  /// context was built over — had a DeltaBatch applied in place (delta.h).
  /// `dirty`/`remap` come from the batch's DeltaPlan. The difference-set
  /// index is patched in O(Δ·n) (sharded per `eopts`), then the δP
  /// evaluator is rebuilt in place over it: a new violation table on the
  /// same pool and an emptied cover memo. Every post-delta answer is
  /// BIT-IDENTICAL to a context freshly built over the mutated instance,
  /// for any thread count — an empty-LHS FD included, whose
  /// full-disagreement pairs are ordinary edges of the patch scan. Bumps
  /// version(); in-flight exec::Sweep runs detect the bump and refuse to
  /// mix snapshots. NOT safe against concurrent const use — callers
  /// serialize deltas against queries (retrust::Session does this with a
  /// shared/exclusive lock).
  DeltaReport ApplyDelta(const EncodedInstance& inst,
                         const std::vector<TupleId>& dirty,
                         const std::vector<TupleId>& remap,
                         const exec::Options& eopts = {});

  /// Same on an existing pool (nullable = serial) — lets one Apply reuse
  /// one pool across many cached contexts instead of spawning a pool per
  /// context (Session::Apply's loop).
  DeltaReport ApplyDelta(const EncodedInstance& inst,
                         const std::vector<TupleId>& dirty,
                         const std::vector<TupleId>& remap,
                         exec::ThreadPool* pool);

  /// Monotone data-snapshot version, bumped by every ApplyDelta. Safe to
  /// read concurrently with queries (exec::Sweep polls it).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  const FDSet& sigma() const { return sigma_; }
  const StateSpace& space() const { return space_; }
  const DifferenceSetIndex& index() const { return index_; }
  /// Phase timings and pair counts of the index build that produced this
  /// context (zeros for the restore constructor — a snapshot restore does
  /// not rebuild). ApplyDelta patches, so it leaves them untouched.
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
  std::atomic<uint64_t> version_{1};
};

/// Algorithm 2: cheapest Σ' with δP(Σ', I) ≤ τ (ties broken by δP when
/// enabled). Returns no repair iff even the fully-extended space cannot
/// reach δP ≤ τ.
ModifyFdsResult ModifyFds(const FdSearchContext& ctx, int64_t tau,
                          const ModifyFdsOptions& opts = {});

/// Convenience overload building a one-shot context.
ModifyFdsResult ModifyFds(const FDSet& sigma, const EncodedInstance& inst,
                          int64_t tau, const WeightFunction& weights,
                          const ModifyFdsOptions& opts = {});

}  // namespace retrust

#endif  // RETRUST_REPAIR_MODIFY_FDS_H_
