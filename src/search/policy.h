// Search-policy knobs of the anytime search engine (src/search/engine.cc).
//
// Kept as a dependency-free leaf header so the option structs of layers
// BELOW the engine (repair/'s ModifyFdsOptions, api/'s RepairRequest) can
// carry a policy without depending on the engine itself — the same
// layering rule exec/cancel.h follows for the cancellation token.

#ifndef RETRUST_SEARCH_POLICY_H_
#define RETRUST_SEARCH_POLICY_H_

#include <cstdint>
#include <string>

namespace retrust::search {

/// How the engine orders and prunes the open list.
enum class SearchPolicy {
  /// Algorithm 2 exactly: best-first on max(gc, cost), full optimality
  /// scan (and δP tie-break). BIT-IDENTICAL to the pre-engine ModifyFds
  /// at any thread count — no lower-bound pruning, no weighting.
  kExact,
  /// Weighted-A* anytime: open list ordered by cost + w·(f − cost) with
  /// f = max(gc, cost), so the first goal popped costs at most w·optimal.
  /// The search then KEEPS the goal as an incumbent and refines it until
  /// the open list proves optimality (or budget/deadline/cancel fire, in
  /// which case the best incumbent is returned with a suboptimality
  /// bound). States whose δP floor (cover lower bound) exceeds τ are
  /// pruned as whole subtrees.
  kAnytime,
  /// Greedy descent: open list ordered by the heuristic's remaining
  /// estimate f − cost alone; the first goal found is returned with no
  /// optimality claim (suboptimality bound 0 = unknown). The fastest way
  /// to ANY τ-feasible relaxation; δP-floor pruning applies.
  kGreedy,
};

/// Per-request policy options, carried inside ModifyFdsOptions.
struct PolicyOptions {
  SearchPolicy policy = SearchPolicy::kExact;
  /// Weighted-A* factor w >= 1 (kAnytime only): the first incumbent costs
  /// at most w·optimal. w = 1 degenerates to exact ordering but keeps the
  /// anytime incumbent/pruning machinery. Values below 1 are clamped to 1.
  double weighting_factor = 2.0;
  /// Known cost upper bound (kAnytime/kGreedy; 0 = none): states costlier
  /// than this are pruned before any incumbent exists. An underestimate
  /// makes the search return a costlier repair or none — never an invalid
  /// one — and reported suboptimality bounds are then relative to the best
  /// repair WITHIN the cap.
  double initial_upper_bound = 0.0;
};

/// One incumbent improvement: when the search first held (then improved)
/// a τ-feasible repair. ModifyFdsResult::incumbents records the whole
/// trajectory; the first point is the first-repair latency.
struct IncumbentPoint {
  double seconds = 0.0;         ///< wall-clock since the search started
  double distc = 0.0;           ///< incumbent cost at that moment
  int64_t delta_p = 0;          ///< incumbent δP
  int64_t states_visited = 0;   ///< open-list pops up to that moment
};

inline const char* PolicyName(SearchPolicy policy) {
  switch (policy) {
    case SearchPolicy::kExact: return "exact";
    case SearchPolicy::kAnytime: return "anytime";
    case SearchPolicy::kGreedy: return "greedy";
  }
  return "unknown";
}

/// Parses "exact" | "anytime" | "greedy"; false on anything else.
inline bool ParseSearchPolicy(const std::string& name, SearchPolicy* out) {
  if (name == "exact") {
    *out = SearchPolicy::kExact;
  } else if (name == "anytime") {
    *out = SearchPolicy::kAnytime;
  } else if (name == "greedy") {
    *out = SearchPolicy::kGreedy;
  } else {
    return false;
  }
  return true;
}

}  // namespace retrust::search

#endif  // RETRUST_SEARCH_POLICY_H_
