// The A* heuristic gc(S) (paper §5.2, Algorithm 3 getDescGoalStates).
//
// gc(S) estimates the cost of the cheapest goal state descending from S:
// a goal state is an extension vector Σ' with δP(Σ', I) = α·|C2opt(Σ', I)|
// ≤ τ. The estimate works on difference-set groups: all conflict edges with
// the same difference set d are resolved atomically — an FD X -> A violated
// by d can be fixed by appending any attribute of d \ {A} to X. The
// recursion either (a) leaves a group unresolved, provided the vertex-cover
// bound over all unresolved edges stays below τ, or (b) resolves it by
// extending the state, branching over the candidate attributes per violated
// FD.
//
// Using only a small subset Ds of the violated groups (largest-frequency
// first, preferring small overlap) keeps the estimate cheap while remaining
// a lower bound (paper Lemma 1). When the recursion budget is exhausted we
// fall back to cost(S), which is always a valid lower bound because the
// cost function is monotone along the extension order.
//
// gc runs once per reached state and its recursion visits up to max_nodes
// nodes, so a recursion node does no heap work and no full cost
// recomputation. Each Compute copies S once; the recursion extends that
// copy in place and undoes each extension on the way back. It also carries
// the per-FD weights w_i = w(Y_i) down, so a node's cost is their sum (from
// 0.0 in FD order — the same double WeightFunction::Cost returns), and a
// branching node looks up w(Y_k ∪ {a}) once per violated FD k and candidate
// a before it enumerates the cross product. Per-depth scratch frames sized
// by |Σ| hold the candidates and saved extensions.

#ifndef RETRUST_REPAIR_HEURISTIC_H_
#define RETRUST_REPAIR_HEURISTIC_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/fd/difference_set.h"
#include "src/graph/vertex_cover.h"
#include "src/repair/state_space.h"

namespace retrust {

/// Tuning knobs for the gc computation.
struct HeuristicOptions {
  /// Maximum number of difference-set groups handed to the recursion
  /// (the paper's "subset of difference sets ... to efficiently compute
  /// gc(S)").
  int max_diffsets = 4;
  /// Safety cap on recursion nodes per gc() call; on exhaustion gc falls
  /// back to cost(S) (still a lower bound).
  int64_t max_nodes = 100000;
  /// The paper's Algorithm 3 line 8 uses a strict '<' when testing whether
  /// a group may stay unresolved, but the goal test (Algorithm 2 line 7)
  /// accepts δP ≤ τ — with '<' the heuristic overestimates exactly at the
  /// δP = τ boundary and breaks admissibility (Lemma 1). The default is
  /// therefore the consistent '<='; set true for the paper's literal rule.
  bool strict_leave_check = false;
};

/// α = min(|R| - 1, |Σ|): the per-tuple change bound (paper §5/§6).
int64_t RepairAlpha(int num_attrs, int num_fds);

class DeltaPEvaluator;

/// Computes gc(S) for states of one (Σ, I) search. Holds references to the
/// FD set, state space, weights and the difference-set index; all must
/// outlive the heuristic. Compute() is const AND thread-safe, so one
/// heuristic instance serves concurrent searches.
///
/// When constructed with a DeltaPEvaluator (as FdSearchContext does), the
/// group-violation tests and Algorithm 3 covers run through the shared
/// evaluation layer (incidence table + memoized covers, DESIGN.md).
/// Without one, the original per-group FD-set scan is used — kept as the
/// reference path for standalone construction and as the legacy oracle the
/// evaluation layer is tested against; both paths produce bit-identical gc
/// values (tests/evaluator_oracle_test.cc).
class GcHeuristic {
 public:
  GcHeuristic(const FDSet& sigma, const StateSpace& space,
              const WeightFunction& weights, const DifferenceSetIndex& index,
              int num_tuples, HeuristicOptions opts = {},
              const DeltaPEvaluator* evaluator = nullptr);

  int64_t alpha() const { return alpha_; }

  const HeuristicOptions& options() const { return opts_; }

  /// gc(S) under threshold `tau`; +infinity when no goal state descends
  /// from `s` within the inspected difference sets. Never below Cost(s).
  double Compute(const SearchState& s, int64_t tau, SearchStats* stats) const;

  /// Exact-ish variant used as a test oracle: no group-count cap.
  double ComputeUncapped(const SearchState& s, int64_t tau,
                         SearchStats* stats) const;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

 private:
  /// Scratch of one branching node: one odometer digit per FD the group
  /// violates, plus the weights of every candidate extension.
  struct RecFrame {
    struct Digit {
      int fd = 0;
      uint64_t candidates = 0;  ///< attributes that may extend Y_fd
      uint64_t left = 0;        ///< candidates not yet picked this carry
      int rank = 0;             ///< index of the current pick in candidates
      int weight_base = 0;      ///< offset of this digit's weights
      AttrSet saved_ext;        ///< Y_fd on entry, restored on exit
      double saved_weight = 0.0;
    };
    std::vector<Digit> digits;
    /// w(Y_fd ∪ {a}) per digit, candidates in ascending attribute order.
    std::vector<double> weights;
  };

  /// State of one Compute call. The recursion mutates `state` and
  /// `weights` in place and restores them on return; `frames[pos]` is the
  /// scratch of the node at recursion depth pos (siblings at one depth
  /// run one after another, so they share it). Everything is sized once
  /// per Compute and never grows inside the recursion.
  struct RecContext {
    int64_t tau = 0;
    int64_t nodes_left = 0;
    bool budget_exhausted = false;
    SearchStats* stats = nullptr;
    std::vector<int> selected;     // group indices in play, in order
    std::vector<int> unresolved;   // groups left unresolved, in that order
    SearchState state;             // the node's extension vector
    std::vector<double> weights;   // weights[i] = w(state.ext[i])
    std::vector<RecFrame> frames;  // one per position in `selected`
    // Cheapest goal-state cost found so far (branch-and-bound pruning:
    // costs are monotone along extensions, so a partial state at or above
    // this cost cannot lead to a cheaper goal).
    double best_cost = kInfinity;
  };

  double ComputeWithCap(const SearchState& s, int64_t tau, int max_groups,
                        SearchStats* stats) const;

  /// True iff diff-set group `g` violates FD i under extension state `s`.
  bool GroupViolates(int g, const SearchState& s) const;

  /// Recursive core (Algorithm 3) at the node that decides ctx->selected
  /// [pos]; the node's state is ctx->state.
  void Rec(size_t pos, RecContext* ctx) const;

  /// Size of a greedy cover over the union of the groups' edges.
  int32_t CoverOfGroups(const std::vector<int>& groups,
                        SearchStats* stats) const;

  const FDSet& sigma_;
  const StateSpace& space_;
  const WeightFunction& weights_;
  const DifferenceSetIndex& index_;
  const DeltaPEvaluator* evaluator_;  ///< null = legacy scan path
  const int num_tuples_;
  int64_t alpha_;
  /// Σ_i |allowed(i)|: the most candidate weights one frame can hold.
  int max_candidates_ = 0;
  HeuristicOptions opts_;
};

}  // namespace retrust

#endif  // RETRUST_REPAIR_HEURISTIC_H_
