#include "src/repair/heuristic.h"

#include <algorithm>

#include "src/repair/evaluation.h"

namespace retrust {

int64_t RepairAlpha(int num_attrs, int num_fds) {
  return std::min<int64_t>(num_attrs - 1, num_fds);
}

GcHeuristic::GcHeuristic(const FDSet& sigma, const StateSpace& space,
                         const WeightFunction& weights,
                         const DifferenceSetIndex& index, int num_tuples,
                         HeuristicOptions opts,
                         const DeltaPEvaluator* evaluator)
    : sigma_(sigma),
      space_(space),
      weights_(weights),
      index_(index),
      evaluator_(evaluator),
      num_tuples_(num_tuples),
      alpha_(0),
      opts_(opts) {
  // RepairAlpha needs |R|; recover it from the first FD's allowed set:
  // allowed(i) = R \ (X_i ∪ {A_i}), so |R| = |allowed| + |X_i| + 1.
  if (sigma.size() > 0) {
    int num_attrs = space.allowed(0).Count() + sigma.fd(0).lhs.Count() + 1;
    alpha_ = RepairAlpha(num_attrs, sigma.size());
  }
}

bool GcHeuristic::GroupViolates(int g, const SearchState& s) const {
  if (evaluator_ != nullptr) return evaluator_->GroupViolated(g, s);
  // Legacy scan (reference/oracle path).
  AttrSet diff = index_.group(g).diff;
  for (int i = 0; i < sigma_.size(); ++i) {
    const FD& fd = sigma_.fd(i);
    if (!diff.Contains(fd.rhs)) continue;
    if (fd.lhs.Union(s.ext[i]).Intersects(diff)) continue;
    return true;
  }
  return false;
}

int32_t GcHeuristic::CoverOfGroups(const std::vector<int>& groups,
                                   SearchStats* stats) const {
  // The concatenation order (selection order, NOT ascending group index)
  // matters: greedy matching covers are order-sensitive. The memoized path
  // therefore keys on the ordered sequence.
  if (evaluator_ != nullptr) return evaluator_->CoverOfGroups(groups, stats);
  // Legacy scan (reference/oracle path): concatenate edges of the groups
  // in order; greedy matching cover. (Groups are disjoint edge sets by
  // construction.)
  if (stats != nullptr) ++stats->vc_computations;
  std::vector<Edge> edges;
  for (int g : groups) {
    const auto& ge = index_.group(g).edges;
    edges.insert(edges.end(), ge.begin(), ge.end());
  }
  MatchingCoverScratch scratch(num_tuples_);
  return scratch.CoverSize(edges);
}

void GcHeuristic::Rec(const SearchState& sc, std::vector<int>& unresolved,
                      const std::vector<int>& remaining,
                      RecContext* ctx) const {
  if (ctx->budget_exhausted) return;
  if (--ctx->nodes_left <= 0) {
    ctx->budget_exhausted = true;
    return;
  }
  // Branch-and-bound: extensions only grow the (monotone) cost, so a state
  // already at/above the best known goal cost cannot improve the bound.
  double cost = sc.Cost(weights_);
  if (cost >= ctx->best_cost) return;
  if (remaining.empty()) {
    ctx->best_cost = cost;
    return;
  }
  int d = remaining.front();
  std::vector<int> rest(remaining.begin() + 1, remaining.end());

  // A group might already be resolved by extensions made for an earlier
  // group; just move on.
  if (!GroupViolates(d, sc)) {
    Rec(sc, unresolved, rest, ctx);
    return;
  }

  // Option 1: leave d unresolved if the accumulated vertex-cover bound
  // still permits a goal (Algorithm 3 line 8).
  unresolved.push_back(d);
  int64_t bound = alpha_ * CoverOfGroups(unresolved, ctx->stats);
  bool feasible = opts_.strict_leave_check ? bound < ctx->tau
                                           : bound <= ctx->tau;
  if (feasible) {
    Rec(sc, unresolved, rest, ctx);
  }
  unresolved.pop_back();

  // Option 2: resolve d by appending one attribute (from d) to each FD it
  // violates under sc. Enumerate the cross product of candidates.
  AttrSet diff = index_.group(d).diff;
  std::vector<int> violated_fds;
  std::vector<std::vector<AttrId>> candidates;
  for (int i = 0; i < sigma_.size(); ++i) {
    const FD& fd = sigma_.fd(i);
    if (!diff.Contains(fd.rhs)) continue;
    if (fd.lhs.Union(sc.ext[i]).Intersects(diff)) continue;
    AttrSet cands = diff.Intersect(space_.allowed(i)).Minus(sc.ext[i]);
    if (cands.Empty()) return;  // this FD cannot be resolved via extension
    violated_fds.push_back(i);
    candidates.push_back(cands.ToVector());
  }
  // Depth-first cross product over per-FD candidate attributes.
  std::vector<size_t> pick(violated_fds.size(), 0);
  while (true) {
    SearchState next = sc;
    for (size_t k = 0; k < violated_fds.size(); ++k) {
      next.ext[violated_fds[k]].Add(candidates[k][pick[k]]);
    }
    // Drop groups this extension resolves as a side effect (checked lazily
    // at the head of Rec), and recurse.
    Rec(next, unresolved, rest, ctx);
    if (ctx->budget_exhausted) return;
    // Advance the cross-product odometer.
    size_t k = 0;
    while (k < pick.size()) {
      if (++pick[k] < candidates[k].size()) break;
      pick[k] = 0;
      ++k;
    }
    if (k == pick.size()) break;
  }
}

double GcHeuristic::ComputeWithCap(const SearchState& s, int64_t tau,
                                   int max_groups, SearchStats* stats) const {
  if (stats != nullptr) ++stats->heuristic_calls;
  double own_cost = s.Cost(weights_);

  // Groups still violated under s (the table path materializes the set as
  // one bitset pass; the legacy path scans per group).
  std::vector<int> violated;
  if (evaluator_ != nullptr) {
    violated = evaluator_->ViolatedGroupIds(s);
  } else {
    for (int g = 0; g < index_.size(); ++g) {
      if (GroupViolates(g, s)) violated.push_back(g);
    }
  }
  if (violated.empty()) return own_cost;  // s itself is a goal state

  // Select up to max_groups difference sets: frequency order (the index is
  // pre-sorted by descending edge count), preferring pairwise-disjoint
  // difference sets first to keep the bound tight, then filling remaining
  // slots in frequency order.
  std::vector<int> selected;
  AttrSet covered;
  for (int g : violated) {
    if (static_cast<int>(selected.size()) >= max_groups) break;
    if (!index_.group(g).diff.Intersects(covered)) {
      selected.push_back(g);
      covered = covered.Union(index_.group(g).diff);
    }
  }
  for (int g : violated) {
    if (static_cast<int>(selected.size()) >= max_groups) break;
    if (std::find(selected.begin(), selected.end(), g) == selected.end()) {
      selected.push_back(g);
    }
  }

  RecContext ctx;
  ctx.tau = tau;
  ctx.nodes_left = opts_.max_nodes;
  ctx.stats = stats;
  ctx.selected = selected;
  std::vector<int> unresolved;
  Rec(s, unresolved, selected, &ctx);

  if (ctx.best_cost == kInfinity) {
    // No goal state found below this state (within the inspected groups).
    // On budget exhaustion fall back to the always-valid monotone bound.
    return ctx.budget_exhausted ? own_cost : kInfinity;
  }
  return std::max(ctx.best_cost, own_cost);
}

double GcHeuristic::Compute(const SearchState& s, int64_t tau,
                            SearchStats* stats) const {
  return ComputeWithCap(s, tau, opts_.max_diffsets, stats);
}

double GcHeuristic::ComputeUncapped(const SearchState& s, int64_t tau,
                                    SearchStats* stats) const {
  return ComputeWithCap(s, tau, index_.size(), stats);
}

}  // namespace retrust
