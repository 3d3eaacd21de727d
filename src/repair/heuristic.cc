#include "src/repair/heuristic.h"

#include <algorithm>
#include <bit>

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
  for (int i = 0; i < sigma.size(); ++i) {
    max_candidates_ += space.allowed(i).Count();
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
  index_.VisitGroups([&](auto edges_of) {
    for (int g : groups) {
      for (const auto& e : edges_of(g)) edges.emplace_back(e.u, e.v);
    }
  });
  MatchingCoverScratch scratch(num_tuples_);
  return scratch.CoverSize(edges);
}

void GcHeuristic::Rec(size_t pos, RecContext* ctx) const {
  if (ctx->budget_exhausted) return;
  if (--ctx->nodes_left <= 0) {
    ctx->budget_exhausted = true;
    return;
  }
  // Branch-and-bound: extensions only grow the (monotone) cost, so a state
  // already at/above the best known goal cost cannot improve the bound.
  double cost = 0.0;
  for (double w : ctx->weights) cost += w;
  if (cost >= ctx->best_cost) return;
  if (pos == ctx->selected.size()) {
    ctx->best_cost = cost;
    return;
  }
  SearchState& state = ctx->state;
  const int d = ctx->selected[pos];

  // A group might already be resolved by extensions made for an earlier
  // group; just move on.
  if (!GroupViolates(d, state)) {
    Rec(pos + 1, ctx);
    return;
  }

  // Option 1: leave d unresolved if the accumulated vertex-cover bound
  // still permits a goal (Algorithm 3 line 8).
  ctx->unresolved.push_back(d);
  int64_t bound = alpha_ * CoverOfGroups(ctx->unresolved, ctx->stats);
  bool feasible = opts_.strict_leave_check ? bound < ctx->tau
                                           : bound <= ctx->tau;
  if (feasible) {
    Rec(pos + 1, ctx);
  }
  ctx->unresolved.pop_back();
  if (ctx->budget_exhausted) return;

  // Option 2: resolve d by appending one attribute (from d) to each FD it
  // violates under the state. Enumerate the cross product of candidates.
  RecFrame& frame = ctx->frames[pos];
  frame.digits.clear();
  AttrSet diff = index_.group(d).diff;
  for (int i = 0; i < sigma_.size(); ++i) {
    const FD& fd = sigma_.fd(i);
    if (!diff.Contains(fd.rhs)) continue;
    if (fd.lhs.Union(state.ext[i]).Intersects(diff)) continue;
    AttrSet cands = diff.Intersect(space_.allowed(i)).Minus(state.ext[i]);
    if (cands.Empty()) return;  // this FD cannot be resolved via extension
    RecFrame::Digit& digit = frame.digits.emplace_back();
    digit.fd = i;
    digit.candidates = cands.bits();
    digit.left = cands.bits();
    digit.saved_ext = state.ext[i];
    digit.saved_weight = ctx->weights[i];
  }
  frame.weights.clear();
  for (RecFrame::Digit& digit : frame.digits) {
    digit.weight_base = static_cast<int>(frame.weights.size());
    for (AttrId a : AttrSet(digit.candidates)) {
      frame.weights.push_back(
          weights_.Weight(digit.saved_ext.Union(AttrSet::Single(a))));
    }
  }
  // Depth-first cross product over per-FD candidate attributes; digit 0
  // turns fastest and each digit picks its candidates in ascending order.
  while (true) {
    for (const RecFrame::Digit& digit : frame.digits) {
      const auto pick = static_cast<AttrId>(std::countr_zero(digit.left));
      state.ext[digit.fd] = digit.saved_ext.Union(AttrSet::Single(pick));
      ctx->weights[digit.fd] = frame.weights[digit.weight_base + digit.rank];
    }
    // Groups this extension resolves as a side effect are skipped lazily
    // at the head of Rec.
    Rec(pos + 1, ctx);
    if (ctx->budget_exhausted) break;
    // Advance the cross-product odometer.
    size_t k = 0;
    for (; k < frame.digits.size(); ++k) {
      RecFrame::Digit& digit = frame.digits[k];
      digit.left &= digit.left - 1;
      if (digit.left != 0) {
        ++digit.rank;
        break;
      }
      digit.left = digit.candidates;
      digit.rank = 0;
    }
    if (k == frame.digits.size()) break;
  }
  for (const RecFrame::Digit& digit : frame.digits) {
    state.ext[digit.fd] = digit.saved_ext;
    ctx->weights[digit.fd] = digit.saved_weight;
  }
}

double GcHeuristic::ComputeWithCap(const SearchState& s, int64_t tau,
                                   int max_groups, SearchStats* stats) const {
  if (stats != nullptr) ++stats->heuristic_calls;
  // The recursion's weights, summed the way WeightFunction::Cost sums them.
  std::vector<double> weights(s.ext.size());
  double own_cost = 0.0;
  for (size_t i = 0; i < s.ext.size(); ++i) {
    weights[i] = weights_.Weight(s.ext[i]);
    own_cost += weights[i];
  }

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
  selected.reserve(std::min(violated.size(), static_cast<size_t>(max_groups)));
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
  ctx.selected = std::move(selected);
  ctx.unresolved.reserve(ctx.selected.size());
  ctx.state = s;
  ctx.weights = std::move(weights);
  ctx.frames.resize(ctx.selected.size());
  for (RecFrame& frame : ctx.frames) {
    frame.digits.reserve(s.ext.size());
    frame.weights.reserve(static_cast<size_t>(max_candidates_));
  }
  Rec(0, &ctx);

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
