#include "src/repair/multi_repair.h"

#include <algorithm>
#include <unordered_set>

#include "src/util/timer.h"

namespace retrust {
namespace {

// Lazy gc evaluation, as in ModifyFds: children carry their parent's
// priority as a lower bound until they surface. After a τ decrease, stale
// evaluated priorities remain valid lower bounds (gc grows as τ shrinks),
// so entries are simply demoted to unevaluated instead of recomputed.
struct OpenEntry {
  double priority;
  double cost;
  int64_t seq;
  bool evaluated;
  SearchState state;
};

struct EntryGreater {
  bool operator()(const OpenEntry& a, const OpenEntry& b) const {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.seq > b.seq;
  }
};

}  // namespace

MultiRepairResult FindRepairsFds(const FdSearchContext& ctx, int64_t tau_lo,
                                 int64_t tau_hi, SearchMode mode) {
  Timer timer;
  MultiRepairResult result;
  SearchStats& stats = result.stats;
  const GcHeuristic& h = ctx.heuristic();
  const bool astar = mode == SearchMode::kAStar;
  int64_t tau = tau_hi;  // line 2

  std::vector<OpenEntry> open;
  EntryGreater greater;
  int64_t seq = 0;
  SearchState root = SearchState::Root(ctx.sigma().size());
  open.push_back({root.Cost(ctx.weights()), root.Cost(ctx.weights()), seq++,
                  !astar, root});
  ++stats.states_generated;

  while (!open.empty() && tau >= tau_lo) {  // line 4
    std::pop_heap(open.begin(), open.end(), greater);
    OpenEntry top = std::move(open.back());
    open.pop_back();

    if (!top.evaluated) {
      double gc = h.Compute(top.state, tau, &stats);
      if (gc == GcHeuristic::kInfinity) continue;
      top.priority = std::max(gc, top.cost);
      top.evaluated = true;
      if (!open.empty() && open.front().priority < top.priority) {
        open.push_back(std::move(top));
        std::push_heap(open.begin(), open.end(), greater);
        continue;
      }
    }
    ++stats.states_visited;

    int64_t cover = ctx.CoverSize(top.state, &stats);
    int64_t delta_p = ctx.alpha() * cover;
    if (delta_p <= tau) {  // line 8
      FdRepair repair{top.state, top.state.Apply(ctx.sigma()),
                      top.state.Cost(ctx.weights()), cover, delta_p};
      result.repairs.push_back({std::move(repair), delta_p, tau});  // line 9
      tau = delta_p - 1;  // line 10
      if (tau < tau_lo) break;
      // Line 11: gc depends on τ. Evaluated priorities computed for the old
      // (larger) τ are still lower bounds for the new τ, so demote them to
      // unevaluated — they will be re-evaluated lazily when they surface.
      if (astar) {
        for (OpenEntry& e : open) e.evaluated = false;
      }
    }

    // Lines 14-17: expand (goal states too — their descendants may serve
    // smaller τ).
    for (SearchState& child : ctx.space().Children(top.state)) {
      double child_cost = child.Cost(ctx.weights());
      open.push_back({std::max(top.priority, child_cost), child_cost, seq++,
                      !astar, std::move(child)});
      std::push_heap(open.begin(), open.end(), greater);
      ++stats.states_generated;
    }
  }

  stats.seconds = timer.ElapsedSeconds();
  return result;
}

MultiRepairResult SamplingRepairs(const FdSearchContext& ctx, int64_t tau_lo,
                                  int64_t tau_hi, int64_t step,
                                  const ModifyFdsOptions& opts) {
  Timer timer;
  MultiRepairResult result;
  std::unordered_set<SearchState, SearchStateHash> seen;
  if (step <= 0) step = 1;
  for (int64_t tau = tau_hi; tau >= tau_lo; tau -= step) {
    ModifyFdsResult r = ModifyFds(ctx, tau, opts);
    result.stats.Accumulate(r.stats);
    if (!r.repair.has_value()) continue;
    if (seen.insert(r.repair->state).second) {
      int64_t delta_p = r.repair->delta_p;
      result.repairs.push_back({std::move(*r.repair), delta_p, tau});
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace retrust
