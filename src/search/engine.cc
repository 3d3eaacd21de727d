// The FD-modification search engine (paper §5, Algorithm 2): one open-list
// loop, three policies (src/search/policy.h; DESIGN.md "Search policies and
// lower bounds"). It defines retrust::ModifyFds, the single entry point of
// the search, over a prebuilt FdSearchContext:
//
//   kExact    the paper's best-first loop, BIT-IDENTICAL to the pre-engine
//             ModifyFds (tests/search_policy_test.cc holds an in-test
//             reimplementation of the legacy loop as the oracle);
//   kAnytime  weighted-A* (key = cost + w·(f − cost)) with incumbent
//             tracking: the first goal popped costs at most w·optimal and
//             is surfaced immediately (ModifyFdsResult::incumbents), then
//             refined until the open list proves optimality or a budget/
//             deadline/cancel interruption returns the best incumbent
//             with a suboptimality bound;
//   kGreedy   pure heuristic descent (key = f − cost), first goal wins.
//
// The non-exact policies additionally prune whole subtrees whose δP floor
// (the admissible cover lower bound of src/search/bound.h) already
// exceeds τ. All policies reuse the context's shared evaluation layer. One
// search runs serially on the calling thread; parallelism runs across
// searches (Session batches, service workers) over one const context.
//
// Layering: search/ sits ON TOP of repair/ (it consumes FdSearchContext
// and the ModifyFdsOptions/Result types declared in repair/modify_fds.h).
// Only policy.h — the leaf knob header — is visible below.

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "src/obs/trace.h"
#include "src/repair/modify_fds.h"
#include "src/search/bound.h"
#include "src/util/timer.h"

namespace retrust {

namespace {

using search::SearchPolicy;

// Costs within kEps of each other are equal. Exact breaks such ties among
// goals by smaller δP (Definition 4's tie-break on distance to I).
constexpr double kEps = 1e-9;

// Open-list entry. gc evaluation is LAZY: children are pushed with their
// parent's priority as a lower bound (gc is monotone along tree edges —
// a child's descendants are a subset of its parent's) and get their own
// gc computed only when they reach the top of the heap. This cuts gc
// evaluations from O(states generated) to O(states visited).
//
// `priority` is the policy's ORDER KEY: f = max(gc, cost) for exact,
// cost + w·(f − cost) for anytime, f − cost for greedy. Lazy entries hold
// a lower bound of their true key (every key form is monotone in f, so a
// lower bound of f maps to a lower bound of the key); `evaluated` marks
// keys that are final.
struct OpenEntry {
  double priority;   // policy order key; a lower bound until `evaluated`
  double cost;       // cost(S), for tie-breaking
  int64_t seq;       // FIFO tie-break for determinism
  bool evaluated;    // true once priority is the entry's exact key
  SearchState state;

  bool operator<(const OpenEntry& o) const {
    // The open list is a max-heap; invert.
    if (priority != o.priority) return priority > o.priority;
    if (cost != o.cost) return cost > o.cost;
    return seq > o.seq;
  }
};

// The open list: a binary heap under OpenEntry::operator<, so the cheapest
// key is on top. Push and Pop make the same std::push_heap/std::pop_heap
// calls std::priority_queue is specified as, so the visit order is the
// same; Pop moves the top entry (and its state's vector) out instead of
// copying it.
class OpenList {
 public:
  bool empty() const { return heap_.empty(); }
  const OpenEntry& top() const { return heap_.front(); }

  void Push(OpenEntry entry) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end());
  }

  OpenEntry Pop() {
    std::pop_heap(heap_.begin(), heap_.end());
    OpenEntry top = std::move(heap_.back());
    heap_.pop_back();
    return top;
  }

 private:
  std::vector<OpenEntry> heap_;
};

}  // namespace

ModifyFdsResult ModifyFds(const FdSearchContext& ctx, int64_t tau,
                          const ModifyFdsOptions& opts) {
  Timer timer;
  ModifyFdsResult result;
  SearchStats& stats = result.stats;
  // Phase tracing: null on the untraced path, so every hook below is one
  // pointer test and no clock read. Timing never feeds into the schedule,
  // so traced and untraced searches visit identical states.
  obs::SearchPhaseStats* const phases = opts.phase_trace;
  const bool astar = opts.mode == SearchMode::kAStar;
  const SearchPolicy policy = opts.policy.policy;
  const bool exact = policy == SearchPolicy::kExact;
  const bool anytime = policy == SearchPolicy::kAnytime;
  const bool greedy = policy == SearchPolicy::kGreedy;
  const double w =
      anytime ? std::max(1.0, opts.policy.weighting_factor) : 1.0;

  // Order key from an estimate f = max(gc, cost) and the state cost. The
  // exact path NEVER goes through this function: it keeps the original
  // max(gc, cost) expression verbatim, because cost + w·(f − cost) with
  // w = 1 is not the same double as f and would break bit-identity with
  // the pre-engine loop.
  auto key_of = [&](double f, double cost) {
    return greedy ? f - cost : cost + w * (f - cost);
  };

  std::unique_ptr<search::CoverLowerBound> lb;
  if (!exact) lb = std::make_unique<search::CoverLowerBound>(ctx);

  // Cost cap for the non-exact policies: a state (or child) costlier than
  // this cannot become a repair worth keeping. Starts at the caller's
  // initial_upper_bound, if any; the incumbent check below is separate
  // (strict improvement) and uses best->distc directly.
  double cost_ub = std::numeric_limits<double>::infinity();
  if (!exact && opts.policy.initial_upper_bound > 0) {
    cost_ub = opts.policy.initial_upper_bound;
  }

  OpenList pq;
  int64_t seq = 0;
  SearchState root = SearchState::Root(ctx.sigma().size());
  if (exact) {
    pq.Push({root.Cost(ctx.weights()), root.Cost(ctx.weights()), seq++,
             !astar, root});
  } else {
    // key_of(cost, cost) is a valid lower bound of the root's true key
    // for both non-exact forms (f >= cost always).
    const double root_cost = root.Cost(ctx.weights());
    pq.Push({key_of(root_cost, root_cost), root_cost, seq++, !astar, root});
  }
  ++stats.states_generated;

  std::optional<FdRepair> best;
  auto record_incumbent = [&] {
    const double now = timer.ElapsedSeconds();
    if (result.incumbents.empty()) stats.first_repair_seconds = now;
    result.incumbents.push_back(
        {now, best->distc, best->delta_p, stats.states_visited});
    ++stats.incumbent_improvements;
  };

  while (!pq.empty()) {
    // Interruption checks, once per popped state. Cancellation and deadlines
    // are timing-dependent by nature; the default options leave both off and
    // keep the search fully deterministic.
    if (opts.cancel != nullptr && opts.cancel->Cancelled()) {
      result.termination = SearchTermination::kCancelled;
      break;
    }
    if (opts.deadline_seconds > 0 &&
        timer.ElapsedSeconds() > opts.deadline_seconds) {
      result.termination = SearchTermination::kDeadline;
      break;
    }

    // Anytime optimality closure: every open entry's stored key lower-
    // bounds its true key c + w·(f − c), and any goal in its subtree costs
    // at least f >= key / w. Once the cheapest open key says no subtree
    // can beat the incumbent, the incumbent is proven cost-optimal.
    if (anytime && best.has_value() &&
        pq.top().priority / w >= best->distc - kEps) {
      break;  // termination stays kCompleted; bound 1.0 below
    }

    OpenEntry top = pq.Pop();

    if (!top.evaluated) {
      // Deferred gc evaluation (A* only).
      double gc;
      {
        std::optional<obs::PhaseTimer> t;
        if (phases != nullptr) {
          t.emplace(&phases->evaluate_seconds, &phases->evaluate_count);
        }
        gc = ctx.heuristic().Compute(top.state, tau, &stats);
      }
      if (gc == GcHeuristic::kInfinity) continue;  // no goal below here
      if (exact) {
        top.priority = std::max(gc, top.cost);
      } else {
        top.priority = key_of(std::max(gc, top.cost), top.cost);
      }
      top.evaluated = true;
      if (!pq.empty() && pq.top().priority < top.priority) {
        pq.Push(std::move(top));  // someone else is cheaper now
        continue;
      }
    }

    ++stats.states_visited;
    if (opts.max_visited > 0 && stats.states_visited > opts.max_visited) {
      result.termination = SearchTermination::kVisitBudget;
      // Re-open the popped entry so the suboptimality floor below still
      // accounts for its subtree (no counter moves; the loop is over).
      pq.Push(std::move(top));
      break;
    }

    if (exact) {
      // Once a goal is known, states that cannot beat (or tie) it are done.
      // Every entry's priority is at least its cost, so this also drops
      // the states whose own cost busts the incumbent.
      if (best.has_value() && top.priority > best->distc + kEps) break;
    } else {
      // Anytime/greedy discard states that cannot strictly improve on the
      // incumbent (anytime forgoes exact's equal-cost δP tie-break scan)
      // or that bust the caller's initial upper bound. Subtree costs are
      // monotone, so a discarded state's descendants need no look either —
      // but they were pushed before the incumbent existed, hence the
      // re-check here at pop time.
      if (best.has_value() && top.cost > best->distc - kEps) continue;
      if (top.cost > cost_ub + kEps) continue;

      // Admissible δP floor: if even the matching over this state's DEAD
      // groups keeps δP above τ for every descendant, the whole subtree
      // is goal-free.
      int64_t floor_value;
      {
        std::optional<obs::PhaseTimer> t;
        if (phases != nullptr) {
          t.emplace(&phases->bound_seconds, &phases->bound_count);
        }
        floor_value = lb->DeltaPFloor(top.state, &stats);
      }
      if (floor_value > tau) {
        ++stats.lb_prunes;
        continue;
      }
    }

    int64_t cover;
    {
      std::optional<obs::PhaseTimer> t;
      if (phases != nullptr) {
        t.emplace(&phases->cover_seconds, &phases->cover_count);
      }
      cover = ctx.CoverSize(top.state, &stats);
    }
    int64_t delta_p = ctx.alpha() * cover;
    if (delta_p <= tau) {
      // Goal state.
      double cost = top.state.Cost(ctx.weights());
      if (exact) {
        if (!best.has_value()) {
          best = FdRepair{top.state, top.state.Apply(ctx.sigma()), cost,
                          cover, delta_p};
          record_incumbent();
          continue;  // keep scanning for equal-cost goals with smaller δP
        }
        if (cost <= best->distc + kEps && delta_p < best->delta_p) {
          best = FdRepair{top.state, top.state.Apply(ctx.sigma()), cost,
                          cover, delta_p};
          record_incumbent();
        }
        continue;  // children of a goal state only cost more
      }
      // Anytime/greedy incumbent rule: keep the strictly cheaper repair,
      // or the smaller δP at (epsilon-)equal cost.
      if (!best.has_value() || cost < best->distc - kEps ||
          (cost <= best->distc + kEps && delta_p < best->delta_p)) {
        best = FdRepair{top.state, top.state.Apply(ctx.sigma()), cost,
                        cover, delta_p};
        record_incumbent();
      }
      if (greedy) break;  // first goal wins; no optimality claim
      continue;           // anytime: keep refining toward optimal
    }

    // Expand. Children inherit the parent's priority as a lower bound;
    // the ones surviving the bound check are pushed in canonical order.
    ++stats.expansions;
    std::optional<obs::PhaseTimer> expand_timer;
    if (phases != nullptr) {
      expand_timer.emplace(&phases->expand_seconds, &phases->expand_count);
    }
    std::vector<SearchState> children = ctx.space().Children(top.state);
    std::vector<double> lower(children.size());
    std::vector<double> child_cost(children.size());
    std::vector<char> keep(children.size(), 1);
    if (exact) {
      for (size_t i = 0; i < children.size(); ++i) {
        child_cost[i] = children[i].Cost(ctx.weights());
        lower[i] = std::max(top.priority, child_cost[i]);
        if (best.has_value() && lower[i] > best->distc + kEps) keep[i] = 0;
      }
    } else {
      // Recover the parent's estimate f from its key (exact inverse of
      // key_of), bound each child's f from below by max(f_parent, cost) —
      // f is monotone along tree edges — and key the child by that bound.
      const double f_parent =
          greedy ? top.priority + top.cost
                 : top.cost + (top.priority - top.cost) / w;
      for (size_t i = 0; i < children.size(); ++i) {
        child_cost[i] = children[i].Cost(ctx.weights());
        const double f_low = std::max(f_parent, child_cost[i]);
        lower[i] = key_of(f_low, child_cost[i]);
        // f lower-bounds every goal cost in the child's subtree, so a
        // child whose floor cannot strictly beat the incumbent — or whose
        // own cost busts the initial upper bound — is dead on arrival.
        if (best.has_value() && f_low > best->distc - kEps) keep[i] = 0;
        if (child_cost[i] > cost_ub + kEps) keep[i] = 0;
      }
    }
    for (size_t i = 0; i < children.size(); ++i) {
      if (!keep[i]) continue;
      pq.Push({lower[i], child_cost[i], seq++, !astar,
               std::move(children[i])});
      ++stats.states_generated;
    }
  }

  result.repair = std::move(best);
  stats.seconds = timer.ElapsedSeconds();

  // Proven suboptimality bound at the moment the search stopped.
  if (result.repair.has_value()) {
    if (greedy) {
      stats.suboptimality_bound = 0.0;  // no claim
    } else if (result.termination == SearchTermination::kCompleted) {
      // Open list exhausted, exact's bound break, or anytime's closure:
      // nothing left can beat the repair.
      stats.suboptimality_bound = 1.0;
    } else {
      // Interrupted with an incumbent in hand. Every unexplored state
      // descends from an open entry (interruption re-opened the in-flight
      // pop above), and each open subtree's goals cost >= stored key / w,
      // so distc / (cheapest open key / w) bounds distc / optimal.
      const double floor = pq.empty()
                               ? result.repair->distc
                               : std::min(result.repair->distc,
                                          pq.top().priority / w);
      if (floor > kEps) {
        stats.suboptimality_bound =
            std::max(1.0, result.repair->distc / floor);
        if (anytime) {
          // The weighted-A* first-goal guarantee holds independently.
          stats.suboptimality_bound =
              std::min(stats.suboptimality_bound, w);
        }
      } else if (anytime) {
        stats.suboptimality_bound = w;
      }  // exact interrupted with floor 0: no finite claim — leave 0.
    }
  }
  return result;
}

}  // namespace retrust
