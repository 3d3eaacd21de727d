// The FD-modification search engine: one open-list loop, three policies
// (src/search/policy.h; DESIGN.md "Search policies and lower bounds").
//
// This generalizes Algorithm 2's best-first loop (formerly inlined in
// src/repair/modify_fds.cc) behind a pluggable SearchPolicy:
//
//   kExact    the paper's loop, BIT-IDENTICAL to the pre-engine ModifyFds
//             (tests/search_policy_test.cc holds an in-test
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
// and the ModifyFdsOptions/Result types); repair/modify_fds.cc delegates
// its public ModifyFds entry points here. Only policy.h — the leaf knob
// header — is visible below.

#ifndef RETRUST_SEARCH_ENGINE_H_
#define RETRUST_SEARCH_ENGINE_H_

#include <cstdint>

#include "src/repair/modify_fds.h"

namespace retrust::search {

/// Runs the search selected by `opts.policy` over `ctx` at threshold τ.
/// ModifyFds(ctx, tau, opts) is the stable public alias of this call.
ModifyFdsResult RunSearch(const FdSearchContext& ctx, int64_t tau,
                          const ModifyFdsOptions& opts);

}  // namespace retrust::search

#endif  // RETRUST_SEARCH_ENGINE_H_
