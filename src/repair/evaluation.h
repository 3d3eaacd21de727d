// The shared δP evaluation layer: incidence table → group bitset →
// memoized cover (DESIGN.md "The δP evaluation pipeline").
//
// Single source of truth for "which difference-set groups does state S
// violate" and "what does a greedy cover of those groups cost":
// FdSearchContext::CoverSize, the gc heuristic's group tests and
// Algorithm 3 covers, and the unified-cost baseline all evaluate through
// the one DeltaPEvaluator owned by their FdSearchContext — so one
// ViolationTable and one CoverMemo serve every search, and every τ item of
// a Session batch, over a given (Σ, I).
//
// Every const method is thread-safe, and every result is bit-identical to
// the legacy per-state FD-set scans this layer replaced
// (tests/evaluator_oracle_test.cc enforces the equivalence against
// re-implementations of the legacy path).
//
// Both stages derive from the difference-set index and nothing else, so
// the evaluator is never patched: a delta's new context builds a new one
// over the patched index (a new table, an empty memo), and a snapshot
// restore builds the table the same way and preloads only the saved
// covers.

#ifndef RETRUST_REPAIR_EVALUATION_H_
#define RETRUST_REPAIR_EVALUATION_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/fd/violation_table.h"
#include "src/graph/cover_memo.h"
#include "src/repair/state.h"

namespace retrust {

/// Evaluates δP building blocks for the states of one (Σ, I) search.
class DeltaPEvaluator {
 public:
  /// The evaluator's serialized cache (src/persist/): the memo's cached
  /// covers. The violation table is not saved; a restore rebuilds it.
  struct WarmState {
    CoverMemo::SnapshotEntries covers;
  };

  /// Builds the violation table (sharded on the borrowed `pool`, nullable
  /// = serial; bit-identical for any thread count) and a cover memo over
  /// the index's groups, pre-seeded with `warm` (empty for a fresh build
  /// or after a delta; a snapshot's saved covers on restore). Answers do
  /// not depend on `warm` — cached cover values are pure functions of
  /// their keys. `index` must outlive the evaluator (FdSearchContext owns
  /// both, index first).
  DeltaPEvaluator(const FDSet& sigma, const DifferenceSetIndex& index,
                  int num_tuples, WarmState warm, exec::ThreadPool* pool);

  /// Exports the warm state a snapshot saves (deterministic byte-for-byte
  /// given the same cache contents).
  WarmState ExportWarmState() const;

  const ViolationTable& table() const { return table_; }
  const CoverMemo& memo() const { return memo_; }

  /// True iff diff-set group g is violated under `s`.
  bool GroupViolated(int g, const SearchState& s) const {
    return table_.GroupViolated(g, s.ext);
  }

  /// Indices of the groups violated under `s`, ascending.
  std::vector<int> ViolatedGroupIds(const SearchState& s) const;

  /// |C2opt(Σ', I)| for the relaxation `s`: memoized greedy cover of the
  /// violated groups in canonical order. Counts a recomputation in
  /// stats->vc_computations and a memo answer in stats->vc_memo_hits
  /// (their sum is what the legacy path counted as vc_computations).
  int32_t CoverSize(const SearchState& s, SearchStats* stats) const;

  /// Greedy cover over `groups` in the GIVEN order (Algorithm 3
  /// accumulates unresolved groups in selection order, and greedy covers
  /// are order-sensitive); memoized with the order as part of the key.
  int32_t CoverOfGroups(const std::vector<int>& groups,
                        SearchStats* stats) const;

 private:
  /// Pooled per-call subset-key buffers (no process-lifetime thread_local
  /// state; the pool dies with the evaluator). Ordered lookups need none:
  /// the caller's sequence is the key.
  std::unique_ptr<GroupBitset> AcquireKey() const;
  void ReleaseKey(std::unique_ptr<GroupBitset> key) const;

  ViolationTable table_;
  CoverMemo memo_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<GroupBitset>> key_pool_;
};

}  // namespace retrust

#endif  // RETRUST_REPAIR_EVALUATION_H_
