// Difference sets (paper §5.2): for a conflict-graph edge (t_i, t_j), the
// set of attributes on which the two tuples disagree.
//
// Key property (the gc heuristic's atomicity trick): whether an edge
// violates an FD X -> A depends only on its difference set d —
// the pair agrees on X iff X ∩ d = ∅ and disagrees on A iff A ∈ d.
// DifferenceSetIndex therefore groups conflict edges by difference set and
// treats each group atomically.
//
// Two builders produce the same index (DESIGN.md "Blocked difference-set
// construction"):
//   * naive  — all O(n²) pairs, each difference set computed directly (the
//     oracle);
//   * blocked — a pair can only be a conflict edge of Σ (or of any Σ' the
//     search reaches, which only extends left-hand sides) if it agrees on
//     some FD's whole LHS X, so pairs are enumerated inside the stripped
//     classes of π_X for the minimal distinct LHSs of Σ, each pair owned by
//     the first such X it agrees on. An empty LHS makes π_∅ one class, so
//     pairs that disagree everywhere come out as ordinary edges.
// Both are bit-identical at any thread count; blocked is the default.

#ifndef RETRUST_FD_DIFFERENCE_SET_H_
#define RETRUST_FD_DIFFERENCE_SET_H_

#include <string>
#include <utility>
#include <vector>

#include "src/fd/conflict_graph.h"

namespace retrust {

/// Difference set of a tuple pair: attributes with unequal codes. Exits as
/// soon as the set reaches all attributes. `cols[a]` is
/// inst.ColumnData(a), so each cell test is one indexed load with no
/// Flat(t, a) multiply.
AttrSet DiffSetOfPair(const int32_t* const* cols, int num_attrs, TupleId t1,
                      TupleId t2);

/// One group of conflict edges sharing a difference set; `edges` is in
/// canonical ascending (u, v) order.
struct DiffSetGroup {
  AttrSet diff;
  std::vector<Edge> edges;

  /// Number of conflict pairs in the group — the heuristic's ranking key.
  int64_t frequency() const { return static_cast<int64_t>(edges.size()); }
};

/// Per-phase observability of one index build (the --timing surface of
/// csv_repair_tool and the scaling bench).
struct DiffSetBuildStats {
  int64_t pairs_candidate = 0;     ///< pairs enumerated inside classes
  int64_t pairs_owned = 0;         ///< pairs passing the ownership rule
  int64_t pairs_materialized = 0;  ///< conflict edges stored in groups
  double partition_seconds = 0.0;  ///< per-LHS partition phase
  double enumerate_seconds = 0.0;  ///< in-class pair enumeration phase
  double group_seconds = 0.0;      ///< merge + group + rank phase
  double total_seconds = 0.0;
};

/// Which front door BuildDifferenceSetIndex uses. kNaive (all pairs, each
/// difference set computed directly) stays available as the oracle the
/// blocked build is tested and benchmarked against.
enum class DiffSetBuildMode { kBlocked, kNaive };

/// How a delta landed on a DifferenceSetIndex: blast-radius counters for
/// observability (the wire reply and ApplyStats::reuse_ratio report them).
struct IndexPatch {
  int64_t edges_removed = 0;
  int64_t edges_added = 0;
  int groups_preserved = 0;  ///< old groups whose edge list survived intact
  int groups_changed = 0;    ///< post-patch groups that are new or changed
};

/// Conflict edges grouped by difference set, ordered by descending edge
/// frequency (ties: smaller attribute mask first) — the order in which the
/// heuristic prefers to pick them.
class DifferenceSetIndex {
 public:
  DifferenceSetIndex() = default;

  /// Restores an index from its serialized groups (src/persist/). The
  /// groups must already be in the canonical (descending frequency,
  /// smaller mask) order a live index produced — snapshots save them in
  /// that order, and the reader rejects edges and difference sets outside
  /// the instance's shape.
  explicit DifferenceSetIndex(std::vector<DiffSetGroup> groups)
      : groups_(std::move(groups)) {}

  /// Incrementally maintains the index after `inst` had a delta applied
  /// (delta.h). `dirty` is the plan's post-delta dirty id set (ascending)
  /// and `remap` its old->new id map; the index must have been built over
  /// the pre-delta instance with the same `sigma`. Surviving clean edges
  /// are kept as-is, only pairs with a dirty endpoint are (re)examined —
  /// O(Δ·n·m) comparisons sharded on `pool` (nullable = serial) — and the
  /// result is BIT-IDENTICAL to BuildDifferenceSetIndex over the
  /// post-delta instance for any thread count (the index is a pure
  /// function of {pair -> difference set}, and the delta only changes
  /// pairs with a dirty endpoint). The scan compares each dirty tuple
  /// with every partner, so an empty-LHS FD's full-disagreement pairs take
  /// the same path as every other edge.
  IndexPatch ApplyDelta(const EncodedInstance& inst, const FDSet& sigma,
                        const std::vector<TupleId>& dirty,
                        const std::vector<TupleId>& remap,
                        exec::ThreadPool* pool);

  int size() const { return static_cast<int>(groups_.size()); }
  bool empty() const { return groups_.empty(); }
  const DiffSetGroup& group(int i) const { return groups_[i]; }
  const std::vector<DiffSetGroup>& groups() const { return groups_; }

  /// Indices of groups whose difference set violates at least one FD of
  /// `fds` (i.e. groups still in conflict under a candidate Σ').
  std::vector<int> ViolatingGroups(const FDSet& fds) const;

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<DiffSetGroup> groups_;
};

/// True iff difference set `diff` violates at least one FD in `fds`.
bool DiffSetViolates(AttrSet diff, const FDSet& fds);

/// The blocked front door: pairs are enumerated only inside the stripped
/// classes of π_X, X ranging over the minimal distinct LHSs of `sigma` in
/// ascending mask order (duplicates and supersets of another LHS add no
/// pair, so they are skipped). A pair is owned by the first such X it
/// agrees on, so each candidate edge is examined once. Work is sharded
/// over (LHS, class) units on `pool` (nullable = serial); each chunk files
/// its conflict edges under their difference set, and each group is then
/// ordered on its own in O(edges + n) — BIT-IDENTICAL to the naive build
/// for any thread count. O(Σ_classes |c|²·m) instead of O(n²·m).
DifferenceSetIndex BuildDifferenceSetIndexBlocked(
    const EncodedInstance& inst, const FDSet& sigma, exec::ThreadPool* pool,
    DiffSetBuildStats* stats = nullptr);

/// Builds the difference-set index of (inst, sigma), sharded on the
/// borrowed `pool` (nullable = serial). The result is BIT-IDENTICAL for
/// any thread count and for either build mode.
/// FdSearchContext builds Σ's index with it (Algorithm 4 reads its covers
/// from that index); the standalone RepairData oracle builds a Σ' index.
/// `stats`, when non-null, receives the build's per-phase breakdown.
DifferenceSetIndex BuildDifferenceSetIndex(
    const EncodedInstance& inst, const FDSet& sigma, exec::ThreadPool* pool,
    DiffSetBuildMode mode = DiffSetBuildMode::kBlocked,
    DiffSetBuildStats* stats = nullptr);

}  // namespace retrust

#endif  // RETRUST_FD_DIFFERENCE_SET_H_
