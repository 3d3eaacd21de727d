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
//   * naive  — all O(n²) pairs through the conflict graph (the oracle);
//   * blocked — per-attribute equivalence-class partitions enumerate only
//     pairs that agree on at least one attribute, deduped by the
//     first-agreeing-attribute ownership rule; the residual pairs that
//     disagree EVERYWHERE are carried as a counted full-disagreement group
//     (edges materialized lazily, and only when a degenerate empty-LHS FD
//     makes them conflict edges at all).
// Both are bit-identical at any thread count; blocked is the default.

#ifndef RETRUST_FD_DIFFERENCE_SET_H_
#define RETRUST_FD_DIFFERENCE_SET_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/options.h"
#include "src/fd/conflict_graph.h"

namespace retrust {

/// Difference set of a tuple pair: attributes with unequal codes. Exits as
/// soon as the set reaches all attributes.
AttrSet DiffSetOfPair(const EncodedInstance& inst, TupleId t1, TupleId t2);

/// Column-pointer overload for the blocked build and delta discovery:
/// `cols[a]` is inst.ColumnData(a), so each cell test is one indexed load
/// with no Flat(t, a) multiply.
AttrSet DiffSetOfPair(const int32_t* const* cols, int num_attrs, TupleId t1,
                      TupleId t2);

/// One group of conflict edges sharing a difference set.
///
/// A group is either MATERIALIZED (`counted == 0`: the pairs live in
/// `edges`, canonical ascending order) or COUNTED (`counted > 0`,
/// `edges` empty): the blocked build's full-disagreement group, whose
/// `counted` pairs all share diff = the whole attribute universe and are
/// never stored. δP and the heuristic only ever need a group's diff and
/// frequency, so counted groups flow through search unchanged; the few
/// consumers that need actual pairs (greedy-matching covers, data repair)
/// go through DifferenceSetIndex::EdgesForCover, which materializes them
/// lazily from the bound instance.
struct DiffSetGroup {
  AttrSet diff;
  std::vector<Edge> edges;
  int64_t counted = 0;  ///< pairs represented without edges (0 = none)

  /// Logical number of conflict pairs in the group — the heuristic's
  /// ranking key, independent of materialization.
  int64_t frequency() const {
    return static_cast<int64_t>(edges.size()) + counted;
  }
};

/// Per-phase observability of one index build (the --timing surface of
/// csv_repair_tool and the scaling bench).
struct DiffSetBuildStats {
  int64_t pairs_candidate = 0;     ///< pairs enumerated inside classes
  int64_t pairs_owned = 0;         ///< pairs passing the ownership rule
  int64_t pairs_materialized = 0;  ///< conflict edges stored in groups
  int64_t pairs_counted = 0;       ///< full-disagreement pairs NOT stored
  double partition_seconds = 0.0;  ///< per-attribute partition phase
  double enumerate_seconds = 0.0;  ///< in-class pair enumeration phase
  double group_seconds = 0.0;      ///< merge + group + rank phase
  double total_seconds = 0.0;
};

/// Which front door BuildDifferenceSetIndex uses. kNaive (all pairs via
/// the conflict graph) stays available as the oracle the blocked build is
/// tested and benchmarked against.
enum class DiffSetBuildMode { kBlocked, kNaive };

/// How a delta landed on a DifferenceSetIndex: the group-id translation
/// consumers of the canonical group order (violation table, cover memo)
/// need to stay warm, plus blast-radius counters for observability.
struct IndexPatch {
  /// Pre-patch group id -> post-patch group id for groups whose difference
  /// set AND edge list survived the delta untouched; -1 for groups that
  /// gained/lost edges or were dropped. Preserved groups keep their
  /// relative order (the (frequency, diff) sort key is a total order and
  /// their keys did not change), which is what lets cover-memo entries
  /// over preserved groups be remapped instead of recomputed.
  std::vector<int32_t> old_to_new;
  int64_t edges_removed = 0;
  int64_t edges_added = 0;
  int groups_preserved = 0;  ///< old groups with old_to_new[g] >= 0
  int groups_changed = 0;    ///< post-patch groups that are new or changed
};

/// Conflict edges grouped by difference set, ordered by descending edge
/// frequency (ties: smaller attribute mask first) — the order in which the
/// heuristic prefers to pick them.
class DifferenceSetIndex {
 public:
  DifferenceSetIndex() = default;

  /// Builds the index from a conflict graph (the naive front door).
  DifferenceSetIndex(const EncodedInstance& inst, const ConflictGraph& cg);

  /// Sharded variant: per-edge difference sets are computed on `pool`
  /// (nullable = serial) by index, then grouped serially in the graph's
  /// canonical edge order — the index is BIT-IDENTICAL to the serial
  /// overload for any thread count.
  DifferenceSetIndex(const EncodedInstance& inst, const ConflictGraph& cg,
                     exec::ThreadPool* pool);

  /// Restores an index from its serialized groups (src/persist/). The
  /// groups must already be in the canonical (descending frequency,
  /// smaller mask) order a live index produced — snapshots save them in
  /// that order and the loader trusts it (the file checksum guards against
  /// corruption).
  explicit DifferenceSetIndex(std::vector<DiffSetGroup> groups);

  DifferenceSetIndex(const DifferenceSetIndex& o);
  DifferenceSetIndex& operator=(const DifferenceSetIndex& o);
  DifferenceSetIndex(DifferenceSetIndex&&) = default;
  DifferenceSetIndex& operator=(DifferenceSetIndex&&) = default;

  /// Incrementally maintains the index after `inst` had a delta applied
  /// (delta.h). `dirty` is the plan's post-delta dirty id set (ascending)
  /// and `remap` its old->new id map; the index must have been built over
  /// the pre-delta instance with the same `sigma`. Surviving clean edges
  /// are kept as-is, only pairs with a dirty endpoint are (re)examined —
  /// O(Δ·n·m) comparisons sharded on `pool` (nullable = serial) — and the
  /// result is BIT-IDENTICAL to BuildDifferenceSetIndex over the
  /// post-delta instance for any thread count (the index is a pure
  /// function of {pair -> difference set}, and the delta only changes
  /// pairs with a dirty endpoint).
  ///
  /// Precondition: no counted groups (throws std::logic_error otherwise).
  /// A counted group's pre-delta pair population is not recoverable from
  /// the post-delta instance, so in the degenerate empty-LHS-FD regime
  /// FdSearchContext::ApplyDelta rebuilds the index with the blocked
  /// builder instead of patching it.
  IndexPatch ApplyDelta(const EncodedInstance& inst, const FDSet& sigma,
                        const std::vector<TupleId>& dirty,
                        const std::vector<TupleId>& remap,
                        exec::ThreadPool* pool);

  int size() const { return static_cast<int>(groups_.size()); }
  bool empty() const { return groups_.empty(); }
  const DiffSetGroup& group(int i) const { return groups_[i]; }
  const std::vector<DiffSetGroup>& groups() const { return groups_; }

  /// True iff any group is counted (edges not materialized).
  bool HasCountedGroups() const;

  /// Binds the instance counted groups materialize their edges from.
  /// Must be called (with the instance the index was built over) before
  /// EdgesForCover touches a counted group; indexes without counted groups
  /// never need it. The instance must outlive the index's use and must not
  /// mutate while bound (a delta rebuilds the index, re-binding fresh).
  void BindInstance(const EncodedInstance* inst) { bound_ = inst; }

  /// The group's conflict pairs in canonical ascending order — for
  /// materialized groups a reference to `edges`; for counted groups the
  /// lazily materialized full-disagreement pair list (cached; O(n²·m) on
  /// first touch, which only happens in the degenerate empty-LHS-FD regime
  /// where the naive build was quadratic anyway). Thread-safe; the
  /// returned reference stays valid for the index's lifetime.
  const std::vector<Edge>& EdgesForCover(int g) const;

  /// Indices of groups whose difference set violates at least one FD of
  /// `fds` (i.e. groups still in conflict under a candidate Σ').
  std::vector<int> ViolatingGroups(const FDSet& fds) const;

  std::string ToString(const Schema& schema) const;

 private:
  /// Folds a naive build's universe-diff group (pairs disagreeing on every
  /// attribute) into counted form so both builders emit identical indexes.
  void CanonicalizeCountedGroups(int num_attrs);

  std::vector<DiffSetGroup> groups_;
  const EncodedInstance* bound_ = nullptr;
  /// Lazy edge lists for counted groups, keyed by group id. Heap-pinned so
  /// the index stays movable and EdgesForCover's references survive moves;
  /// allocated whenever the index holds a counted group.
  struct LazyEdges {
    std::mutex mu;
    std::unordered_map<int, std::vector<Edge>> by_group;
  };
  mutable std::unique_ptr<LazyEdges> lazy_;
};

/// True iff difference set `diff` violates at least one FD in `fds`.
bool DiffSetViolates(AttrSet diff, const FDSet& fds);

/// The blocked front door (ROADMAP item 1): per-attribute partitions
/// (PartitionBy) restrict pair enumeration to equivalence classes, the
/// first-agreeing-attribute ownership rule emits each agree-somewhere pair
/// exactly once, and the residual disagree-everywhere pairs are counted,
/// not materialized. Work is sharded over (attribute, class) units on
/// `pool` (nullable = serial) with canonical merge order — BIT-IDENTICAL
/// to the naive build for any thread count. O(Σ_classes |c|²·m) instead of
/// O(n²·m); sub-quadratic whenever per-attribute classes stay small.
DifferenceSetIndex BuildDifferenceSetIndexBlocked(
    const EncodedInstance& inst, const FDSet& sigma, exec::ThreadPool* pool,
    DiffSetBuildStats* stats = nullptr);

/// Builds the difference-set index of (inst, sigma), sharded on a
/// short-lived pool per `eopts` (serial options spin up no pool). The
/// result is BIT-IDENTICAL for any thread count and for either build mode.
/// FdSearchContext builds Σ's index with it (Algorithm 4 reads its covers
/// from that index); the standalone RepairData oracle builds a Σ' index.
/// `stats`, when non-null, receives the build's per-phase breakdown.
DifferenceSetIndex BuildDifferenceSetIndex(
    const EncodedInstance& inst, const FDSet& sigma,
    const exec::Options& eopts,
    DiffSetBuildMode mode = DiffSetBuildMode::kBlocked,
    DiffSetBuildStats* stats = nullptr);

}  // namespace retrust

#endif  // RETRUST_FD_DIFFERENCE_SET_H_
