// Tuple-level mutation batches and their canonical application plan.
//
// A DeltaBatch describes inserts, cell updates, and deletes against one
// instance. Application order is fixed so every consumer (Instance,
// EncodedInstance, and the delta-maintained index stack above them) lands
// on the same post-delta layout:
//
//   1. updates, in list order (a later update to the same cell wins),
//      addressed by PRE-delta TupleIds;
//   2. deletes, by PRE-delta TupleIds, with swap-remove semantics: ids are
//      processed in descending order and each hole is filled by the row in
//      the last live slot, so only O(|deletes|) rows move and every
//      untouched tuple keeps its id (the delta's blast radius stays
//      proportional to the delta, which the incremental index maintenance
//      depends on);
//   3. inserts, appended in list order.
//
// PlanDelta resolves a batch into a DeltaPlan — the old->new id remap, the
// explicit row moves, and the set of "dirty" post-delta ids whose content
// is new, changed, or relocated. Derived structures (difference-set index,
// violation table, cover memo) are patched by comparing only dirty tuples
// against the relation: O(Δ·n) instead of the O(n²) full rebuild.

#ifndef RETRUST_RELATIONAL_DELTA_H_
#define RETRUST_RELATIONAL_DELTA_H_

#include <utility>
#include <vector>

#include "src/relational/instance.h"

namespace retrust {

/// One cell assignment t[attr] := value (constants or variables).
struct CellUpdate {
  TupleId tuple = -1;
  AttrId attr = -1;
  Value value;
};

/// A batch of tuple mutations against one instance. Ids refer to the
/// PRE-delta instance; see the application order in the file comment.
struct DeltaBatch {
  std::vector<Tuple> inserts;
  std::vector<CellUpdate> updates;
  std::vector<TupleId> deletes;

  bool Empty() const {
    return inserts.empty() && updates.empty() && deletes.empty();
  }
  size_t size() const {
    return inserts.size() + updates.size() + deletes.size();
  }

  DeltaBatch& Insert(Tuple t) {
    inserts.push_back(std::move(t));
    return *this;
  }
  DeltaBatch& Update(TupleId t, AttrId a, Value v) {
    updates.push_back({t, a, std::move(v)});
    return *this;
  }
  DeltaBatch& Delete(TupleId t) {
    deletes.push_back(t);
    return *this;
  }
};

/// How a DeltaBatch lands on an instance of a given pre-delta shape. The
/// plan is a pure function of (batch, old cardinality), shared by Instance
/// and EncodedInstance so both stay positionally aligned.
struct DeltaPlan {
  int old_num_tuples = 0;
  int new_num_tuples = 0;  ///< post-delta cardinality (after inserts)

  /// Pre-delta id -> post-delta id; -1 for deleted tuples. Tuples not
  /// moved by a swap-remove map to themselves.
  std::vector<TupleId> remap;

  /// Row moves (dst_slot, src_slot) realizing the swap-remove deletes, in
  /// execution order; after the moves the instance truncates to
  /// old_num_tuples - |deletes| rows and appends the inserts.
  std::vector<std::pair<TupleId, TupleId>> moves;

  /// Post-delta ids whose content is new, changed, or relocated — the
  /// delta's blast radius — ascending and deduplicated. Every conflict
  /// edge gained or lost by the delta has an endpoint in this set.
  std::vector<TupleId> dirty;
};

/// Resolves `delta` against a pre-delta instance with `num_tuples` rows and
/// `num_attrs` columns. Throws std::invalid_argument on out-of-range ids,
/// duplicate delete ids, insert arity mismatches, or a variable that names
/// another column or has an index outside [0, INT32_MAX) (before anything
/// is applied, so a failed plan never leaves an instance half-mutated).
DeltaPlan PlanDelta(const DeltaBatch& delta, int num_tuples, int num_attrs);

/// Advances per-attribute fresh-variable counters past every variable
/// `delta` writes (counter = max(counter, index + 1)): the one rule by
/// which Instance, EncodedInstance and Session keep their counters ahead
/// of injected variables. `delta` must have passed PlanDelta.
void AdvanceFreshVariableCounters(const DeltaBatch& delta,
                                  std::vector<int32_t>* counters);

}  // namespace retrust

#endif  // RETRUST_RELATIONAL_DELTA_H_
