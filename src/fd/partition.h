// Equivalence-class partitions of tuples under attribute-set projections —
// the workhorse of exact FD checking and TANE-style discovery (paper §8.1
// uses an FD discovery pass to seed the experiments).
//
// We use the "error" measure from TANE: e(X) = Σ over classes (|c| - 1)
// = n - #classes. X -> A holds exactly iff e(X) = e(X ∪ {A}), i.e.
// refining by A does not split any class.

#ifndef RETRUST_FD_PARTITION_H_
#define RETRUST_FD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/relational/dictionary.h"

namespace retrust {

/// Partition of tuple ids by equality on an attribute set.
struct Partition {
  /// Dense class label per tuple, in [0, num_classes).
  std::vector<int32_t> labels;
  int32_t num_classes = 0;

  /// TANE error: number of tuples minus number of classes.
  int64_t Error() const {
    return static_cast<int64_t>(labels.size()) - num_classes;
  }
};

/// A partition's classes of size >= 2 (the "stripped" representation) in
/// CSR form, in label order (labels are assigned in first-occurrence order,
/// so class k's smallest tuple id is ascending in k — a deterministic
/// work-unit order for sharded kernels). `members` holds each class's tuple
/// ids ascending, classes back to back.
struct StrippedCsr {
  std::vector<TupleId> members;
  std::vector<int32_t> offsets;  ///< offsets[i]..offsets[i+1) in members

  int num_classes() const { return static_cast<int>(offsets.size()) - 1; }
};

/// The stripped classes of `p`. O(n).
StrippedCsr StripClasses(const Partition& p);

/// Partition of `inst` on `attrs` (empty set => single class).
Partition PartitionBy(const EncodedInstance& inst, AttrSet attrs);

/// Refines `base` (a partition on X) by attribute `a`, producing the
/// partition on X ∪ {a}. O(n).
Partition Refine(const EncodedInstance& inst, const Partition& base,
                 AttrId a);

/// True iff X -> A holds exactly on `inst` (via partition refinement).
bool HoldsExactly(const EncodedInstance& inst, AttrSet x, AttrId a);

}  // namespace retrust

#endif  // RETRUST_FD_PARTITION_H_
