// FD satisfaction checks and violating-pair enumeration over encoded
// instances.
//
// The kernels follow the paper's partition scheme (§6): hash-partition the
// tuples on the FD's LHS codes, sub-partition each class on the RHS code;
// an FD is violated exactly by pairs in the same partition but different
// sub-partitions. Variable codes participate like constants (a variable
// equals only itself), so V-instance semantics hold throughout.

#ifndef RETRUST_FD_VIOLATION_H_
#define RETRUST_FD_VIOLATION_H_

#include <vector>

#include "src/fd/fdset.h"
#include "src/graph/graph.h"
#include "src/relational/dictionary.h"

namespace retrust::exec {
class ThreadPool;
}  // namespace retrust::exec

namespace retrust {

/// True iff `inst` |= `fd`.
bool Satisfies(const EncodedInstance& inst, const FD& fd);

/// True iff `inst` |= every FD in `fds`.
bool Satisfies(const EncodedInstance& inst, const FDSet& fds);

/// All tuple pairs violating `fd` (u < v, lexicographic order). May be
/// quadratic in the size of a violating partition; intended for tests,
/// examples, and conflict-graph construction on realistic workloads. The
/// quadratic pair-emission phase is block-partitioned over the violating
/// LHS classes and run on `pool` (nullable = serial). Per-chunk edge
/// buffers are merged in chunk order and the result is canonically sorted,
/// so the output is BIT-IDENTICAL for any thread count.
std::vector<Edge> ViolatingPairs(const EncodedInstance& inst, const FD& fd,
                                 exec::ThreadPool* pool = nullptr);

/// Number of tuples involved in at least one violation of `fds`.
int64_t CountViolatingTuples(const EncodedInstance& inst, const FDSet& fds);

}  // namespace retrust

#endif  // RETRUST_FD_VIOLATION_H_
