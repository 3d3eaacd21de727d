// Conflict graphs (paper Definition 6): vertices are tuples, edges connect
// tuple pairs violating at least one FD. Each edge carries the bitmask of
// violating FDs (Σ indices), matching the edge labels of Figure 2.

#ifndef RETRUST_FD_CONFLICT_GRAPH_H_
#define RETRUST_FD_CONFLICT_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/fd/fdset.h"
#include "src/fd/violation.h"
#include "src/graph/graph.h"
#include "src/relational/dictionary.h"

namespace retrust {

/// Conflict graph of an instance w.r.t. an FD set.
struct ConflictGraph {
  Graph graph;
  /// Parallel to graph.edges(): bit i set iff the pair violates fds.fd(i).
  std::vector<uint64_t> edge_fd_mask;

  size_t num_edges() const { return graph.num_edges(); }
};

/// Builds the conflict graph of `inst` w.r.t. `fds` (at most 64 FDs).
/// Edges are deduplicated across FDs and sorted (u, v) ascending, so all
/// downstream algorithms (greedy vertex cover in particular) are
/// deterministic. Per-FD violating-pair enumeration runs on `pool`
/// (nullable = serial); the cross-FD mask merge and the canonical edge sort
/// make the graph BIT-IDENTICAL for any thread count.
ConflictGraph BuildConflictGraph(const EncodedInstance& inst,
                                 const FDSet& fds,
                                 exec::ThreadPool* pool = nullptr);

}  // namespace retrust

#endif  // RETRUST_FD_CONFLICT_GRAPH_H_
