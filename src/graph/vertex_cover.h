// Vertex covers of conflict graphs.
//
// The repair pipeline needs a 2-approximate minimum vertex cover C2opt
// (paper §5, §6): we use the classic maximal-matching algorithm
// (Garey & Johnson, as cited by the paper) — deterministic given the edge
// order, which the conflict-graph builder fixes. An exact branch-and-bound
// solver is provided as a test oracle for the 2-approximation property.

#ifndef RETRUST_GRAPH_VERTEX_COVER_H_
#define RETRUST_GRAPH_VERTEX_COVER_H_

#include <vector>

#include "src/graph/graph.h"

namespace retrust {

/// 2-approximate minimum vertex cover via maximal matching: scan edges in
/// order; when both endpoints are uncovered take both. Returns covered
/// vertex ids in increasing order.
std::vector<int32_t> GreedyVertexCover(const Graph& g);

/// Same, but over a raw edge list (callers union edge groups without
/// materializing a Graph). `scratch` marks covered vertices; it must be
/// sized >= max vertex id + 1 (EnsureVertices) and is reset before use via
/// the epoch trick. One instance serves one thread at a time. The hot
/// search paths now go through CoverMemo (cover_memo.h), which owns pooled
/// epoch-marked scratch of its own; this class remains the primitive for
/// one-shot covers and the legacy/oracle paths.
class MatchingCoverScratch {
 public:
  explicit MatchingCoverScratch(int32_t num_vertices)
      : mark_(num_vertices, 0) {}

  /// Grows the mark array to cover vertex ids < `num_vertices`. Never
  /// shrinks; existing epoch marks stay valid.
  void EnsureVertices(int32_t num_vertices) {
    if (static_cast<size_t>(num_vertices) > mark_.size()) {
      mark_.resize(static_cast<size_t>(num_vertices), 0);
    }
  }

  /// Size of a maximal-matching cover of `edges` (2-approx of minimum).
  int32_t CoverSize(const std::vector<Edge>& edges);

 private:
  void NextEpoch();

  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
};

/// Max-degree greedy vertex cover: repeatedly take the highest-degree
/// vertex. This is the classic ln(n)-approximation heuristic; the paper's
/// Figure 3 worked example shows covers consistent with this variant
/// ({t2}, {t2,t3}), so it is provided for fidelity and as an ablation —
/// the repair guarantees, however, are stated for the matching cover.
std::vector<int32_t> MaxDegreeVertexCover(const Graph& g);

/// Exact minimum vertex cover via branch-and-bound; exponential, use only on
/// small graphs (test oracle). Returns the cover size.
int32_t ExactMinVertexCoverSize(const Graph& g, int32_t max_vertices = 64);

/// True if `cover` covers every edge of `g`.
bool IsVertexCover(const Graph& g, const std::vector<int32_t>& cover);

}  // namespace retrust

#endif  // RETRUST_GRAPH_VERTEX_COVER_H_
