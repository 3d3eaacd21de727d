#include "src/fd/conflict_graph.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace retrust {

ConflictGraph BuildConflictGraph(const EncodedInstance& inst,
                                 const FDSet& fds, exec::ThreadPool* pool) {
  if (fds.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  // Edge key (u << 32 | v, u < v) -> FD bitmask. The per-FD enumeration is
  // the sharded hot path; mask OR-merging is order-insensitive and the
  // final sort fixes the canonical edge order, so the result is identical
  // for any thread count.
  std::unordered_map<uint64_t, uint64_t> edge_masks;
  for (int i = 0; i < fds.size(); ++i) {
    for (const Edge& e : ViolatingPairs(inst, fds.fd(i), pool)) {
      uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(e.u)) << 32) |
                     static_cast<uint32_t>(e.v);
      edge_masks[key] |= uint64_t{1} << i;
    }
  }
  std::vector<std::pair<Edge, uint64_t>> edges;
  edges.reserve(edge_masks.size());
  for (const auto& [key, mask] : edge_masks) {
    edges.emplace_back(Edge(static_cast<int32_t>(key >> 32),
                            static_cast<int32_t>(key & 0xffffffffu)),
                       mask);
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ConflictGraph cg;
  cg.graph = Graph(inst.NumTuples());
  cg.edge_fd_mask.reserve(edges.size());
  for (const auto& [e, mask] : edges) {
    cg.graph.AddEdge(e.u, e.v);
    cg.edge_fd_mask.push_back(mask);
  }
  return cg;
}

}  // namespace retrust
