#include "src/graph/vertex_cover.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace retrust {

std::vector<int32_t> GreedyVertexCover(const Graph& g) {
  std::vector<char> covered(g.num_vertices(), 0);
  std::vector<int32_t> cover;
  for (const Edge& e : g.edges()) {
    if (!covered[e.u] && !covered[e.v]) {
      covered[e.u] = covered[e.v] = 1;
      cover.push_back(e.u);
      cover.push_back(e.v);
    }
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

void MatchingCoverScratch::NextEpoch() {
  if (++epoch_ == 0) {
    // uint32 wrap: stale marks from 2^32 calls ago would alias the fresh
    // epoch; clear once and restart.
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
}

int32_t MatchingCoverScratch::CoverSize(const std::vector<Edge>& edges) {
  NextEpoch();
  int32_t size = 0;
  for (const Edge& e : edges) {
    if (mark_[e.u] != epoch_ && mark_[e.v] != epoch_) {
      mark_[e.u] = epoch_;
      mark_[e.v] = epoch_;
      size += 2;
    }
  }
  return size;
}

std::vector<int32_t> MaxDegreeVertexCover(const Graph& g) {
  // Remaining degree per vertex; repeatedly take the max-degree vertex and
  // remove its incident edges. Ties break toward the smaller vertex id.
  std::vector<std::vector<int32_t>> adj = g.BuildAdjacency();
  std::vector<int32_t> degree = g.Degrees();
  std::vector<char> removed(g.num_vertices(), 0);
  std::vector<int32_t> cover;
  while (true) {
    int32_t best = -1;
    for (int32_t v = 0; v < g.num_vertices(); ++v) {
      if (!removed[v] && degree[v] > 0 &&
          (best < 0 || degree[v] > degree[best])) {
        best = v;
      }
    }
    if (best < 0) break;
    cover.push_back(best);
    removed[best] = 1;
    for (int32_t nbr : adj[best]) {
      if (!removed[nbr]) --degree[nbr];
    }
    degree[best] = 0;
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

namespace {

// Branch and bound: pick an uncovered edge (u, v); any cover includes u or
// v. Recurse both ways, pruning with the best size found so far.
void ExactVcRec(const std::vector<Edge>& edges, size_t edge_idx,
                std::vector<char>* in_cover, int32_t current, int32_t* best) {
  if (current >= *best) return;
  // Find next uncovered edge.
  while (edge_idx < edges.size()) {
    const Edge& e = edges[edge_idx];
    if (!(*in_cover)[e.u] && !(*in_cover)[e.v]) break;
    ++edge_idx;
  }
  if (edge_idx == edges.size()) {
    *best = std::min(*best, current);
    return;
  }
  const Edge& e = edges[edge_idx];
  (*in_cover)[e.u] = 1;
  ExactVcRec(edges, edge_idx + 1, in_cover, current + 1, best);
  (*in_cover)[e.u] = 0;
  (*in_cover)[e.v] = 1;
  ExactVcRec(edges, edge_idx + 1, in_cover, current + 1, best);
  (*in_cover)[e.v] = 0;
}

}  // namespace

int32_t ExactMinVertexCoverSize(const Graph& g, int32_t max_vertices) {
  if (g.num_vertices() > max_vertices) {
    throw std::invalid_argument("graph too large for exact vertex cover");
  }
  // Deduplicate edges for a tighter search.
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<char> in_cover(g.num_vertices(), 0);
  int32_t best = g.num_vertices();
  ExactVcRec(edges, 0, &in_cover, 0, &best);
  return best;
}

bool IsVertexCover(const Graph& g, const std::vector<int32_t>& cover) {
  std::unordered_set<int32_t> in(cover.begin(), cover.end());
  for (const Edge& e : g.edges()) {
    if (!in.count(e.u) && !in.count(e.v)) return false;
  }
  return true;
}

}  // namespace retrust
