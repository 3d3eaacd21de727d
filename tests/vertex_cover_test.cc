#include "src/graph/vertex_cover.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace retrust {
namespace {

Graph Path4() {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  return g;
}

TEST(GreedyVertexCover, CoversEveryEdge) {
  Graph g = Path4();
  auto cover = GreedyVertexCover(g);
  EXPECT_TRUE(IsVertexCover(g, cover));
  // Matching-based: takes both endpoints of (0,1) and (2,3).
  EXPECT_EQ(cover, (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(GreedyVertexCover, EmptyGraph) {
  EXPECT_TRUE(GreedyVertexCover(Graph(5)).empty());
}

TEST(MaxDegreeVertexCover, PrefersHubs) {
  Graph star(5);
  for (int i = 1; i < 5; ++i) star.AddEdge(0, i);
  auto cover = MaxDegreeVertexCover(star);
  EXPECT_EQ(cover, std::vector<int32_t>{0});
  EXPECT_TRUE(IsVertexCover(star, cover));
}

TEST(MaxDegreeVertexCover, MatchesPaperFig3Covers) {
  // Path t1-t2-t3-t4: the paper's C2opt is {t2, t3}.
  auto cover = MaxDegreeVertexCover(Path4());
  EXPECT_EQ(cover, (std::vector<int32_t>{1, 2}));
  // Path t1-t2-t3: the paper's C2opt is {t2}.
  Graph p3(3);
  p3.AddEdge(0, 1);
  p3.AddEdge(1, 2);
  EXPECT_EQ(MaxDegreeVertexCover(p3), std::vector<int32_t>{1});
}

TEST(ExactMinVertexCover, SmallGraphs) {
  EXPECT_EQ(ExactMinVertexCoverSize(Path4()), 2);
  Graph star(5);
  for (int i = 1; i < 5; ++i) star.AddEdge(0, i);
  EXPECT_EQ(ExactMinVertexCoverSize(star), 1);
  Graph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  EXPECT_EQ(ExactMinVertexCoverSize(triangle), 2);
  EXPECT_EQ(ExactMinVertexCoverSize(Graph(3)), 0);
  EXPECT_THROW(ExactMinVertexCoverSize(Graph(100)), std::invalid_argument);
}

TEST(MatchingCoverScratch, MatchesGreedyOnEdgeList) {
  Graph g = Path4();
  MatchingCoverScratch scratch(4);
  EXPECT_EQ(scratch.CoverSize(g.edges()), 4);
  std::vector<Edge> overlapping = {Edge(0, 1), Edge(1, 2)};
  EXPECT_EQ(scratch.CoverSize(overlapping), 2);
  // Epoch reset: reusing the scratch does not leak coverage.
  EXPECT_EQ(scratch.CoverSize(overlapping), 2);
}

TEST(IsVertexCover, DetectsGaps) {
  Graph g = Path4();
  EXPECT_FALSE(IsVertexCover(g, {0}));
  EXPECT_TRUE(IsVertexCover(g, {1, 2}));
  EXPECT_TRUE(IsVertexCover(g, {0, 1, 2, 3}));
}

// Property: greedy cover is a cover and within 2x of the exact minimum.
class VertexCoverProperty : public ::testing::TestWithParam<int> {};

TEST_P(VertexCoverProperty, TwoApproximation) {
  Rng rng(GetParam());
  int n = 8 + static_cast<int>(rng.NextUint(8));
  Graph g(n);
  int edges = 5 + static_cast<int>(rng.NextUint(20));
  for (int i = 0; i < edges; ++i) {
    int u = static_cast<int>(rng.NextUint(n));
    int v = static_cast<int>(rng.NextUint(n));
    if (u != v) g.AddEdge(u, v);
  }
  auto greedy = GreedyVertexCover(g);
  auto maxdeg = MaxDegreeVertexCover(g);
  int32_t exact = ExactMinVertexCoverSize(g);
  EXPECT_TRUE(IsVertexCover(g, greedy));
  EXPECT_TRUE(IsVertexCover(g, maxdeg));
  EXPECT_GE(static_cast<int32_t>(greedy.size()), exact);
  EXPECT_LE(static_cast<int32_t>(greedy.size()), 2 * exact);
  EXPECT_GE(static_cast<int32_t>(maxdeg.size()), exact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexCoverProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace retrust
