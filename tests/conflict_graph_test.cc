#include "src/fd/conflict_graph.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "src/graph/vertex_cover.h"

namespace retrust {
namespace {

Instance Fig2() {
  Instance inst(Schema::FromNames({"A", "B", "C", "D"}));
  auto add = [&](const char* a, const char* b, const char* c,
                 const char* d) {
    inst.AddTuple({Value(a), Value(b), Value(c), Value(d)});
  };
  add("1", "1", "1", "1");
  add("1", "2", "1", "3");
  add("2", "2", "1", "1");
  add("2", "3", "4", "3");
  return inst;
}

TEST(ConflictGraph, Fig2EdgesAndLabels) {
  EncodedInstance enc(Fig2());
  Schema s = Fig2().schema();
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  ConflictGraph cg = BuildConflictGraph(enc, sigma);
  // Figure 2: edges (t1,t2), (t2,t3), (t3,t4).
  ASSERT_EQ(cg.num_edges(), 3u);
  EXPECT_EQ(cg.graph.edges()[0], Edge(0, 1));
  EXPECT_EQ(cg.graph.edges()[1], Edge(1, 2));
  EXPECT_EQ(cg.graph.edges()[2], Edge(2, 3));
  // Labels: (t1,t2) violates both; (t2,t3) violates C->D; (t3,t4) A->B.
  EXPECT_EQ(cg.edge_fd_mask[0], 0b11u);
  EXPECT_EQ(cg.edge_fd_mask[1], 0b10u);
  EXPECT_EQ(cg.edge_fd_mask[2], 0b01u);
}

// The Figure 3 table: per relaxation Σ', the conflict-graph edges, the
// 2-approximate cover, and δP(Σ', I) with α = min(|R|-1, |Σ|) = 2.
struct Fig3Row {
  std::vector<std::string> fds;
  std::vector<Edge> edges;
  int64_t cover_size;
  int64_t delta_p;
};

// Prints a row as its Σ' ("C,A->B" prints "CAtoB"). The test names CTest
// discovers end in this text; the default printer would dump the row's
// bytes, heap pointers included, so the names would change from run to
// run.
void PrintTo(const Fig3Row& row, std::ostream* os) {
  for (size_t i = 0; i < row.fds.size(); ++i) {
    if (i > 0) *os << '_';
    for (char c : row.fds[i]) {
      if (c == '-') *os << "to";
      if (std::isalnum(static_cast<unsigned char>(c))) *os << c;
    }
  }
}

class Fig3Table : public ::testing::TestWithParam<Fig3Row> {};

TEST_P(Fig3Table, MatchesPaper) {
  EncodedInstance enc(Fig2());
  Schema s = Fig2().schema();
  FDSet sigma = FDSet::Parse(GetParam().fds, s);
  ConflictGraph cg = BuildConflictGraph(enc, sigma);
  EXPECT_EQ(cg.graph.edges(), GetParam().edges);
  auto cover = GreedyVertexCover(cg.graph);
  EXPECT_EQ(static_cast<int64_t>(cover.size()), GetParam().cover_size);
  int64_t alpha = std::min<int64_t>(4 - 1, 2);
  EXPECT_EQ(alpha * static_cast<int64_t>(cover.size()), GetParam().delta_p);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Fig3Table,
    ::testing::Values(
        // Σ' rows and edge sets exactly as in Figure 3. Cover sizes differ
        // from the paper's table: the paper's worked example shows optimal
        // covers ({t2,t3}, {t2}, ...) as produced by a max-degree greedy,
        // while the matching-based greedy (the one carrying the
        // 2-approximation guarantee of [7], used by the algorithms here)
        // takes both endpoints of each matched edge. See DESIGN.md.
        Fig3Row{{"A->B", "C->D"}, {{0, 1}, {1, 2}, {2, 3}}, 4, 8},
        Fig3Row{{"C,A->B", "C->D"}, {{0, 1}, {1, 2}}, 2, 4},
        Fig3Row{{"D,A->B", "C->D"}, {{0, 1}, {1, 2}}, 2, 4},
        Fig3Row{{"A->B", "A,C->D"}, {{0, 1}, {2, 3}}, 4, 8},
        Fig3Row{{"A->B", "B,C->D"}, {{0, 1}, {1, 2}, {2, 3}}, 4, 8},
        Fig3Row{{"C,A->B", "A,C->D"}, {{0, 1}}, 2, 4}));

TEST(ConflictGraph, RelaxationNeverAddsEdges) {
  EncodedInstance enc(Fig2());
  Schema s = Fig2().schema();
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  ConflictGraph base = BuildConflictGraph(enc, sigma);
  for (const char* ext_fd :
       {"C,A->B", "D,A->B"}) {
    FDSet relaxed = FDSet::Parse({ext_fd, "C->D"}, s);
    ConflictGraph cg = BuildConflictGraph(enc, relaxed);
    for (const Edge& e : cg.graph.edges()) {
      bool in_base = false;
      for (const Edge& b : base.graph.edges()) in_base |= (b == e);
      EXPECT_TRUE(in_base) << "relaxation introduced edge";
    }
  }
}

TEST(ConflictGraph, EmptyWhenSatisfied) {
  EncodedInstance enc(Fig2());
  Schema s = Fig2().schema();
  ConflictGraph cg =
      BuildConflictGraph(enc, FDSet::Parse({"A,D->B"}, s));
  EXPECT_EQ(cg.num_edges(), 0u);
}

TEST(ConflictGraph, RejectsTooManyFds) {
  EncodedInstance enc(Fig2());
  std::vector<FD> many(65, FD(AttrSet{0}, 1));
  EXPECT_THROW(BuildConflictGraph(enc, FDSet(many)), std::invalid_argument);
}

}  // namespace
}  // namespace retrust
