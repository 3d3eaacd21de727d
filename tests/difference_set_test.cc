#include "src/fd/difference_set.h"

#include <gtest/gtest.h>

#include <vector>

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

// DiffSetOfPair over `enc`'s columns.
AttrSet DiffSet(const EncodedInstance& enc, TupleId t1, TupleId t2) {
  std::vector<const int32_t*> cols;
  for (AttrId a = 0; a < enc.NumAttrs(); ++a) {
    cols.push_back(enc.ColumnData(a));
  }
  return DiffSetOfPair(cols.data(), enc.NumAttrs(), t1, t2);
}

TEST(DiffSetOfPair, MatchesPaperExamples) {
  EncodedInstance enc(Fig2());
  // §5.2: difference sets for (t1,t2), (t2,t3), (t3,t4) are BD, AD, BCD.
  EXPECT_EQ(DiffSet(enc, 0, 1), (AttrSet{1, 3}));
  EXPECT_EQ(DiffSet(enc, 1, 2), (AttrSet{0, 3}));
  EXPECT_EQ(DiffSet(enc, 2, 3), (AttrSet{1, 2, 3}));
  EXPECT_EQ(DiffSet(enc, 0, 0), AttrSet());
}

TEST(DiffSetOfPair, VariablesDifferFromEverything) {
  Instance inst(Schema::FromNames({"A"}));
  inst.AddTuple({Value("1")});
  inst.AddTuple({inst.NewVariable(0)});
  inst.AddTuple({inst.NewVariable(0)});
  EncodedInstance enc(inst);
  EXPECT_EQ(DiffSet(enc, 0, 1), AttrSet{0});
  EXPECT_EQ(DiffSet(enc, 1, 2), AttrSet{0});
}

TEST(DifferenceSetIndex, GroupsAndOrdersByFrequency) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kNaive);
  ASSERT_EQ(index.size(), 3);  // BD, AD, BCD — all singleton groups
  int64_t total_edges = 0;
  for (int g = 0; g < index.size(); ++g) {
    total_edges += index.group(g).frequency();
    EXPECT_EQ(index.group(g).edges.size(), 1u);
  }
  EXPECT_EQ(total_edges, 3);
  // Frequency-sorted (ties by mask): all freq 1 here, so ascending mask:
  // AD (1001=9) < BD (1010=10) < BCD (1110=14).
  EXPECT_EQ(index.group(0).diff, (AttrSet{0, 3}));
  EXPECT_EQ(index.group(1).diff, (AttrSet{1, 3}));
  EXPECT_EQ(index.group(2).diff, (AttrSet{1, 2, 3}));
}

TEST(DifferenceSetIndex, MergesEqualDiffSets) {
  Instance inst(Schema::FromNames({"A", "B"}));
  // Three tuples with A=1 and distinct Bs: all 3 pairs have diffset {B}.
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  inst.AddTuple({Value("1"), Value("z")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kNaive);
  ASSERT_EQ(index.size(), 1);
  EXPECT_EQ(index.group(0).frequency(), 3);
  EXPECT_EQ(index.group(0).diff, AttrSet{1});
}

TEST(DiffSetViolates, PerFdSemantics) {
  Schema s = Schema::FromNames({"A", "B", "C", "D"});
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  // BD violates both FDs; AD violates only C->D; BCD only A->B (paper §5.2).
  EXPECT_TRUE(sigma.fd(0).ViolatedByDiffSet(AttrSet{1, 3}));
  EXPECT_TRUE(sigma.fd(1).ViolatedByDiffSet(AttrSet{1, 3}));
  EXPECT_FALSE(sigma.fd(0).ViolatedByDiffSet(AttrSet{0, 3}));
  EXPECT_TRUE(sigma.fd(1).ViolatedByDiffSet(AttrSet{0, 3}));
  EXPECT_TRUE(sigma.fd(0).ViolatedByDiffSet(AttrSet{1, 2, 3}));
  EXPECT_FALSE(sigma.fd(1).ViolatedByDiffSet(AttrSet{1, 2, 3}));
  EXPECT_TRUE(DiffSetViolates(AttrSet{0, 3}, sigma));
  EXPECT_FALSE(DiffSetViolates(AttrSet{0}, sigma));
}

TEST(DifferenceSetIndex, ViolatingGroupsFiltersByRelaxation) {
  EncodedInstance enc(Fig2());
  Schema s = Fig2().schema();
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kNaive);
  // Under {CA->B, C->D}: BCD resolved (C in LHS of the first FD);
  // AD and BD still violate C->D.
  FDSet relaxed = FDSet::Parse({"C,A->B", "C->D"}, s);
  auto violating = index.ViolatingGroups(relaxed);
  EXPECT_EQ(violating.size(), 2u);
  // Fully satisfied relaxation: nothing violates.
  FDSet resolved = FDSet::Parse({"D,A->B", "A,B,C->D"}, s);
  // (AD: first FD sees D in diff->resolved? AD has A... A in LHS, diff
  //  has A -> pair disagrees on LHS -> resolved; check via the index.)
  auto left = index.ViolatingGroups(resolved);
  for (int g : left) {
    EXPECT_TRUE(DiffSetViolates(index.group(g).diff, resolved));
  }
}

TEST(DifferenceSetIndex, ToStringListsGroups) {
  EncodedInstance enc(Fig2());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig2().schema());
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kNaive);
  std::string text = index.ToString(Fig2().schema());
  EXPECT_NE(text.find("{B,D} x1"), std::string::npos);
  EXPECT_NE(text.find("{B,C,D} x1"), std::string::npos);
}

}  // namespace
}  // namespace retrust
