#include "src/repair/state_space.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <set>
#include <string>

namespace retrust {
namespace {

// Figure 4: R = {A,B,C,D,E,F}, Σ = {A -> F}; extensions draw from
// {B,C,D,E} (A is the LHS, F the RHS).
TEST(StateSpace, AllowedExcludesLhsAndRhs) {
  Schema s = Schema::FromNames({"A", "B", "C", "D", "E", "F"});
  FDSet sigma = FDSet::Parse({"A->F"}, s);
  StateSpace space(sigma, s);
  EXPECT_EQ(space.allowed(0), (AttrSet{1, 2, 3, 4}));
}

TEST(StateSpace, Fig4TreeHas16States) {
  Schema s = Schema::FromNames({"A", "B", "C", "D", "E", "F"});
  FDSet sigma = FDSet::Parse({"A->F"}, s);
  StateSpace space(sigma, s);
  auto all = space.EnumerateAll();
  EXPECT_EQ(all.size(), 16u);  // 2^4 subsets of {B,C,D,E}
  EXPECT_EQ(space.SpaceSize(), 16.0);
  // Each state appears exactly once (the tree covers the lattice).
  std::set<uint64_t> masks;
  for (const auto& st : all) masks.insert(st.ext[0].bits());
  EXPECT_EQ(masks.size(), 16u);
}

// Figure 5: R = {A,B,C,D}, Σ = {A->B, C->D}.
TEST(StateSpace, Fig5SpaceAndRootChildren) {
  Schema s = Schema::FromNames({"A", "B", "C", "D"});
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  StateSpace space(sigma, s);
  EXPECT_EQ(space.allowed(0), (AttrSet{2, 3}));  // {C,D}
  EXPECT_EQ(space.allowed(1), (AttrSet{0, 1}));  // {A,B}
  auto all = space.EnumerateAll();
  EXPECT_EQ(all.size(), 16u);  // 4 x 4 as in Figure 5

  SearchState root = SearchState::Root(2);
  auto children = space.Children(root);
  // Exactly (C,φ), (D,φ), (φ,A), (φ,B).
  EXPECT_EQ(children.size(), 4u);
}

TEST(StateSpace, ParentChildInverse) {
  Schema s = Schema::FromNames({"A", "B", "C", "D"});
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  StateSpace space(sigma, s);
  for (const SearchState& st : space.EnumerateAll()) {
    for (const SearchState& child : space.Children(st)) {
      EXPECT_TRUE(space.Valid(child));
      EXPECT_EQ(space.Parent(child), st);
      EXPECT_TRUE(child.Extends(st));
      EXPECT_EQ(child.TotalAppended(), st.TotalAppended() + 1);
    }
  }
}

TEST(StateSpace, ParentOfRootThrows) {
  Schema s = Schema::FromNames({"A", "B", "C"});
  FDSet sigma = FDSet::Parse({"A->B"}, s);
  StateSpace space(sigma, s);
  EXPECT_THROW(space.Parent(SearchState::Root(1)), std::invalid_argument);
}

TEST(StateSpace, ParentRemovesGreatestAttrFromLastComponent) {
  Schema s = Schema::FromNames({"A", "B", "C", "D", "E"});
  FDSet sigma = FDSet::Parse({"A->B", "A->C"}, s);
  StateSpace space(sigma, s);
  // State ({D}, {D}): greatest attr D appears in components 0 and 1; the
  // parent removes it from the LAST one.
  SearchState st({AttrSet{3}, AttrSet{3}});
  EXPECT_EQ(space.Parent(st), SearchState({AttrSet{3}, AttrSet()}));
}

TEST(StateSpace, Valid) {
  Schema s = Schema::FromNames({"A", "B", "C", "D"});
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, s);
  StateSpace space(sigma, s);
  EXPECT_TRUE(space.Valid(SearchState({AttrSet{2}, AttrSet{0}})));
  // A (attr 0) is FD 0's LHS: not allowed in its extension.
  EXPECT_FALSE(space.Valid(SearchState({AttrSet{0}, AttrSet()})));
  // B (attr 1) is FD 0's RHS.
  EXPECT_FALSE(space.Valid(SearchState({AttrSet{1}, AttrSet()})));
  // Wrong arity.
  EXPECT_FALSE(space.Valid(SearchState(1)));
}

// Property: the unique-parent tree enumerates the full cross product of
// extension subsets exactly once, for varied shapes.
struct SpaceShape {
  std::vector<std::string> fds;
  int num_attrs;
};

// Prints a shape as its FDs and arity ("A->B" over 4 attributes prints
// "AtoB_4attrs"). The test names CTest discovers end in this text; the
// default printer would dump the shape's bytes, heap pointers included,
// so the names would change from run to run.
void PrintTo(const SpaceShape& shape, std::ostream* os) {
  for (const std::string& fd : shape.fds) {
    for (char c : fd) {
      if (c == '-') *os << "to";
      if (std::isalnum(static_cast<unsigned char>(c))) *os << c;
    }
    *os << '_';
  }
  *os << shape.num_attrs << "attrs";
}

class StateSpaceCoverage : public ::testing::TestWithParam<SpaceShape> {};

TEST_P(StateSpaceCoverage, TreeCoversLatticeExactlyOnce) {
  std::vector<std::string> names;
  for (int i = 0; i < GetParam().num_attrs; ++i) {
    names.push_back(std::string(1, static_cast<char>('A' + i)));
  }
  Schema s = Schema::FromNames(names);
  FDSet sigma = FDSet::Parse(GetParam().fds, s);
  StateSpace space(sigma, s);
  auto all = space.EnumerateAll();
  EXPECT_EQ(static_cast<double>(all.size()), space.SpaceSize());
  std::set<std::vector<uint64_t>> seen;
  for (const auto& st : all) {
    std::vector<uint64_t> key;
    for (AttrSet y : st.ext) key.push_back(y.bits());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate state";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StateSpaceCoverage,
    ::testing::Values(SpaceShape{{"A->B"}, 4},
                      SpaceShape{{"A->B", "C->D"}, 4},
                      SpaceShape{{"A->B", "B->C", "C->A"}, 5},
                      SpaceShape{{"A,B->C"}, 6},
                      SpaceShape{{"A->B", "A->B"}, 4}));  // duplicate FDs

}  // namespace
}  // namespace retrust
