#include "src/relational/dictionary.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "src/util/hash.h"

namespace retrust {
namespace {

Instance Mixed() {
  Instance inst(Schema({{"A", AttrType::kInt}, {"B", AttrType::kString}}));
  inst.AddTuple({Value(int64_t{1}), Value("x")});
  inst.AddTuple({Value(int64_t{1}), Value("y")});
  inst.AddTuple({Value(int64_t{2}), Value("x")});
  return inst;
}

TEST(Dictionary, InternIsIdempotent) {
  Dictionary d;
  int32_t c1 = d.Intern(Value("a"));
  int32_t c2 = d.Intern(Value("b"));
  EXPECT_NE(c1, c2);
  EXPECT_EQ(d.Intern(Value("a")), c1);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.value(c2), Value("b"));
  EXPECT_EQ(d.Lookup(Value("a")), c1);
  EXPECT_EQ(d.Lookup(Value("zzz")), -1);
}

TEST(VariableCode, RoundTrip) {
  for (int32_t i : {0, 1, 5, 1000}) {
    int32_t code = VariableCode(i);
    EXPECT_TRUE(IsVariableCode(code));
    EXPECT_EQ(VariableIndexOfCode(code), i);
  }
  EXPECT_FALSE(IsVariableCode(0));
  EXPECT_FALSE(IsVariableCode(42));
}

TEST(EncodedInstance, CodesReflectEquality) {
  EncodedInstance enc(Mixed());
  EXPECT_EQ(enc.At(0, 0), enc.At(1, 0));  // both 1
  EXPECT_NE(enc.At(0, 0), enc.At(2, 0));
  EXPECT_EQ(enc.At(0, 1), enc.At(2, 1));  // both "x"
  EXPECT_NE(enc.At(0, 1), enc.At(1, 1));
}

TEST(EncodedInstance, VariablesEncodeNegative) {
  Instance inst(Schema({{"A", AttrType::kInt}}));
  inst.AddTuple({Value::Variable(0, 0)});
  inst.AddTuple({Value::Variable(0, 1)});
  inst.AddTuple({Value(int64_t{7})});
  EncodedInstance enc(inst);
  EXPECT_TRUE(IsVariableCode(enc.At(0, 0)));
  EXPECT_TRUE(IsVariableCode(enc.At(1, 0)));
  EXPECT_NE(enc.At(0, 0), enc.At(1, 0));
  EXPECT_FALSE(IsVariableCode(enc.At(2, 0)));
  // Fresh variables continue after the existing ones.
  int32_t fresh = enc.NewVariableCode(0);
  EXPECT_EQ(VariableIndexOfCode(fresh), 2);
}

TEST(EncodedInstance, DecodeRoundTrips) {
  Instance orig = Mixed();
  orig.Set(1, 1, orig.NewVariable(1));
  EncodedInstance enc(orig);
  Instance back = enc.Decode();
  EXPECT_EQ(orig.DistdTo(back), 0);
  EXPECT_EQ(back.At(1, 1), orig.At(1, 1));
}

TEST(EncodedInstance, SetFreshVariableChangesCell) {
  EncodedInstance enc(Mixed());
  int32_t before = enc.At(0, 0);
  int32_t v = enc.SetFreshVariable(0, 0);
  EXPECT_TRUE(IsVariableCode(v));
  EXPECT_EQ(enc.At(0, 0), v);
  EXPECT_NE(enc.At(0, 0), before);
  // Decoding yields a variable value.
  EXPECT_TRUE(enc.DecodeCell(0, 0).is_variable());
}

TEST(EncodedInstance, MoveKeepsSchemaValid) {
  // Regression: EncodedInstance used to hold a self-referential schema
  // pointer that dangled after move.
  EncodedInstance enc(Mixed());
  EncodedInstance moved = std::move(enc);
  EXPECT_EQ(moved.schema().name(0), "A");
  EncodedInstance assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.schema().name(1), "B");
  EXPECT_EQ(assigned.NumTuples(), 3);
}

TEST(EncodedInstance, CountDistinctProjection) {
  EncodedInstance enc(Mixed());
  EXPECT_EQ(enc.CountDistinctProjection(AttrSet{0}), 2);
  EXPECT_EQ(enc.CountDistinctProjection(AttrSet{1}), 2);
  EXPECT_EQ(enc.CountDistinctProjection(AttrSet{0, 1}), 3);
  EXPECT_EQ(enc.CountDistinctProjection(AttrSet()), 1);
}

TEST(EncodedInstance, CountDistinctTreatsVariablesAsDistinct) {
  Instance inst(Schema({{"A", AttrType::kInt}}));
  inst.AddTuple({Value::Variable(0, 0)});
  inst.AddTuple({Value::Variable(0, 1)});
  inst.AddTuple({Value(int64_t{1})});
  EncodedInstance enc(inst);
  EXPECT_EQ(enc.CountDistinctProjection(AttrSet{0}), 3);
}

/// The hash-set count CountDistinctProjection replaced: one key vector per
/// tuple. The reference the flat refinement is checked against.
int64_t ReferenceCountDistinct(const EncodedInstance& enc, AttrSet attrs) {
  std::vector<AttrId> cols = attrs.ToVector();
  if (cols.empty()) return enc.NumTuples() > 0 ? 1 : 0;
  std::unordered_set<std::vector<int32_t>, CodeVectorHash> seen;
  std::vector<int32_t> key(cols.size());
  for (TupleId t = 0; t < enc.NumTuples(); ++t) {
    for (size_t i = 0; i < cols.size(); ++i) key[i] = enc.At(t, cols[i]);
    seen.insert(key);
  }
  return static_cast<int64_t>(seen.size());
}

TEST(EncodedInstance, CountDistinctMatchesTheKeySetOnRandomProjections) {
  std::mt19937_64 rng(0xd15c);
  const int m = 6;
  std::vector<Attribute> attrs;
  for (int a = 0; a < m; ++a) {
    std::string name = "A";
    name += std::to_string(a);
    attrs.push_back({std::move(name), AttrType::kInt});
  }
  for (int n : {0, 1, 2, 7, 64, 300}) {
    for (int domain : {1, 2, 5, 40}) {
      Instance inst{Schema(attrs)};
      for (int t = 0; t < n; ++t) {
        Tuple row(m);
        for (int a = 0; a < m; ++a) {
          row[a] = Value(static_cast<int64_t>(rng() % domain));
        }
        inst.AddTuple(std::move(row));
      }
      EncodedInstance enc(inst);
      // Some cells become fresh variables: negative codes, each distinct.
      for (int k = 0; k < n / 8; ++k) {
        enc.SetFreshVariable(static_cast<TupleId>(rng() % n),
                             static_cast<AttrId>(rng() % m));
      }
      for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
        ASSERT_EQ(enc.CountDistinctProjection(AttrSet(mask)),
                  ReferenceCountDistinct(enc, AttrSet(mask)))
            << "n=" << n << " domain=" << domain << " mask=" << mask;
      }
    }
  }
}

TEST(EncodedInstance, DiffCells) {
  EncodedInstance a(Mixed());
  EncodedInstance b(Mixed());
  EXPECT_EQ(a.DistdTo(b), 0);
  b.SetCode(2, 0, b.At(0, 0));
  EXPECT_EQ(a.DistdTo(b), 1);
  auto cells = a.DiffCells(b);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].tuple, 2);
  EXPECT_EQ(cells[0].attr, 0);
}

TEST(EncodedInstance, DictionarySize) {
  EncodedInstance enc(Mixed());
  EXPECT_EQ(enc.DictionarySize(0), 2);
  EXPECT_EQ(enc.DictionarySize(1), 2);
}

}  // namespace
}  // namespace retrust
