#include "src/relational/schema.h"

#include <gtest/gtest.h>

namespace retrust {
namespace {

Schema Abc() {
  return Schema({{"A", AttrType::kInt},
                 {"B", AttrType::kString},
                 {"C", AttrType::kDouble}});
}

TEST(Schema, BasicAccessors) {
  Schema s = Abc();
  EXPECT_EQ(s.NumAttrs(), 3);
  EXPECT_EQ(s.name(0), "A");
  EXPECT_EQ(s.name(2), "C");
  EXPECT_EQ(s.type(0), AttrType::kInt);
  EXPECT_EQ(s.type(1), AttrType::kString);
  EXPECT_EQ(s.Names(), (std::vector<std::string>{"A", "B", "C"}));
}

TEST(Schema, Find) {
  Schema s = Abc();
  EXPECT_EQ(s.Find("A"), 0);
  EXPECT_EQ(s.Find("C"), 2);
  EXPECT_EQ(s.Find("missing"), -1);
}

TEST(Schema, Resolve) {
  Schema s = Abc();
  EXPECT_EQ(s.Resolve({"A", "C"}), (AttrSet{0, 2}));
  EXPECT_EQ(s.Resolve({}), AttrSet());
  EXPECT_THROW(s.Resolve({"nope"}), std::invalid_argument);
}

TEST(Schema, Universe) {
  EXPECT_EQ(Abc().Universe(), AttrSet::Universe(3));
}

TEST(Schema, FromNamesDefaultsToString) {
  Schema s = Schema::FromNames({"x", "y"});
  EXPECT_EQ(s.NumAttrs(), 2);
  EXPECT_EQ(s.type(0), AttrType::kString);
}

TEST(Schema, RejectsDuplicateNames) {
  EXPECT_THROW(Schema::FromNames({"a", "a"}), std::invalid_argument);
}

TEST(Schema, RejectsTooManyAttrs) {
  std::vector<std::string> names;
  for (int i = 0; i < 65; ++i) {
    names.push_back("a");
    names.back() += std::to_string(i);
  }
  EXPECT_THROW(Schema::FromNames(names), std::invalid_argument);
}

TEST(Schema, Equality) {
  EXPECT_TRUE(Abc() == Abc());
  Schema other({{"A", AttrType::kInt}, {"B", AttrType::kString}});
  EXPECT_FALSE(Abc() == other);
  Schema type_diff({{"A", AttrType::kDouble},
                    {"B", AttrType::kString},
                    {"C", AttrType::kDouble}});
  EXPECT_FALSE(Abc() == type_diff);
}

}  // namespace
}  // namespace retrust
