// End-to-end smoke test: the paper's running example (Figure 2) from raw
// values to a τ-constrained repair.

#include <gtest/gtest.h>

#include "src/eval/experiment.h"

namespace retrust {
namespace {

// The 4-tuple instance of Figure 2 with Σ = {A->B, C->D}.
Instance Fig2Instance() {
  Schema schema(std::vector<Attribute>{{"A", AttrType::kInt},
                                       {"B", AttrType::kInt},
                                       {"C", AttrType::kInt},
                                       {"D", AttrType::kInt}});
  Instance inst(schema);
  inst.AddTuple({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{1}),
                 Value(int64_t{1})});
  inst.AddTuple({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{1}),
                 Value(int64_t{3})});
  inst.AddTuple({Value(int64_t{2}), Value(int64_t{2}), Value(int64_t{1}),
                 Value(int64_t{1})});
  inst.AddTuple({Value(int64_t{2}), Value(int64_t{3}), Value(int64_t{4}),
                 Value(int64_t{3})});
  return inst;
}

TEST(Smoke, Fig2EndToEnd) {
  Instance inst = Fig2Instance();
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, inst.schema());
  EncodedInstance enc(inst);
  EXPECT_FALSE(Satisfies(enc, sigma));

  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  auto repair = RunRepair(ctx, enc, /*tau=*/2).repair;
  ASSERT_TRUE(repair.has_value());
  EXPECT_TRUE(Satisfies(repair->data, repair->sigma_prime));
  EXPECT_LE(static_cast<int64_t>(repair->changed_cells.size()), 2);
}

}  // namespace
}  // namespace retrust
