#include "src/repair/weights.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"

namespace retrust {
namespace {

Instance Sample() {
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  auto add = [&](const char* a, const char* b, const char* c) {
    inst.AddTuple({Value(a), Value(b), Value(c)});
  };
  add("1", "1", "1");
  add("1", "2", "1");
  add("2", "2", "1");
  add("2", "2", "2");
  return inst;
}

TEST(CardinalityWeight, CountsAttributes) {
  CardinalityWeight w;
  EXPECT_EQ(w.Weight(AttrSet()), 0);
  EXPECT_EQ(w.Weight(AttrSet{3}), 1);
  EXPECT_EQ(w.Weight(AttrSet{0, 5, 9}), 3);
}

TEST(DistinctCountWeight, MatchesProjectionCounts) {
  EncodedInstance enc(Sample());
  DistinctCountWeight w(enc);
  EXPECT_EQ(w.Weight(AttrSet()), 0.0);  // required: w(empty) = 0
  EXPECT_EQ(w.Weight(AttrSet{0}), 2.0);
  EXPECT_EQ(w.Weight(AttrSet{1}), 2.0);
  EXPECT_EQ(w.Weight(AttrSet{0, 1}), 3.0);
  EXPECT_EQ(w.Weight(AttrSet{0, 1, 2}), 4.0);
  // Memoized second read.
  EXPECT_EQ(w.Weight(AttrSet{0, 1}), 3.0);
}

TEST(EntropyWeight, BasicProperties) {
  EncodedInstance enc(Sample());
  EntropyWeight w(enc);
  EXPECT_EQ(w.Weight(AttrSet()), 0.0);
  // A splits 2-2: H = 1 bit.
  EXPECT_NEAR(w.Weight(AttrSet{0}), 1.0, 1e-9);
  // C splits 3-1: H = 0.811 bits.
  EXPECT_NEAR(w.Weight(AttrSet{2}), 0.8112781, 1e-6);
}

// Monotonicity property (required by the paper for all weights): adding an
// attribute never lowers the weight.
class WeightMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(WeightMonotonicity, AllWeightsMonotone) {
  EncodedInstance enc(Sample());
  DistinctCountWeight dc(enc);
  EntropyWeight ent(enc);
  CardinalityWeight card;
  const WeightFunction* fns[] = {&dc, &ent, &card};
  uint64_t bits = static_cast<uint64_t>(GetParam());
  AttrSet y(bits & 0x7);
  for (const WeightFunction* w : fns) {
    EXPECT_GE(w->Weight(y), 0.0);
    for (AttrId a = 0; a < 3; ++a) {
      AttrSet bigger = y;
      bigger.Add(a);
      EXPECT_GE(w->Weight(bigger), w->Weight(y));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, WeightMonotonicity,
                         ::testing::Range(0, 8));

TEST(WeightFunction, CostSumsExtensions) {
  EncodedInstance enc(Sample());
  DistinctCountWeight w(enc);
  EXPECT_EQ(w.Cost({AttrSet{0}, AttrSet{1}}), 4.0);
  EXPECT_EQ(w.Cost({AttrSet(), AttrSet()}), 0.0);
  EXPECT_EQ(w.Cost({}), 0.0);
}

TEST(DistinctCountWeight, VariablesCountAsDistinct) {
  Instance inst(Schema::FromNames({"A"}));
  inst.AddTuple({inst.NewVariable(0)});
  inst.AddTuple({inst.NewVariable(0)});
  inst.AddTuple({Value("x")});
  EncodedInstance enc(inst);
  DistinctCountWeight w(enc);
  EXPECT_EQ(w.Weight(AttrSet{0}), 3.0);
}

// ------------------------------------------------------------ the memo

/// n tuples over m int attributes with small per-column domains, so
/// projections collide and weights differ between subsets.
Instance Wide(int m, int n, uint64_t seed) {
  std::vector<Attribute> attrs(m);
  for (int a = 0; a < m; ++a) {
    std::string name = "A";
    name += std::to_string(a);
    attrs[a] = {std::move(name), AttrType::kInt};
  }
  Instance inst{Schema(std::move(attrs))};
  std::mt19937_64 rng(seed);
  for (int t = 0; t < n; ++t) {
    Tuple row(m);
    for (int a = 0; a < m; ++a) {
      row[a] = Value(static_cast<int64_t>(rng() % (2 + a % 5)));
    }
    inst.AddTuple(std::move(row));
  }
  return inst;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Reads every subset in `masks` from one memoized weight twice (fill,
/// then hit) and compares each with a fresh, memo-less computation.
template <typename W>
void ExpectMemoMatchesFresh(const EncodedInstance& enc,
                            const std::vector<uint64_t>& masks) {
  W memo(enc);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t mask : masks) {
      const AttrSet y(mask);
      ASSERT_EQ(Bits(memo.Weight(y)), Bits(W(enc).Weight(y)))
          << "pass " << pass << " Y = " << y.ToString();
    }
  }
}

TEST(WeightMemo, FlatPathMatchesFreshComputationOnEverySubset) {
  constexpr int kAttrs = 12;
  static_assert(kAttrs <= MemoizedWeight::kMaxFlatAttrs);
  EncodedInstance enc(Wide(kAttrs, 80, 12));
  std::vector<uint64_t> masks(uint64_t{1} << kAttrs);
  for (size_t k = 0; k < masks.size(); ++k) masks[k] = k;
  std::shuffle(masks.begin(), masks.end(), std::mt19937_64(12));
  ExpectMemoMatchesFresh<DistinctCountWeight>(enc, masks);
  ExpectMemoMatchesFresh<EntropyWeight>(enc, masks);
}

TEST(WeightMemo, MapPathMatchesFreshComputation) {
  constexpr int kAttrs = 17;
  static_assert(kAttrs > MemoizedWeight::kMaxFlatAttrs);
  EncodedInstance enc(Wide(kAttrs, 80, 17));
  // Every singleton, the universe, and random subsets (2^17 is too many
  // fresh computations).
  std::vector<uint64_t> masks;
  for (int a = 0; a < kAttrs; ++a) masks.push_back(uint64_t{1} << a);
  masks.push_back(AttrSet::Universe(kAttrs).bits());
  std::mt19937_64 rng(17);
  for (int k = 0; k < 400; ++k) {
    masks.push_back(rng() & AttrSet::Universe(kAttrs).bits());
  }
  ExpectMemoMatchesFresh<DistinctCountWeight>(enc, masks);
  ExpectMemoMatchesFresh<EntropyWeight>(enc, masks);
}

TEST(WeightMemo, InvalidateAfterApplyYieldsPostDeltaWeights) {
  for (WeightModel model : {WeightModel::kDistinctCount,
                            WeightModel::kEntropy}) {
    SessionOptions opts;
    opts.weights = model;
    Result<Session> session =
        Session::Open(Wide(12, 60, 3), {"A0 -> A1", "A2,A3 -> A4"}, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const WeightFunction& w = session->weights();
    const AttrSet universe = AttrSet::Universe(12);
    const double before = w.Weight(universe);
    for (uint64_t mask = 1; mask < 64; ++mask) w.Weight(AttrSet(mask));

    // Ten fresh rows in a value range no existing row uses: every
    // projection gains ten distinct values.
    DeltaBatch delta;
    for (int k = 0; k < 10; ++k) {
      Tuple row(12);
      for (int a = 0; a < 12; ++a) row[a] = Value(int64_t{100} + k);
      delta.Insert(std::move(row));
    }
    ASSERT_TRUE(session->Apply(delta).ok());

    const WeightFunction& after = session->weights();
    EXPECT_NE(Bits(after.Weight(universe)), Bits(before));
    for (uint64_t mask = 1; mask < 64; ++mask) {
      const AttrSet y(mask);
      const double fresh = model == WeightModel::kDistinctCount
                               ? DistinctCountWeight(session->data()).Weight(y)
                               : EntropyWeight(session->data()).Weight(y);
      EXPECT_EQ(Bits(after.Weight(y)), Bits(fresh)) << y.ToString();
    }
  }
}

TEST(WeightMemo, ConcurrentReadersAgree) {
  constexpr int kAttrs = 12;
  constexpr int kThreads = 4;
  EncodedInstance enc(Wide(kAttrs, 60, 4));
  const size_t subsets = size_t{1} << kAttrs;
  DistinctCountWeight distinct(enc);
  EntropyWeight entropy(enc);
  const MemoizedWeight* weights[] = {&distinct, &entropy};
  for (const MemoizedWeight* w : weights) {
    // Each thread walks every subset in its own order, so fills race.
    std::vector<std::vector<uint64_t>> got(kThreads,
                                           std::vector<uint64_t>(subsets));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<uint64_t> order(subsets);
        for (size_t k = 0; k < subsets; ++k) order[k] = k;
        std::shuffle(order.begin(), order.end(), std::mt19937_64(t));
        for (uint64_t mask : order) {
          got[t][mask] = Bits(w->Weight(AttrSet(mask)));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
  }
  for (size_t mask = 0; mask < subsets; mask += 97) {
    EXPECT_EQ(Bits(distinct.Weight(AttrSet(mask))),
              Bits(DistinctCountWeight(enc).Weight(AttrSet(mask))));
  }
}

}  // namespace
}  // namespace retrust
