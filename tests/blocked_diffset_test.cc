// Oracle tests for the blocked difference-set builder: the LHS-blocked
// build must be BIT-IDENTICAL to the naive all-pairs build — same groups
// (difference set, edge order), same root δP, same full search traces — at
// any thread count, for every shape of Σ: an empty LHS (whose π_∅ is one
// class, so full-disagreement pairs are ordinary edges), duplicate LHSs,
// and LHSs that are supersets of another.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/exec/thread_pool.h"
#include "src/fd/difference_set.h"
#include "src/relational/delta.h"
#include "src/repair/modify_fds.h"
#include "src/repair/weights.h"

namespace retrust {
namespace {

Schema MakeSchema(int m) {
  std::vector<Attribute> attrs(m);
  for (int a = 0; a < m; ++a) {
    std::string name = "A";
    name += std::to_string(a);
    attrs[a] = {std::move(name), AttrType::kInt};
  }
  return Schema(std::move(attrs));
}

Tuple RandomTuple(std::mt19937_64& rng, int m, int domain) {
  Tuple t(m);
  for (int a = 0; a < m; ++a) {
    t[a] = Value(static_cast<int64_t>(rng() % domain));
  }
  return t;
}

Instance RandomInstance(std::mt19937_64& rng, int n, int m, int domain) {
  Instance inst(MakeSchema(m));
  for (int t = 0; t < n; ++t) inst.AddTuple(RandomTuple(rng, m, domain));
  return inst;
}

FDSet TestSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{2}, 3});
  sigma.Add(FD{AttrSet{0, 2}, 4});
  return sigma;
}

/// Σ with an empty-LHS FD — the degenerate "Case B" regime where pairs
/// disagreeing on EVERY attribute are conflict edges (the universe group).
FDSet EmptyLhsSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 0});
  sigma.Add(FD{AttrSet{0}, 1});
  return sigma;
}

/// Σ whose LHSs repeat ({A0} twice) and nest ({A0, A3} ⊃ {A0}): only the
/// minimal distinct LHSs block, and the index must not notice.
FDSet NestedLhsSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{0}, 2});
  sigma.Add(FD{AttrSet{0, 3}, 4});
  return sigma;
}

/// Full structural equality — the blocked and naive front doors must agree
/// on the exact representation, not just on the logical pair population.
void ExpectIndexIdentical(const DifferenceSetIndex& got,
                          const DifferenceSetIndex& want) {
  ASSERT_EQ(got.size(), want.size());
  for (int g = 0; g < got.size(); ++g) {
    EXPECT_EQ(got.group(g).diff.bits(), want.group(g).diff.bits())
        << "group " << g;
    ASSERT_EQ(got.group(g).edges.size(), want.group(g).edges.size())
        << "group " << g;
    for (size_t e = 0; e < got.group(g).edges.size(); ++e) {
      EXPECT_EQ(got.group(g).edges[e], want.group(g).edges[e])
          << "group " << g << " edge " << e;
    }
  }
}

void ExpectSameSearch(const ModifyFdsResult& got, const ModifyFdsResult& want) {
  ASSERT_EQ(got.repair.has_value(), want.repair.has_value());
  if (got.repair.has_value()) {
    ASSERT_EQ(got.repair->state.ext.size(), want.repair->state.ext.size());
    for (size_t i = 0; i < got.repair->state.ext.size(); ++i) {
      EXPECT_EQ(got.repair->state.ext[i].bits(), want.repair->state.ext[i].bits());
    }
    EXPECT_DOUBLE_EQ(got.repair->distc, want.repair->distc);
    EXPECT_EQ(got.repair->cover_size, want.repair->cover_size);
    EXPECT_EQ(got.repair->delta_p, want.repair->delta_p);
  }
  EXPECT_EQ(got.stats.states_visited, want.stats.states_visited);
  EXPECT_EQ(got.stats.states_generated, want.stats.states_generated);
  EXPECT_EQ(got.termination, want.termination);
}

// --- Blocked == naive, randomized, across thread counts ------------------

class BlockedOracle : public ::testing::TestWithParam<int> {};

TEST_P(BlockedOracle, RandomInstancesMatchNaive) {
  const int threads = GetParam();
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
  std::mt19937_64 rng(0xb10cced + threads);
  for (int round = 0; round < 8; ++round) {
    const int n = 5 + static_cast<int>(rng() % 60);
    const int m = 2 + static_cast<int>(rng() % 5);
    const int domain = 2 + static_cast<int>(rng() % 5);
    Instance inst = RandomInstance(rng, n, m, domain);
    EncodedInstance enc(inst);
    FDSet sigma;
    sigma.Add(FD{AttrSet{0}, 1});
    if (m >= 4) sigma.Add(FD{AttrSet{2}, 3});

    DiffSetBuildStats blocked_stats;
    DiffSetBuildStats naive_stats;
    DifferenceSetIndex blocked = BuildDifferenceSetIndex(
        enc, sigma, pool.get(), DiffSetBuildMode::kBlocked, &blocked_stats);
    DifferenceSetIndex naive = BuildDifferenceSetIndex(
        enc, sigma, pool.get(), DiffSetBuildMode::kNaive, &naive_stats);
    ExpectIndexIdentical(blocked, naive);

    // The two front doors must agree on the logical pair population even
    // though they count different things along the way.
    EXPECT_EQ(blocked_stats.pairs_materialized, naive_stats.pairs_materialized)
        << "round " << round;
    EXPECT_EQ(naive_stats.pairs_candidate,
              static_cast<int64_t>(n) * (n - 1) / 2);
    // Ownership: every candidate pair is owned by at most one LHS.
    EXPECT_LE(blocked_stats.pairs_owned, blocked_stats.pairs_candidate);
    EXPECT_LE(blocked_stats.pairs_materialized, blocked_stats.pairs_owned);
  }
}

TEST_P(BlockedOracle, SearchTracesMatchNaive) {
  const int threads = GetParam();
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
  CardinalityWeight weights;
  std::mt19937_64 rng(0x5ea2c4 + threads);
  for (int round = 0; round < 4; ++round) {
    Instance inst = RandomInstance(rng, 30, 5, 3);
    EncodedInstance enc(inst);
    FDSet sigma = TestSigma();
    FdSearchContext blocked(sigma, enc, weights, {}, pool.get());
    FdSearchContext naive(
        sigma, enc, weights, {},
        BuildDifferenceSetIndex(enc, sigma, pool.get(),
                                DiffSetBuildMode::kNaive),
        {});
    ASSERT_EQ(blocked.RootDeltaP(), naive.RootDeltaP());
    for (int64_t tau :
         {int64_t{0}, blocked.RootDeltaP() / 2, blocked.RootDeltaP()}) {
      ExpectSameSearch(ModifyFds(blocked, tau), ModifyFds(naive, tau));
    }
  }
}

TEST_P(BlockedOracle, EmptyLhsSigmaMatchesNaive) {
  const int threads = GetParam();
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
  CardinalityWeight weights;
  std::mt19937_64 rng(0xca5eb + threads);
  for (int round = 0; round < 4; ++round) {
    Instance inst = RandomInstance(rng, 20, 3, 2 + round);
    EncodedInstance enc(inst);
    FDSet sigma = EmptyLhsSigma();
    DifferenceSetIndex blocked = BuildDifferenceSetIndex(
        enc, sigma, pool.get(), DiffSetBuildMode::kBlocked);
    DifferenceSetIndex naive = BuildDifferenceSetIndex(
        enc, sigma, pool.get(), DiffSetBuildMode::kNaive);
    ExpectIndexIdentical(blocked, naive);

    // Search answers (whose covers scan the universe group) must also
    // agree.
    FdSearchContext bctx(sigma, enc, weights, {}, pool.get());
    FdSearchContext nctx(sigma, enc, weights, {}, std::move(naive), {});
    ASSERT_EQ(bctx.RootDeltaP(), nctx.RootDeltaP());
    ExpectSameSearch(ModifyFds(bctx, bctx.RootDeltaP() / 2),
                     ModifyFds(nctx, nctx.RootDeltaP() / 2));
  }
}

TEST_P(BlockedOracle, DuplicateAndSupersetLhsMatchNaive) {
  const int threads = GetParam();
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
  CardinalityWeight weights;
  std::mt19937_64 rng(0x5b5e7 + threads);
  for (int round = 0; round < 4; ++round) {
    Instance inst = RandomInstance(rng, 40, 5, 2 + round);
    EncodedInstance enc(inst);
    FDSet sigma = NestedLhsSigma();
    DiffSetBuildStats stats;
    DifferenceSetIndex blocked = BuildDifferenceSetIndex(
        enc, sigma, pool.get(), DiffSetBuildMode::kBlocked, &stats);
    DifferenceSetIndex naive = BuildDifferenceSetIndex(
        enc, sigma, pool.get(), DiffSetBuildMode::kNaive);
    ExpectIndexIdentical(blocked, naive);

    // {A0} is the only blocking key, so each candidate is a distinct pair
    // agreeing on A0 and every one of them is owned.
    int64_t agree_on_a0 = 0;
    for (TupleId u = 0; u < enc.NumTuples(); ++u) {
      for (TupleId v = u + 1; v < enc.NumTuples(); ++v) {
        agree_on_a0 += enc.At(u, 0) == enc.At(v, 0);
      }
    }
    EXPECT_EQ(stats.pairs_candidate, agree_on_a0) << "round " << round;
    EXPECT_EQ(stats.pairs_owned, agree_on_a0) << "round " << round;

    FdSearchContext bctx(sigma, enc, weights, {}, pool.get());
    FdSearchContext nctx(sigma, enc, weights, {}, std::move(naive), {});
    ASSERT_EQ(bctx.RootDeltaP(), nctx.RootDeltaP());
    ExpectSameSearch(ModifyFds(bctx, bctx.RootDeltaP() / 2),
                     ModifyFds(nctx, nctx.RootDeltaP() / 2));
  }
}

/// The index by its definition, sharing no code with the builders: every
/// pair u < v whose difference set violates some FD of Σ (agrees on the
/// whole LHS, disagrees on the RHS), filed under that set in a std::map, so
/// each group's edges come out ascending by (u, v); groups ranked by
/// descending frequency, the smaller mask first.
std::vector<std::pair<uint64_t, std::vector<Edge>>> ReferenceIndex(
    const EncodedInstance& enc, const FDSet& sigma) {
  std::map<uint64_t, std::vector<Edge>> by_diff;
  for (TupleId u = 0; u < enc.NumTuples(); ++u) {
    for (TupleId v = u + 1; v < enc.NumTuples(); ++v) {
      uint64_t diff = 0;
      for (AttrId a = 0; a < enc.NumAttrs(); ++a) {
        if (enc.At(u, a) != enc.At(v, a)) diff |= uint64_t{1} << a;
      }
      for (const FD& fd : sigma.fds()) {
        if ((fd.lhs.bits() & diff) == 0 && (diff >> fd.rhs & 1) != 0) {
          by_diff[diff].push_back(Edge(u, v));
          break;
        }
      }
    }
  }
  std::vector<std::pair<uint64_t, std::vector<Edge>>> groups(
      std::make_move_iterator(by_diff.begin()),
      std::make_move_iterator(by_diff.end()));
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    if (a.second.size() != b.second.size()) {
      return a.second.size() > b.second.size();
    }
    return a.first < b.first;
  });
  return groups;
}

void ExpectMatchesReference(
    const DifferenceSetIndex& got,
    const std::vector<std::pair<uint64_t, std::vector<Edge>>>& want) {
  ASSERT_EQ(got.size(), static_cast<int>(want.size()));
  for (int g = 0; g < got.size(); ++g) {
    ASSERT_EQ(got.group(g).diff.bits(), want[g].first) << "group " << g;
    ASSERT_TRUE(std::ranges::equal(got.group(g).edges, want[g].second))
        << "group " << g;
  }
}

// Dense generator data (n = 1,500) under a Σ with two disjoint 2-attribute
// LHSs, so a tuple's edges come from two blocking units and its groups mix
// both units' chunks, and under a Σ with an empty LHS, whose one class
// holds every tuple. Groups range from a handful of edges to over n, so
// both of the builders' edge-ordering strategies run. The blocked and naive
// builds and a Session::Apply-patched index must each equal the reference.
TEST_P(BlockedOracle, DenseDataMatchesReferenceIndex) {
  const int threads = GetParam();
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
  CensusConfig gen;
  gen.num_tuples = 1500;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 28;
  const Instance data = GenerateCensusLike(gen).instance;

  FDSet disjoint;
  disjoint.Add(FD{AttrSet{0, 1}, 4});
  disjoint.Add(FD{AttrSet{2, 3}, 5});
  FDSet empty_lhs;
  empty_lhs.Add(FD{AttrSet{}, 0});
  empty_lhs.Add(FD{AttrSet{1, 2}, 6});
  size_t smallest = SIZE_MAX;
  for (const FDSet& sigma : {disjoint, empty_lhs}) {
    SCOPED_TRACE(sigma.fd(0).lhs.Empty() ? "empty LHS" : "disjoint LHSs");
    const EncodedInstance enc(data);
    const auto want = ReferenceIndex(enc, sigma);
    ASSERT_GT(want.front().second.size(), 1500u);
    smallest = std::min(smallest, want.back().second.size());
    ExpectMatchesReference(BuildDifferenceSetIndex(enc, sigma, pool.get()),
                           want);
    ExpectMatchesReference(
        BuildDifferenceSetIndex(enc, sigma, pool.get(),
                                DiffSetBuildMode::kNaive),
        want);

    SessionOptions opts;
    opts.pool = pool.get();
    Result<Session> session = Session::Open(data, sigma, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    std::mt19937_64 rng(0xd3a5e + threads);
    DeltaBatch delta;
    for (int i = 0; i < 20; ++i) {
      delta.Insert(data.row(static_cast<TupleId>(rng() % 1500)));
    }
    for (int i = 0; i < 20; ++i) {
      const auto a = static_cast<AttrId>(rng() % 8);
      delta.Update(static_cast<TupleId>(rng() % 1500), a,
                   data.At(static_cast<TupleId>(rng() % 1500), a));
    }
    for (TupleId t = 7; t < 1500; t += 97) delta.Delete(t);
    ASSERT_TRUE(session->Apply(delta).ok());
    ExpectMatchesReference(session->context().index(),
                           ReferenceIndex(session->data(), sigma));
  }
  EXPECT_LT(smallest, 10u);
}

INSTANTIATE_TEST_SUITE_P(Threads, BlockedOracle,
                         ::testing::Values(1, 2, 4, 8));

// --- Full-disagreement (universe-diff) groups ------------------------------

TEST(CountedGroups, AllDistinctWithoutEmptyLhsProducesEmptyIndex) {
  // Every pair disagrees everywhere; without an empty-LHS FD such pairs
  // agree on no LHS, so the blocked build never even enumerates them.
  Instance inst(MakeSchema(2));
  for (int t = 0; t < 6; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(t + 100))});
  }
  EncodedInstance enc(inst);
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  DiffSetBuildStats stats;
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      enc, sigma, {}, DiffSetBuildMode::kBlocked, &stats);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(stats.pairs_candidate, 0);
  EXPECT_EQ(stats.pairs_materialized, 0);
}

TEST(CountedGroups, AllDistinctWithEmptyLhsIsOneUniverseGroup) {
  // π_∅ is one class holding every tuple, so all C(5,2) pairs are
  // enumerated and stored as the universe group, in ascending order.
  Instance inst(MakeSchema(2));
  for (int t = 0; t < 5; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(t + 100))});
  }
  EncodedInstance enc(inst);
  DiffSetBuildStats stats;
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      enc, EmptyLhsSigma(), {}, DiffSetBuildMode::kBlocked, &stats);
  ExpectIndexIdentical(index, BuildDifferenceSetIndex(
                                  enc, EmptyLhsSigma(), {},
                                  DiffSetBuildMode::kNaive));
  ASSERT_EQ(index.size(), 1);
  EXPECT_EQ(index.group(0).diff.bits(), AttrSet::Universe(2).bits());
  EXPECT_EQ(index.group(0).frequency(), 10);
  EXPECT_EQ(stats.pairs_candidate, 10);
  EXPECT_EQ(stats.pairs_materialized, 10);
  const EdgeSpan edges = index.group(0).edges;
  ASSERT_EQ(edges.size(), 10u);
  size_t k = 0;
  for (TupleId u = 0; u < 5; ++u) {
    for (TupleId v = u + 1; v < 5; ++v) {
      EXPECT_EQ(edges[k], Edge(u, v));
      ++k;
    }
  }
}

TEST(CountedGroups, AllDuplicateTuplesProduceNoConflicts) {
  Instance inst(MakeSchema(3));
  for (int t = 0; t < 8; ++t) {
    inst.AddTuple({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  }
  EncodedInstance enc(inst);
  DiffSetBuildStats stats;
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      enc, EmptyLhsSigma(), {}, DiffSetBuildMode::kBlocked, &stats);
  ExpectIndexIdentical(index, BuildDifferenceSetIndex(
                                  enc, EmptyLhsSigma(), {},
                                  DiffSetBuildMode::kNaive));
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(stats.pairs_candidate, 28);  // C(8,2), all equal pairs
  EXPECT_EQ(stats.pairs_materialized, 0);
}

TEST(CountedGroups, SingleAttributeInstance) {
  // m = 1: the universe is {A0}; with Σ = {∅ -> A0}, unequal pairs form
  // the universe group and equal pairs vanish.
  Instance inst(MakeSchema(1));
  for (int64_t v : {0, 1, 0, 2, 1}) inst.AddTuple({Value(v)});
  EncodedInstance enc(inst);
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 0});
  DifferenceSetIndex blocked =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kBlocked);
  DifferenceSetIndex naive =
      BuildDifferenceSetIndex(enc, sigma, {}, DiffSetBuildMode::kNaive);
  ExpectIndexIdentical(blocked, naive);
  ASSERT_EQ(blocked.size(), 1);
  EXPECT_EQ(blocked.group(0).frequency(), 8);  // C(5,2) minus two equal pairs
}

TEST(CountedGroups, CopiedIndexMaterializesIndependently) {
  Instance inst(MakeSchema(2));
  for (int t = 0; t < 4; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(t + 10))});
  }
  EncodedInstance enc(inst);
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(enc, EmptyLhsSigma(), {});
  ASSERT_EQ(index.size(), 1);
  DifferenceSetIndex copy = index;
  ExpectIndexIdentical(copy, index);
  // The copy owns its edges: patching the original leaves it untouched.
  DeltaBatch delta;
  delta.Delete(0);
  DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), 2);
  enc.ApplyDelta(delta, plan);
  index.ApplyDelta(enc, EmptyLhsSigma(), plan.dirty, plan.remap, nullptr);
  EXPECT_EQ(index.group(0).frequency(), 3);
  EXPECT_EQ(copy.group(0).frequency(), 6);
}

// --- Packed pair kernel ---------------------------------------------------

/// n rows over m int attributes whose codes are then overwritten with
/// draws from {0, 1, max_code / 2 + 1, max_code - 1, max_code}: values that
/// differ only in a lane's low bit, only in its high bit, or everywhere.
/// Every column holds max_code at least once, so the lane rule sees it.
EncodedInstance RandomCodes(int n, int m, int32_t max_code,
                            std::mt19937_64& rng) {
  Instance inst(MakeSchema(m));
  for (int t = 0; t < n; ++t) inst.AddTuple(Tuple(m, Value(int64_t{0})));
  EncodedInstance enc(inst);
  const int32_t draws[] = {0, 1, max_code / 2 + 1, max_code - 1, max_code};
  for (AttrId a = 0; a < m; ++a) {
    for (TupleId t = 0; t < n; ++t) enc.SetCode(t, a, draws[rng() % 5]);
    enc.SetCode(static_cast<TupleId>(rng() % n), a, max_code);
  }
  return enc;
}

/// Every pair of `enc`'s rows through the kernel `rows` picks, against the
/// column loop.
void ExpectKernelMatchesColumnLoop(const EncodedInstance& enc) {
  const int m = enc.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = enc.ColumnData(a);
  const PackedRows rows(enc);
  WithPairKernel(rows, cols.data(), m, [&](auto diff_of) {
    for (TupleId u = 0; u < enc.NumTuples(); ++u) {
      for (TupleId v = 0; v < enc.NumTuples(); ++v) {
        ASSERT_EQ(diff_of(u, v).bits(),
                  DiffSetOfPair(cols.data(), m, u, v).bits())
            << "u=" << u << " v=" << v;
      }
    }
  });
}

TEST(PackedRows, LaneWidthFollowsTheLargestCode) {
  std::mt19937_64 rng(0x1a9e5);
  const std::pair<int32_t, int> cases[] = {
      {255, 8}, {256, 16}, {65535, 16}, {65536, 0}};
  for (const auto& [max_code, lanes] : cases) {
    for (int m : {1, 7, 8, 9, 16, 17, 64}) {
      SCOPED_TRACE("max code " + std::to_string(max_code) + ", m = " +
                   std::to_string(m));
      const EncodedInstance enc = RandomCodes(40, m, max_code, rng);
      EXPECT_EQ(PackedRows(enc).lane_bits(), lanes);
      ExpectKernelMatchesColumnLoop(enc);
    }
  }
}

TEST(PackedRows, VariableCodeTakesTheColumnLoop) {
  std::mt19937_64 rng(0x7a41);
  for (int m : {1, 9, 64}) {
    EncodedInstance enc = RandomCodes(30, m, 10, rng);
    enc.SetFreshVariable(static_cast<TupleId>(rng() % 30),
                         static_cast<AttrId>(rng() % m));
    EXPECT_EQ(PackedRows(enc).lane_bits(), 0) << "m = " << m;
    ExpectKernelMatchesColumnLoop(enc);
  }
}

TEST(PackedRows, BlockedBuildMatchesNaiveAtEveryLaneWidth) {
  std::mt19937_64 rng(0x9ac4);
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  sigma.Add(FD{AttrSet{2}, 3});
  for (int32_t max_code : {255, 65535, 65536}) {
    const EncodedInstance enc = RandomCodes(60, 9, max_code, rng);
    DiffSetBuildStats stats;
    const DifferenceSetIndex blocked = BuildDifferenceSetIndex(
        enc, sigma, nullptr, DiffSetBuildMode::kBlocked, &stats);
    EXPECT_EQ(stats.lane_bits, PackedRows(enc).lane_bits());
    ASSERT_GT(blocked.size(), 0);
    ExpectIndexIdentical(blocked,
                         BuildDifferenceSetIndex(enc, sigma, nullptr,
                                                 DiffSetBuildMode::kNaive));
  }
}

/// Dense generator data with errors and the FDs they violate.
PerturbedData DenseDirtyData() {
  CensusConfig gen;
  gen.num_tuples = 400;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 31;
  const GeneratedData clean = GenerateCensusLike(gen);
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  return Perturb(clean.instance, clean.planted_fds, perturb);
}

/// DenseDirtyData() patched by `delta` through ApplyDelta, against a fresh
/// build over the patched instance.
void ExpectPatchMatchesFreshBuild(const DeltaBatch& delta) {
  const PerturbedData data = DenseDirtyData();
  EncodedInstance enc(data.data);
  DifferenceSetIndex index = BuildDifferenceSetIndex(enc, data.fds, {});
  ASSERT_EQ(PackedRows(enc).lane_bits(), 8);
  DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), enc.NumAttrs());
  enc.ApplyDelta(delta, plan);
  const IndexPatch patch =
      index.ApplyDelta(enc, data.fds, plan.dirty, plan.remap, nullptr);
  EXPECT_GT(patch.edges_added + patch.edges_removed, 0);
  ExpectIndexIdentical(index, BuildDifferenceSetIndex(enc, data.fds, {}));
}

TEST(PackedRows, InsertOnlyDeltaPatchMatchesFreshBuild) {
  const Instance rows = DenseDirtyData().data;
  DeltaBatch delta;
  for (TupleId t = 0; t < 400; t += 37) delta.Insert(rows.row(t));
  ExpectPatchMatchesFreshBuild(delta);
}

TEST(PackedRows, UpdateOfTupleZeroPatchMatchesFreshBuild) {
  DeltaBatch delta;
  delta.Update(0, 1, Value(int64_t{987654}));
  delta.Update(0, 4, Value(int64_t{-3}));
  ExpectPatchMatchesFreshBuild(delta);
}

// --- Delta maintenance over the columnar layout --------------------------

TEST(ColumnarDelta, PatchedContextMatchesFreshBlockedBuild) {
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(4);
  CardinalityWeight weights;
  std::mt19937_64 rng(0xc01a);
  const int m = 5;
  const int domain = 3;
  Instance inst = RandomInstance(rng, 25, m, domain);
  EncodedInstance enc(inst);
  FDSet sigma = TestSigma();
  auto ctx = std::make_unique<FdSearchContext>(sigma, enc, weights,
                                               HeuristicOptions{}, pool.get());

  for (int step = 0; step < 6; ++step) {
    DeltaBatch delta;
    delta.Insert(RandomTuple(rng, m, domain));
    if (enc.NumTuples() > 0) {
      delta.Update(static_cast<TupleId>(rng() % enc.NumTuples()),
                   static_cast<AttrId>(rng() % m),
                   Value(static_cast<int64_t>(rng() % domain)));
      delta.Delete(static_cast<TupleId>(rng() % enc.NumTuples()));
    }
    DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), m);
    inst.ApplyDelta(delta, plan);
    enc.ApplyDelta(delta, plan);
    ctx = FdSearchContext::AfterDelta(std::move(ctx), enc, weights,
                                      plan.dirty, plan.remap, pool.get(),
                                      nullptr);

    // Column-major mutation must decode back to the mutated rows (codes
    // themselves are encounter-ordered, so only values are comparable
    // against a re-encode), and the columns must agree with the cells.
    ASSERT_EQ(enc.NumTuples(), inst.NumTuples());
    for (TupleId t = 0; t < inst.NumTuples(); ++t) {
      for (AttrId a = 0; a < m; ++a) {
        ASSERT_EQ(enc.DecodeCell(t, a), inst.At(t, a))
            << "t=" << t << " a=" << a;
        ASSERT_EQ(enc.column(a)[t], enc.At(t, a));
      }
    }

    FdSearchContext fresh(sigma, enc, weights, {}, pool.get());
    ExpectIndexIdentical(ctx->index(), fresh.index());
    EXPECT_EQ(ctx->RootDeltaP(), fresh.RootDeltaP());
    ExpectSameSearch(ModifyFds(*ctx, ctx->RootDeltaP() / 2),
                     ModifyFds(fresh, fresh.RootDeltaP() / 2));
  }
}

TEST(ColumnarDelta, EmptyLhsDeltaPatchesAndMatchesFresh) {
  // In the Case-B regime FdSearchContext::AfterDelta patches like in every
  // other: the all-partners scan finds full-disagreement pairs, so the
  // result matches a fresh context — including the delta that creates the
  // FIRST full-disagreement pair — and untouched groups stay preserved.
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(2);
  CardinalityWeight weights;
  FDSet sigma = EmptyLhsSigma();

  // Start with tuples that all agree on attribute 1: no universe group.
  const AttrSet universe = AttrSet::Universe(2);
  auto has_universe_group = [&](const DifferenceSetIndex& index) {
    return std::ranges::find(index.diffs(), universe) != index.diffs().end();
  };
  Instance inst(MakeSchema(2));
  for (int64_t v : {0, 1, 2}) inst.AddTuple({Value(v), Value(int64_t{7})});
  EncodedInstance enc(inst);
  auto ctx = std::make_unique<FdSearchContext>(sigma, enc, weights,
                                               HeuristicOptions{}, pool.get());
  ASSERT_FALSE(has_universe_group(ctx->index()));
  ASSERT_EQ(ctx->index().size(), 1);  // {A0}: the three A-conflicts

  // The insert disagrees with everyone everywhere: the first
  // full-disagreement pairs. The {A0} group keeps its edges untouched.
  DeltaBatch delta;
  delta.Insert({Value(int64_t{9}), Value(int64_t{8})});
  DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), 2);
  inst.ApplyDelta(delta, plan);
  enc.ApplyDelta(delta, plan);
  IndexPatch patch;
  ctx = FdSearchContext::AfterDelta(std::move(ctx), enc, weights, plan.dirty,
                                    plan.remap, pool.get(), &patch);
  EXPECT_EQ(patch.groups_preserved, 1);

  FdSearchContext fresh(sigma, enc, weights, {}, pool.get());
  EXPECT_TRUE(has_universe_group(ctx->index()));
  ExpectIndexIdentical(ctx->index(), fresh.index());
  EXPECT_EQ(ctx->RootDeltaP(), fresh.RootDeltaP());
  ExpectSameSearch(ModifyFds(*ctx, 0), ModifyFds(fresh, 0));

  // And further deltas (update + delete) keep matching.
  DeltaBatch delta2;
  delta2.Update(0, 1, Value(int64_t{8}));
  delta2.Delete(2);
  DeltaPlan plan2 = PlanDelta(delta2, enc.NumTuples(), 2);
  inst.ApplyDelta(delta2, plan2);
  enc.ApplyDelta(delta2, plan2);
  ctx = FdSearchContext::AfterDelta(std::move(ctx), enc, weights,
                                    plan2.dirty, plan2.remap, pool.get(),
                                    nullptr);
  FdSearchContext fresh2(sigma, enc, weights, {}, pool.get());
  ExpectIndexIdentical(ctx->index(), fresh2.index());
  EXPECT_EQ(ctx->RootDeltaP(), fresh2.RootDeltaP());
}

// --- Edge width -----------------------------------------------------------

/// n rows over (A0, A1): A1 is a key and A0 pairs rows up as (2k, 2k + 1),
/// the last class also taking row n - 1 when n is odd. Under A0 -> A1 each
/// class is a clique of conflict edges, so a 65k-row index stays cheap.
Instance PairedRows(int n) {
  Instance inst(MakeSchema(2));
  for (int t = 0; t < n; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(std::min(t / 2, (n - 2) / 2))),
                   Value(static_cast<int64_t>(t))});
  }
  return inst;
}

FDSet PairSigma() {
  FDSet sigma;
  sigma.Add(FD{AttrSet{0}, 1});
  return sigma;
}

TEST(EdgeWidth, NarrowUpToKMaxNarrowTuplesAndWideAbove) {
  for (int n : {kMaxNarrowTuples, kMaxNarrowTuples + 1}) {
    const EncodedInstance enc(PairedRows(n));
    const DifferenceSetIndex index =
        BuildDifferenceSetIndex(enc, PairSigma(), nullptr);
    const bool narrow = n <= kMaxNarrowTuples;
    EXPECT_EQ(index.edges().narrow(), narrow) << n;
    EXPECT_EQ(index.edges().size_bytes(),
              index.edges().size() * (narrow ? 4 : 8))
        << n;
    // Every class's pairs, in canonical order; the last edge carries the
    // largest id, n - 1 (65,535 on the narrow side).
    std::vector<Edge> want;
    for (TupleId u = 0; u < n; ++u) {
      for (TupleId v = u + 1; v < n; ++v) {
        if (enc.At(u, 0) != enc.At(v, 0)) break;
        want.emplace_back(u, v);
      }
    }
    ASSERT_EQ(index.size(), 1) << n;
    EXPECT_TRUE(std::ranges::equal(index.group(0).edges, want)) << n;
    EXPECT_EQ(index.edges()[index.edges().size() - 1], Edge(n - 2, n - 1));
  }
}

TEST(EdgeWidth, DeltasAcrossTheWidthBoundaryMatchFreshBuilds) {
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(4);
  const FDSet sigma = PairSigma();
  EncodedInstance enc(PairedRows(kMaxNarrowTuples));
  DifferenceSetIndex index = BuildDifferenceSetIndex(enc, sigma, pool.get());
  ASSERT_TRUE(index.edges().narrow());
  const auto apply = [&](const DeltaBatch& delta) {
    const DeltaPlan plan = PlanDelta(delta, enc.NumTuples(), 2);
    enc.ApplyDelta(delta, plan);
    index.ApplyDelta(enc, sigma, plan.dirty, plan.remap, pool.get());
    const DifferenceSetIndex fresh =
        BuildDifferenceSetIndex(enc, sigma, pool.get());
    EXPECT_EQ(index.edges().narrow(), fresh.edges().narrow());
    ExpectIndexIdentical(index, fresh);
  };

  // Two inserts that join the first and the last class: 65,538 rows.
  DeltaBatch grow;
  grow.Insert({Value(int64_t{0}), Value(int64_t{-1})});
  grow.Insert({Value(int64_t{kMaxNarrowTuples / 2 - 1}), Value(int64_t{-2})});
  apply(grow);
  ASSERT_EQ(enc.NumTuples(), kMaxNarrowTuples + 2);
  EXPECT_FALSE(index.edges().narrow());

  // A delete that moves the last row into slot 5, and one of an inserted
  // row: back to 65,536 rows.
  DeltaBatch shrink;
  shrink.Delete(5);
  shrink.Delete(kMaxNarrowTuples);
  apply(shrink);
  ASSERT_EQ(enc.NumTuples(), kMaxNarrowTuples);
  EXPECT_TRUE(index.edges().narrow());
}

}  // namespace
}  // namespace retrust
