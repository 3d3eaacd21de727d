#include "src/repair/repair_data.h"

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/exec/thread_pool.h"
#include "src/fd/conflict_graph.h"
#include "src/fd/violation.h"
#include "src/graph/vertex_cover.h"
#include "src/repair/repair_driver.h"

namespace retrust {
namespace {

Instance Fig6() {
  // Figure 6's instance (same as Figure 2).
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

TEST(RepairData, OutputSatisfiesSigmaPrime) {
  EncodedInstance enc(Fig6());
  // Figure 6 repairs under Σ' = {CA->B, C->D}.
  FDSet sigma = FDSet::Parse({"C,A->B", "C->D"}, Fig6().schema());
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    DataRepairResult r = RepairData(enc, sigma, &rng);
    EXPECT_TRUE(Satisfies(r.repaired, sigma)) << "seed " << seed;
    EXPECT_LE(static_cast<int64_t>(r.changed_cells.size()),
              r.change_bound);
  }
}

TEST(RepairData, NoChangesWhenAlreadyConsistent) {
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A,B->C"}, Fig6().schema());
  Rng rng(1);
  DataRepairResult r = RepairData(enc, sigma, &rng);
  EXPECT_TRUE(r.changed_cells.empty());
  EXPECT_EQ(r.cover_size, 0);
  EXPECT_EQ(enc.DistdTo(r.repaired), 0);
}

TEST(RepairData, OnlyCoverTuplesChange) {
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig6().schema());
  ConflictGraph cg = BuildConflictGraph(enc, sigma);
  auto cover = GreedyVertexCover(cg.graph);
  std::vector<char> in_cover(enc.NumTuples(), 0);
  for (int32_t t : cover) in_cover[t] = 1;
  Rng rng(3);
  DataRepairResult r = RepairData(enc, sigma, &rng);
  for (const CellRef& c : r.changed_cells) {
    EXPECT_TRUE(in_cover[c.tuple])
        << "changed non-cover tuple t" << c.tuple;
  }
}

TEST(RepairData, GroundedRepairStillSatisfies) {
  // V-instance semantics: instantiating the variables with fresh values
  // must preserve satisfaction.
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig6().schema());
  Rng rng(7);
  DataRepairResult r = RepairData(enc, sigma, &rng);
  Instance grounded = r.repaired.Decode().Ground();
  EncodedInstance genc(grounded);
  EXPECT_TRUE(Satisfies(genc, sigma));
}

TEST(RepairData, PerTupleChangesBoundedByAlpha) {
  EncodedInstance enc(Fig6());
  FDSet sigma = FDSet::Parse({"A->B", "C->D"}, Fig6().schema());
  int64_t per_tuple = std::min<int64_t>(enc.NumAttrs() - 1, sigma.size());
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    DataRepairResult r = RepairData(enc, sigma, &rng);
    std::vector<int> changes_per_tuple(enc.NumTuples(), 0);
    for (const CellRef& c : r.changed_cells) ++changes_per_tuple[c.tuple];
    for (int c : changes_per_tuple) {
      EXPECT_LE(c, per_tuple) << "seed " << seed;
    }
  }
}

// Find_Assignment with `pins` fixed, through the incremental chase: pins
// them in order as Algorithm 4's steps do and reports whether the last pin
// kept the closure consistent.
bool ChaseFixed(internal::TupleChase* chase, const EncodedInstance& enc,
                TupleId t, const std::vector<AttrId>& pins) {
  bool found = true;
  for (size_t k = 0; k < pins.size(); ++k) {
    found = chase->Pin(pins[k], enc.At(t, pins[k]), static_cast<int>(k));
  }
  return found;
}

TEST(FindAssignment, ForcesRhsFromCleanWitness) {
  // Clean tuple (1, x); repairing t1 = (1, y) with A fixed forces B = x.
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex clean(sigma);
  clean.Insert(enc, 0);
  internal::TupleChase chase(sigma, clean, enc.NumAttrs());
  chase.Start(enc.next_var_counters().data());
  ASSERT_TRUE(ChaseFixed(&chase, enc, 1, {0}));
  EXPECT_EQ(chase.Value(0), enc.At(1, 0));
  EXPECT_EQ(chase.Value(1), enc.At(0, 1));  // forced to the witness's B
}

TEST(FindAssignment, FailsWhenForcedValueConflictsWithFixed) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("1"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex clean(sigma);
  clean.Insert(enc, 0);
  // Both cells fixed: B is pinned to y but the clean witness forces x.
  internal::TupleChase chase(sigma, clean, enc.NumAttrs());
  chase.Start(enc.next_var_counters().data());
  EXPECT_FALSE(ChaseFixed(&chase, enc, 1, {0, 1}));
  EXPECT_EQ(chase.Value(1), enc.At(0, 1));  // what line 11 writes
}

TEST(FindAssignment, FreshVariablesAvoidSpuriousMatches) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("2"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex clean(sigma);
  clean.Insert(enc, 0);
  // Only B fixed: A holds a fresh variable that matches no clean key.
  internal::TupleChase chase(sigma, clean, enc.NumAttrs());
  chase.Start(enc.next_var_counters().data());
  ASSERT_TRUE(ChaseFixed(&chase, enc, 1, {1}));
  EXPECT_TRUE(IsVariableCode(chase.Value(0)));
  EXPECT_EQ(chase.Value(1), enc.At(1, 1));
}

TEST(FindAssignment, ChasesTransitiveFds) {
  // Σ' = {A->B, B->C}; fixing A forces B, which forces C.
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  inst.AddTuple({Value("1"), Value("b"), Value("c")});
  inst.AddTuple({Value("1"), Value("z"), Value("w")});
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B", "B->C"}, inst.schema());
  internal::CleanIndex clean(sigma);
  clean.Insert(enc, 0);
  internal::TupleChase chase(sigma, clean, enc.NumAttrs());
  chase.Start(enc.next_var_counters().data());
  ASSERT_TRUE(ChaseFixed(&chase, enc, 1, {0}));
  EXPECT_EQ(chase.Value(1), enc.At(0, 1));
  EXPECT_EQ(chase.Value(2), enc.At(0, 2));
}

// Σ = {∅ -> B} over six tuples: at τr = 1 Σ' keeps the empty LHS, and a
// tuple whose order starts at B has that cell forced by the clean set. The
// chase once threw on seeds 0, 10, 14, 17 and 19 here; every seed must now
// repair, with I' satisfying Σ'.
TEST(RepairData, EmptyLhsForcingTheFirstAttributeRepairs) {
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  for (auto [a, b, c] : {std::tuple{"1", "x", "p"}, std::tuple{"2", "x", "q"},
                         std::tuple{"3", "x", "r"}, std::tuple{"4", "y", "s"},
                         std::tuple{"5", "x", "t"}, std::tuple{"6", "z", "u"}}) {
    inst.AddTuple({Value(a), Value(b), Value(c)});
  }
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 1});
  Result<Session> session = Session::Open(inst, sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (double tau_r : {0.0, 0.5, 1.0}) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const std::string label =
          "tau_r=" + std::to_string(tau_r) + " seed=" + std::to_string(seed);
      RepairRequest req = RepairRequest::AtRelative(tau_r);
      req.seed = seed;
      Result<RepairResponse> got = session->Repair(req);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      EXPECT_TRUE(Satisfies(got->repair.data, got->repair.sigma_prime))
          << label;
      if (tau_r == 1.0) {
        // Σ' kept ∅ -> B: every tuple now shares one B.
        EXPECT_TRUE(got->repair.sigma_prime.fd(0).lhs.Empty()) << label;
      }
    }
  }
}

// --- Flat clean index and its overlay ---------------------------------------

/// Random keys of `width` codes (constants and variables, from a small
/// domain so keys repeat) against a std::map oracle. The table starts at
/// two slots, so it grows through every size and home slots collide.
TEST(FlatKeyMap, MatchesMapOracleAtEveryWidth) {
  for (int width : {0, 1, 2, 5, 7}) {
    const std::string at = "width=" + std::to_string(width);
    internal::FlatKeyMap map(width, 2);
    std::map<std::vector<int32_t>, int32_t> oracle;
    std::mt19937 gen(static_cast<uint32_t>(width) + 1);
    std::uniform_int_distribution<int32_t> code(-3, 4);
    std::vector<int32_t> key(width);
    for (int i = 0; i < 600; ++i) {
      for (int32_t& c : key) c = code(gen);
      const int32_t value = code(gen);
      const auto [stored, inserted] = map.Insert(
          key.data(), internal::FlatKeyMap::Hash(key.data(), width), value);
      const auto [it, want_inserted] = oracle.try_emplace(key, value);
      EXPECT_EQ(inserted, want_inserted) << at;
      EXPECT_EQ(stored, it->second) << at;
    }
    ASSERT_EQ(map.size(), oracle.size()) << at;
    EXPECT_GE(map.slot_count(), 2 * map.size()) << at;
    std::set<size_t> homes;
    for (const auto& [k, v] : oracle) {
      const uint64_t hash = internal::FlatKeyMap::Hash(k.data(), width);
      const int32_t* found = map.Find(k.data(), hash);
      ASSERT_NE(found, nullptr) << at;
      EXPECT_EQ(*found, v) << at;
      homes.insert(static_cast<size_t>(hash) & (map.slot_count() - 1));
    }
    if (width >= 2) {
      // Some keys share a home slot, so the lookups above walked probes.
      EXPECT_LT(homes.size(), oracle.size()) << at;
      // Codes outside the domain: every probe ends at an empty slot.
      for (int i = 0; i < 200; ++i) {
        for (int32_t& c : key) c = code(gen);
        key[i % width] = 100 + i;
        EXPECT_EQ(map.Find(key.data(),
                           internal::FlatKeyMap::Hash(key.data(), width)),
                  nullptr)
            << at;
      }
    }
  }
}

TEST(CleanIndex, EmptyLhsHoldsOneKey) {
  Instance inst(Schema::FromNames({"A", "B"}));
  inst.AddTuple({Value("1"), Value("x")});
  inst.AddTuple({Value("2"), Value("x")});
  inst.AddTuple({Value("3"), Value("y")});
  EncodedInstance enc(inst);
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 1});
  internal::CleanIndex clean(sigma);
  clean.Insert(enc, 0);
  clean.Insert(enc, 1);
  const std::vector<int32_t> empty_key;
  EXPECT_EQ(clean.ForcedRhs(0, empty_key), enc.At(0, 1));
  EXPECT_THROW(clean.Insert(enc, 2), std::logic_error);
}

TEST(CleanIndex, OverlaySeesBaseAndRejectsConflicts) {
  // A->B over (1,x) (2,y) | (1,z) (3,w) (3,v).
  Instance inst(Schema::FromNames({"A", "B"}));
  for (auto [a, b] : {std::pair{"1", "x"}, std::pair{"2", "y"},
                      std::pair{"1", "z"}, std::pair{"3", "w"},
                      std::pair{"3", "v"}}) {
    inst.AddTuple({Value(a), Value(b)});
  }
  EncodedInstance enc(inst);
  FDSet sigma = FDSet::Parse({"A->B"}, inst.schema());
  internal::CleanIndex base(sigma);
  base.Insert(enc, 0);
  base.Insert(enc, 1);
  const internal::CleanIndex before = base;

  internal::CleanIndex overlay = internal::CleanIndex::Overlay(base);
  const std::vector<int32_t> key1 = {enc.At(0, 0)};
  const std::vector<int32_t> key3 = {enc.At(3, 0)};
  EXPECT_EQ(overlay.ForcedRhs(0, key1), enc.At(0, 1));  // from the base
  overlay.Insert(enc, 3);
  EXPECT_EQ(overlay.ForcedRhs(0, key3), enc.At(3, 1));
  EXPECT_FALSE(base.ForcedRhs(0, key3).has_value());
  // (1,z) conflicts with the base's (1,x); (3,v) with the overlay's (3,w).
  EXPECT_THROW(overlay.Insert(enc, 2), std::logic_error);
  EXPECT_THROW(overlay.Insert(enc, 4), std::logic_error);
  EXPECT_TRUE(base == before);
}

// One base serves any number of seeds: each chase equals a standalone
// RepairData with the same seed, and the base is left as built.
TEST(RepairBase, ChasesShareOneBaseUnchanged) {
  CensusConfig cfg;
  cfg.num_tuples = 300;
  cfg.num_attrs = 8;
  cfg.planted_lhs_sizes = {3, 2};
  cfg.seed = 11;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.04;
  popts.seed = 12;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  EncodedInstance enc(dirty.data);
  const RepairBase base = BuildRepairBase(enc, dirty.fds);
  ASSERT_FALSE(base.cover.empty());
  const RepairBase before = base;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng chase_rng(seed);
    Rng oracle_rng(seed);
    DataRepairResult got = RepairFromBase(base, enc, &chase_rng);
    DataRepairResult want = RepairData(enc, dirty.fds, &oracle_rng);
    EXPECT_TRUE(got.repaired.DiffCells(want.repaired).empty()) << seed;
    EXPECT_EQ(got.changed_cells, want.changed_cells) << seed;
    EXPECT_EQ(got.cover_size, want.cover_size) << seed;
  }
  EXPECT_TRUE(base == before);
}

// --- The legacy chase: the incremental chase's oracle ----------------------
//
// Algorithm 4's chase as it ran before it became incremental, kept
// verbatim: every step re-runs Algorithm 5 from scratch, minting a fresh
// variable for each attribute not yet fixed and redoing every clean-set
// lookup. RepairFromBase must match it bit for bit — repaired codes,
// fresh-variable counters, changed cells, the random draws it consumed,
// and the overflow_error it throws when a counter runs out — except where
// it threw the logic_error below, on Σ' with an ∅-LHS FD.

bool LegacyFindAssignment(EncodedInstance* inst, TupleId t, AttrSet fixed,
                          const FDSet& sigma_prime,
                          const internal::CleanIndex& clean,
                          std::vector<int32_t>* tc_out,
                          std::vector<int32_t>* key) {
  int m = inst->NumAttrs();
  // Line 1: tc equals t on fixed attributes, fresh variables elsewhere.
  std::vector<int32_t>& tc = *tc_out;
  tc.resize(m);
  for (AttrId a = 0; a < m; ++a) {
    tc[a] = fixed.Contains(a) ? inst->At(t, a) : inst->NewVariableCode(a);
  }
  // Lines 2-9: chase violations against the clean set. Each iteration that
  // finds a violation pins one more attribute, so the loop terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < sigma_prime.size(); ++i) {
      const FD& fd = sigma_prime.fd(i);
      if (fd.IsTrivial()) continue;
      // An LHS attribute outside `fixed` still holds the variable minted
      // above, which no clean tuple carries: the lookup would miss.
      if (!fd.lhs.SubsetOf(fixed)) continue;
      clean.MakeKey(i, [&](AttrId a) { return tc[a]; }, key);
      std::optional<int32_t> forced = clean.ForcedRhs(i, *key);
      if (!forced.has_value() || tc[fd.rhs] == *forced) continue;
      if (fixed.Contains(fd.rhs)) return false;  // line 4
      tc[fd.rhs] = *forced;                      // line 6
      fixed.Add(fd.rhs);                         // line 7
      changed = true;
    }
  }
  return true;
}

DataRepairResult LegacyRepairFromBase(const RepairBase& base,
                                      const EncodedInstance& inst, Rng* rng) {
  const FDSet& sigma_prime = base.sigma_prime;
  DataRepairResult result;
  result.cover_size = static_cast<int64_t>(base.cover.size());
  int64_t per_tuple =
      std::min<int64_t>(inst.NumAttrs() - 1, sigma_prime.size());
  result.change_bound = result.cover_size * per_tuple;

  EncodedInstance repaired = inst;  // I' <- I
  // Repaired cover tuples join the clean set in an overlay on the base.
  internal::CleanIndex clean = internal::CleanIndex::Overlay(base.clean);

  // Process cover tuples in random order (Algorithm 4 line 5).
  std::vector<int32_t> order = base.cover;
  rng->Shuffle(&order);
  int m = repaired.NumAttrs();
  std::vector<AttrId> attr_order(m);
  for (AttrId a = 0; a < m; ++a) attr_order[a] = a;

  // The chase's buffers, reused for every assignment of every tuple.
  std::vector<int32_t> tc, next, key;
  for (int32_t t : order) {
    rng->Shuffle(&attr_order);  // random attribute order for this tuple
    AttrSet fixed;
    fixed.Add(attr_order[0]);  // line 6
    if (!LegacyFindAssignment(&repaired, t, fixed, sigma_prime, clean, &tc,
                              &key)) {
      // Lemma 2 + Theorem 3: a valid assignment always exists with a single
      // fixed attribute.
      throw std::logic_error("Find_Assignment failed with one fixed attr");
    }
    for (int k = 1; k < m; ++k) {  // lines 8-15
      AttrId a = attr_order[k];
      fixed.Add(a);
      if (!LegacyFindAssignment(&repaired, t, fixed, sigma_prime, clean,
                                &next, &key)) {
        repaired.SetCode(t, a, tc[a]);  // line 11
      } else {
        tc.swap(next);  // line 13
      }
    }
    clean.Insert(repaired, t);  // t joins I' \ C2opt for later tuples
  }

  // Only cover tuples were written.
  result.changed_cells = internal::DiffTuples(inst, repaired, base.cover);
  result.repaired = std::move(repaired);
  return result;
}

/// How one chase of `base` ended: its result, or what it threw.
struct ChaseRun {
  std::optional<DataRepairResult> result;
  std::string overflow;  ///< what() of a std::overflow_error
  bool legacy_failed = false;  ///< the legacy loop's ∅-LHS logic_error
  uint64_t next_draw = 0;  ///< the rng's next draw after the chase
};

template <typename Chase>
ChaseRun RunChase(Chase chase, const RepairBase& base,
                  const EncodedInstance& inst, uint64_t seed) {
  ChaseRun run;
  Rng rng(seed);
  try {
    run.result = chase(base, inst, &rng);
  } catch (const std::overflow_error& e) {
    run.overflow = e.what();
  } catch (const std::logic_error&) {
    run.legacy_failed = true;
  }
  run.next_draw = rng.NextUint(uint64_t{1} << 62);
  return run;
}

/// Chases `base` with both loops at `seed` and returns the legacy loop's
/// run. Where it threw its ∅-LHS logic_error, the new chase must instead
/// return a repair satisfying Σ'.
ChaseRun ExpectMatchesLegacy(const RepairBase& base,
                             const EncodedInstance& inst, uint64_t seed,
                             const std::string& label) {
  const ChaseRun want = RunChase(LegacyRepairFromBase, base, inst, seed);
  const ChaseRun got = RunChase(RepairFromBase, base, inst, seed);
  EXPECT_FALSE(got.legacy_failed) << label;
  if (want.legacy_failed) {
    EXPECT_TRUE(got.result.has_value()) << label;
    if (got.result.has_value()) {
      EXPECT_TRUE(Satisfies(got.result->repaired, base.sigma_prime)) << label;
    }
    return want;
  }
  EXPECT_EQ(got.overflow, want.overflow) << label;
  EXPECT_EQ(got.next_draw, want.next_draw) << label;
  EXPECT_EQ(got.result.has_value(), want.result.has_value()) << label;
  if (got.result.has_value() && want.result.has_value()) {
    const EncodedInstance& g = got.result->repaired;
    const EncodedInstance& w = want.result->repaired;
    for (AttrId a = 0; a < w.NumAttrs(); ++a) {
      EXPECT_EQ(g.column(a), w.column(a)) << label << " attr " << a;
    }
    EXPECT_EQ(g.next_var_counters(), w.next_var_counters()) << label;
    EXPECT_EQ(got.result->changed_cells, want.result->changed_cells)
        << label;
    EXPECT_EQ(got.result->cover_size, want.result->cover_size) << label;
    EXPECT_EQ(got.result->change_bound, want.result->change_bound) << label;
  }
  return want;
}

/// A random relation over `m` attributes with `domain` constants per
/// column; `variable_pct` percent of the cells hold one of three variables
/// per column, whose indices start at `var_floor`.
Instance RandomRelation(std::mt19937_64* gen, int n, int m, int domain,
                        int variable_pct, int32_t var_floor = 0) {
  std::vector<std::string> names;
  for (int a = 0; a < m; ++a) names.push_back(std::string(1, 'A' + a));
  Instance inst(Schema::FromNames(names));
  std::uniform_int_distribution<int> value(0, domain - 1), pct(0, 99),
      var(0, 2);
  for (int t = 0; t < n; ++t) {
    Tuple row;
    for (AttrId a = 0; a < m; ++a) {
      row.push_back(pct(*gen) < variable_pct
                        ? Value::Variable(a, var_floor + var(*gen))
                        : Value(std::to_string(value(*gen))));
    }
    inst.AddTuple(std::move(row));
  }
  return inst;
}

/// A random Σ' of `k` FDs: LHS of 0-2 attributes (empty only when
/// `allow_empty`), any RHS, so it holds cycles, chains, duplicate RHSs,
/// duplicate FDs and now and then a trivial FD.
FDSet RandomSigma(std::mt19937_64* gen, int m, int k, bool allow_empty) {
  std::uniform_int_distribution<int> attr(0, m - 1),
      width(allow_empty ? 0 : 1, 2);
  FDSet sigma;
  for (int i = 0; i < k; ++i) {
    AttrSet lhs;
    for (int w = width(*gen); lhs.Count() < w;) lhs.Add(attr(*gen));
    sigma.Add(FD{lhs, attr(*gen)});
  }
  return sigma;
}

FDSet Fds(const std::vector<std::pair<AttrSet, AttrId>>& fds) {
  FDSet sigma;
  for (const auto& [lhs, rhs] : fds) sigma.Add(FD{lhs, rhs});
  return sigma;
}

// Fixed Σ' shapes over A..E: the cycle, a chain, duplicate RHSs, a
// two-attribute LHS beside its own RHS's cycle, and all of them at once.
TEST(ChaseOracle, ShapedSigmaMatchesLegacyLoop) {
  const std::vector<FDSet> shapes = {
      Fds({{AttrSet{0}, 1}, {AttrSet{1}, 0}}),
      Fds({{AttrSet{0}, 1}, {AttrSet{1}, 2}, {AttrSet{2}, 3}}),
      Fds({{AttrSet{0}, 2}, {AttrSet{1}, 2}, {AttrSet{3}, 2}}),
      Fds({{AttrSet{0, 1}, 2}, {AttrSet{2}, 3}, {AttrSet{3}, 2}}),
      Fds({{AttrSet{0}, 1},
           {AttrSet{1}, 0},
           {AttrSet{1}, 2},
           {AttrSet{2}, 3},
           {AttrSet{3}, 2},
           {AttrSet{0, 4}, 3},
           {AttrSet{0}, 1}}),
  };
  std::mt19937_64 gen(41);
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    for (int round = 0; round < 6; ++round) {
      // Small domains: most tuples conflict, so the cover (and the
      // overlay of repaired tuples) is most of the relation.
      const EncodedInstance enc(
          RandomRelation(&gen, 40, 5, 2 + round, round % 2 == 0 ? 0 : 8));
      const RepairBase base = BuildRepairBase(enc, shapes[shape]);
      for (uint64_t seed = 0; seed < 5; ++seed) {
        ExpectMatchesLegacy(base, enc, seed,
                            "shape " + std::to_string(shape) + " round " +
                                std::to_string(round) + " seed " +
                                std::to_string(seed));
      }
    }
  }
}

TEST(ChaseOracle, RandomSigmaMatchesLegacyLoop) {
  std::mt19937_64 gen(43);
  std::uniform_int_distribution<int> width(2, 7), fds(1, 6), domain(2, 6);
  int covered = 0;
  for (int round = 0; round < 150; ++round) {
    const int m = width(gen);
    const EncodedInstance enc(
        RandomRelation(&gen, 30, m, domain(gen), round % 3 == 0 ? 10 : 0));
    const RepairBase base =
        BuildRepairBase(enc, RandomSigma(&gen, m, fds(gen), false));
    if (!base.cover.empty()) ++covered;
    for (uint64_t seed = 0; seed < 3; ++seed) {
      EXPECT_FALSE(ExpectMatchesLegacy(base, enc, seed,
                                       "round " + std::to_string(round) +
                                           " seed " + std::to_string(seed))
                       .legacy_failed)
          << "non-empty LHSs: the legacy loop completes every tuple";
    }
  }
  EXPECT_GT(covered, 100);
}

// With ∅-LHS FDs the legacy loop throws whenever one forces a tuple's
// first attribute to another value; everywhere else the two agree.
TEST(ChaseOracle, EmptyLhsSigmaMatchesLegacyLoopWhereItCompleted) {
  std::mt19937_64 gen(47);
  std::uniform_int_distribution<int> width(2, 6), fds(1, 5);
  int legacy_failures = 0;
  int compared = 0;
  for (int round = 0; round < 150; ++round) {
    const int m = width(gen);
    const EncodedInstance enc(RandomRelation(&gen, 24, m, 3, 0));
    const RepairBase base =
        BuildRepairBase(enc, RandomSigma(&gen, m, fds(gen), true));
    for (uint64_t seed = 0; seed < 3; ++seed) {
      const ChaseRun legacy = ExpectMatchesLegacy(
          base, enc, seed,
          "round " + std::to_string(round) + " seed " + std::to_string(seed));
      legacy.legacy_failed ? ++legacy_failures : ++compared;
    }
  }
  EXPECT_GT(legacy_failures, 0);
  EXPECT_GT(compared, 0);
}

// Counters a few indices below INT32_MAX: the chase reserves a tuple's
// indices up front, yet must throw the overflow_error the legacy loop
// throws one call at a time — for the same tuple and attribute.
TEST(ChaseOracle, CountersNearTheCapThrowLikeLegacyLoop) {
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  std::mt19937_64 gen(53);
  int threw = 0;
  int completed = 0;
  for (int32_t headroom : {1, 3, 6, 12, 25, 60, 200}) {
    for (int round = 0; round < 4; ++round) {
      // Every column holds variables up to index kMax - headroom - 1, so
      // each counter starts `headroom` indices below the cap.
      const EncodedInstance enc(
          RandomRelation(&gen, 20, 4, 3, 15, kMax - headroom - 3));
      const RepairBase base = BuildRepairBase(
          enc, Fds({{AttrSet{0}, 1}, {AttrSet{1}, 2}, {AttrSet{2, 3}, 0}}));
      for (uint64_t seed = 0; seed < 4; ++seed) {
        const ChaseRun legacy = ExpectMatchesLegacy(
            base, enc, seed,
            "headroom " + std::to_string(headroom) + " seed " +
                std::to_string(seed));
        legacy.overflow.empty() ? ++completed : ++threw;
      }
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(completed, 0);
}

// The rounds a counter reservation stands for: round j hands attribute a
// index counter + j while counts[a] > j, and the first call to reach the
// cap names its attribute.
TEST(ChaseOracle, FreshVariableRoundsThrowAtTheFirstCappedCall) {
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  inst.AddTuple({Value::Variable(0, kMax - 4), Value::Variable(1, kMax - 2),
                 Value::Variable(2, kMax - 2)});
  const EncodedInstance enc(inst);  // counters kMax-3, kMax-1, kMax-1
  auto thrown = [&](std::vector<int32_t> counts) -> std::string {
    EncodedInstance copy = enc;
    try {
      copy.TakeFreshVariableRounds(counts);
    } catch (const std::overflow_error& e) {
      EXPECT_EQ(copy.next_var_counters(), enc.next_var_counters());
      return e.what();
    }
    for (AttrId a = 0; a < 3; ++a) {
      EXPECT_EQ(copy.next_var_counters()[a],
                enc.next_var_counters()[a] + counts[a]);
    }
    return "";
  };
  EXPECT_EQ(thrown({3, 1, 1}), "");
  // C alone runs out in round 1.
  EXPECT_EQ(thrown({0, 1, 2}), "attribute 2 has no fresh variable index left");
  // B and C both run out in round 1: B is reached first.
  EXPECT_EQ(thrown({0, 2, 2}), "attribute 1 has no fresh variable index left");
  // A runs out only in round 3, after C's round 1.
  EXPECT_EQ(thrown({5, 0, 2}), "attribute 2 has no fresh variable index left");
  EXPECT_EQ(thrown({4, 0, 1}), "attribute 0 has no fresh variable index left");
}

// Property sweep: on perturbed census workloads, the repair always
// satisfies Σ' and respects the Theorem 3 change bound.
class RepairDataProperty : public ::testing::TestWithParam<int> {};

TEST_P(RepairDataProperty, SatisfiesAndBounded) {
  CensusConfig cfg;
  cfg.num_tuples = 300;
  cfg.num_attrs = 8;
  cfg.planted_lhs_sizes = {3};
  cfg.seed = static_cast<uint64_t>(GetParam()) * 13 + 1;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.34;
  popts.data_error_rate = 0.03;
  popts.seed = static_cast<uint64_t>(GetParam()) * 7 + 2;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  EncodedInstance enc(dirty.data);
  Rng rng(static_cast<uint64_t>(GetParam()));
  DataRepairResult r = RepairData(enc, dirty.fds, &rng);
  EXPECT_TRUE(Satisfies(r.repaired, dirty.fds));
  EXPECT_LE(static_cast<int64_t>(r.changed_cells.size()), r.change_bound);
  // Cells not reported as changed are truly unchanged.
  int diff = enc.DistdTo(r.repaired);
  EXPECT_EQ(diff, static_cast<int>(r.changed_cells.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairDataProperty, ::testing::Range(0, 12));

// --- Context front door == standalone oracle -------------------------------
//
// RunRepair reads Algorithm 4's cover from the search context (the goal
// state's violated groups of Σ's index); the standalone RepairData builds
// the Σ' index from scratch. With the same seed both must produce the same
// I', the same changed cells, the same cover and the same change bound.

/// The τ grid every comparison runs: both endpoints plus interior points.
constexpr double kTauGrid[] = {0.0, 0.25, 0.5, 0.75, 1.0};

PerturbedData CensusWorkload(int seed, int num_tuples = 300) {
  CensusConfig cfg;
  cfg.num_tuples = num_tuples;
  cfg.num_attrs = 8;
  cfg.planted_lhs_sizes = {3, 2};
  cfg.seed = static_cast<uint64_t>(seed) * 31 + 5;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.04;
  popts.seed = static_cast<uint64_t>(seed) * 17 + 3;
  return Perturb(data.instance, data.planted_fds, popts);
}

/// Compares one context-path repair against the standalone oracle.
void ExpectMatchesStandalone(const FdSearchContext& ctx,
                             const EncodedInstance& inst, const Repair& got,
                             uint64_t seed, const std::string& label) {
  Rng oracle_rng(seed);
  DataRepairResult want = RepairData(inst, got.sigma_prime, &oracle_rng);
  EXPECT_EQ(got.data.NumTuples(), want.repaired.NumTuples()) << label;
  EXPECT_TRUE(got.data.DiffCells(want.repaired).empty()) << label;
  EXPECT_EQ(got.changed_cells, want.changed_cells) << label;
  EXPECT_EQ(want.cover_size * ctx.alpha(), got.delta_p) << label;

  // The context front door itself, for the fields Repair does not carry.
  Rng ctx_rng(seed);
  DataRepairResult direct =
      RepairData(ctx, inst, SearchState(got.extensions), &ctx_rng);
  EXPECT_EQ(direct.cover_size, want.cover_size) << label;
  EXPECT_EQ(direct.change_bound, want.change_bound) << label;
  EXPECT_EQ(direct.changed_cells, want.changed_cells) << label;
}

/// Runs RunRepair over the τ grid and checks every repair against the
/// oracle. Returns how many grid points produced a repair.
int ExpectGridMatchesStandalone(const FdSearchContext& ctx,
                                const EncodedInstance& inst,
                                const std::string& label) {
  int repaired = 0;
  const int64_t root = ctx.RootDeltaP();
  for (double tau_r : kTauGrid) {
    RepairOptions opts;
    opts.seed = static_cast<uint64_t>(tau_r * 100) + 11;
    RepairOutcome outcome =
        RunRepair(ctx, inst, TauFromRelative(tau_r, root), opts);
    if (!outcome.repair.has_value()) continue;
    ++repaired;
    ExpectMatchesStandalone(ctx, inst, *outcome.repair, opts.seed,
                            label + " tau_r=" + std::to_string(tau_r));
  }
  return repaired;
}

class ContextRepairOracle : public ::testing::TestWithParam<int> {};

TEST_P(ContextRepairOracle, RunRepairMatchesStandaloneAtEveryThreadCount) {
  PerturbedData dirty = CensusWorkload(GetParam());
  EncodedInstance enc(dirty.data);
  CardinalityWeight weights;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    FdSearchContext ctx(dirty.fds, enc, weights, {}, pool.get());
    EXPECT_GT(ExpectGridMatchesStandalone(
                  ctx, enc, "threads=" + std::to_string(threads)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextRepairOracle, ::testing::Range(0, 4));

TEST(ContextRepairOracleCases, SweepBatchMatchesStandalone) {
  PerturbedData dirty = CensusWorkload(7);
  exec::ThreadPool pool(4);
  SessionOptions opts;
  opts.weights = WeightModel::kCardinality;
  opts.pool = &pool;
  Result<Session> session = Session::Open(dirty.data, dirty.fds, opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<RepairRequest> reqs;
  for (double tau_r : kTauGrid) {
    RepairRequest req = RepairRequest::AtRelative(tau_r);
    req.seed = static_cast<uint64_t>(tau_r * 100) + 3;
    reqs.push_back(req);
  }
  std::vector<Result<RepairResponse>> outcomes = session->RepairMany(reqs);
  ASSERT_EQ(outcomes.size(), reqs.size());
  int repaired = 0;
  for (size_t j = 0; j < outcomes.size(); ++j) {
    if (!outcomes[j].ok()) continue;
    ++repaired;
    ExpectMatchesStandalone(session->context(), session->data(),
                            outcomes[j]->repair, reqs[j].seed,
                            "job " + std::to_string(j));
  }
  EXPECT_GT(repaired, 0);
}

// Session::Apply patches the context's index in place; the patched index
// must serve Algorithm 4 exactly as a fresh Σ' build over the mutated data.
TEST(ContextRepairOracleCases, PatchedContextAfterApplyMatchesStandalone) {
  PerturbedData dirty = CensusWorkload(3, 200);
  Result<Session> session = Session::Open(dirty.data, dirty.fds);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_GT(session->RootDeltaP(), 0);  // build the context before the delta
  DeltaBatch delta;
  delta.Insert(dirty.data.row(0)).Insert(dirty.data.row(9));
  delta.Update(4, 2, dirty.data.At(12, 2));
  delta.Update(20, 5, dirty.data.At(30, 5));
  delta.Delete(7);
  ASSERT_TRUE(session->Apply(delta).ok());
  EXPECT_GT(ExpectGridMatchesStandalone(session->context(), session->data(),
                                        "post-apply"),
            0);
}

// A snapshot restore adopts the saved index instead of rebuilding it.
TEST(ContextRepairOracleCases, RestoredContextMatchesStandalone) {
  PerturbedData dirty = CensusWorkload(5, 200);
  Result<Session> original = Session::Open(dirty.data, dirty.fds);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = testing::TempDir() + "/repair_data_test." +
                           info->test_suite_name() + "." + info->name() +
                           ".snap";
  std::remove(path.c_str());
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  Result<Session> restored = Session::OpenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(ExpectGridMatchesStandalone(restored->context(), restored->data(),
                                        "restored"),
            0);
}

// Σ with an empty-LHS FD: pairs disagreeing everywhere are conflict edges,
// carried by the index as the universe group. When the empty-LHS FD's RHS
// is a tuple's first attribute and the clean set forces another value, the
// first step fails and takes the forced value, on both paths alike.
TEST(ContextRepairOracleCases, EmptyLhsSigmaMatchesStandalone) {
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 0});
  sigma.Add(FD{AttrSet{0}, 1});
  CardinalityWeight weights;
  std::mt19937_64 gen(0x5eed);
  int universe_group_repairs = 0;
  for (int round = 0; round < 4; ++round) {
    // A is constant but for two tuples and B, C are scattered, so most
    // A-conflicts disagree everywhere: the universe group leads the order.
    Instance inst(Schema::FromNames({"A", "B", "C"}));
    std::uniform_int_distribution<int> value(0, 8 + round);
    for (int t = 0; t < 24; ++t) {
      inst.AddTuple({Value(t % 11 == 5 ? std::to_string(t) : "0"),
                     Value(std::to_string(value(gen))),
                     Value(std::to_string(value(gen)))});
    }
    EncodedInstance enc(inst);
    FdSearchContext ctx(sigma, enc, weights);
    for (double tau_r : kTauGrid) {
      const int64_t tau = TauFromRelative(tau_r, ctx.RootDeltaP());
      ModifyFdsResult search = ModifyFds(ctx, tau);
      if (!search.repair.has_value()) continue;
      // The empty LHS survives in Σ', so the universe group is in the cover.
      const bool universe = search.repair->state.ext[0].Empty();
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        const std::string label = "round " + std::to_string(round) +
                                  " tau_r=" + std::to_string(tau_r) +
                                  " seed=" + std::to_string(seed);
        RepairOptions opts;
        opts.seed = seed;
        RepairOutcome outcome = RunRepair(ctx, enc, tau, opts);
        ASSERT_TRUE(outcome.repair.has_value()) << label;
        ExpectMatchesStandalone(ctx, enc, *outcome.repair, seed, label);
        if (universe) ++universe_group_repairs;
      }
    }
  }
  EXPECT_GT(universe_group_repairs, 0);
}

}  // namespace
}  // namespace retrust
