#include "src/repair/repair_data.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/fd/difference_set.h"

namespace retrust {
namespace internal {

CleanIndex::CleanIndex(const EncodedInstance& inst, const FDSet& sigma_prime)
    : maps_(sigma_prime.size()) {
  lhs_cols_.reserve(sigma_prime.size());
  rhs_col_.reserve(sigma_prime.size());
  for (const FD& fd : sigma_prime.fds()) {
    lhs_cols_.push_back(fd.lhs.ToVector());
    rhs_col_.push_back(fd.rhs);
  }
  (void)inst;
}

void CleanIndex::Insert(const EncodedInstance& inst, TupleId t) {
  for (size_t i = 0; i < maps_.size(); ++i) {
    std::vector<int32_t> key =
        MakeKey(static_cast<int>(i), [&](AttrId a) { return inst.At(t, a); });
    int32_t rhs = inst.At(t, rhs_col_[i]);
    auto [it, inserted] = maps_[i].emplace(std::move(key), rhs);
    if (!inserted && it->second != rhs) {
      throw std::logic_error("clean set violates Σ' (index corruption)");
    }
  }
}

std::optional<int32_t> CleanIndex::ForcedRhs(
    int fd_index, const std::vector<int32_t>& lhs_key) const {
  const auto& map = maps_[fd_index];
  auto it = map.find(lhs_key);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

std::optional<std::vector<int32_t>> FindAssignment(
    EncodedInstance* inst, TupleId t, AttrSet fixed, const FDSet& sigma_prime,
    const CleanIndex& clean) {
  int m = inst->NumAttrs();
  // Line 1: tc equals t on fixed attributes, fresh variables elsewhere.
  std::vector<int32_t> tc(m);
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
      std::vector<int32_t> key =
          clean.MakeKey(i, [&](AttrId a) { return tc[a]; });
      std::optional<int32_t> forced = clean.ForcedRhs(i, key);
      if (!forced.has_value() || tc[fd.rhs] == *forced) continue;
      if (fixed.Contains(fd.rhs)) return std::nullopt;  // line 4
      tc[fd.rhs] = *forced;                             // line 6
      fixed.Add(fd.rhs);                                // line 7
      changed = true;
    }
  }
  return tc;
}

}  // namespace internal

namespace {

/// The routine both front doors share: greedy matching over `index`'s
/// `groups` (in the given order), then the Algorithm 4/5 chase of the
/// matched tuples.
DataRepairResult RepairOverGroups(const EncodedInstance& inst,
                                  const FDSet& sigma_prime,
                                  const DifferenceSetIndex& index,
                                  const std::vector<int>& groups, Rng* rng) {
  DataRepairResult result;
  // Greedy matching over the groups' edges in the given order — for both
  // front doors the ascending canonical order FdSearchContext::CoverSize
  // scans, so the number of cover tuples here equals the δP/α the search
  // certified against τ (Theorem 2 consistency).
  std::vector<int32_t> cover;
  {
    std::vector<char> covered(inst.NumTuples(), 0);
    for (int g : groups) {
      for (const Edge& e : index.group(g).edges) {
        if (!covered[e.u] && !covered[e.v]) {
          covered[e.u] = covered[e.v] = 1;
          cover.push_back(e.u);
          cover.push_back(e.v);
        }
      }
    }
    std::sort(cover.begin(), cover.end());
  }
  result.cover_size = static_cast<int64_t>(cover.size());
  int64_t per_tuple =
      std::min<int64_t>(inst.NumAttrs() - 1, sigma_prime.size());
  result.change_bound = result.cover_size * per_tuple;

  EncodedInstance repaired = inst;  // I' <- I
  std::vector<char> in_cover(inst.NumTuples(), 0);
  for (int32_t t : cover) in_cover[t] = 1;

  // Index the clean tuples (I' \ C2opt).
  internal::CleanIndex clean(repaired, sigma_prime);
  for (TupleId t = 0; t < repaired.NumTuples(); ++t) {
    if (!in_cover[t]) clean.Insert(repaired, t);
  }

  // Process cover tuples in random order (Algorithm 4 line 5).
  std::vector<int32_t> order = cover;
  rng->Shuffle(&order);
  int m = repaired.NumAttrs();
  std::vector<AttrId> attr_order(m);
  for (AttrId a = 0; a < m; ++a) attr_order[a] = a;

  for (int32_t t : order) {
    rng->Shuffle(&attr_order);  // random attribute order for this tuple
    AttrSet fixed;
    fixed.Add(attr_order[0]);  // line 6
    std::optional<std::vector<int32_t>> tc =
        internal::FindAssignment(&repaired, t, fixed, sigma_prime, clean);
    if (!tc.has_value()) {
      // Lemma 2 + Theorem 3: a valid assignment always exists with a single
      // fixed attribute.
      throw std::logic_error("Find_Assignment failed with one fixed attr");
    }
    for (int k = 1; k < m; ++k) {  // lines 8-15
      AttrId a = attr_order[k];
      fixed.Add(a);
      std::optional<std::vector<int32_t>> next =
          internal::FindAssignment(&repaired, t, fixed, sigma_prime, clean);
      if (!next.has_value()) {
        repaired.SetCode(t, a, (*tc)[a]);  // line 11
      } else {
        tc = std::move(next);  // line 13
      }
    }
    in_cover[t] = 0;
    clean.Insert(repaired, t);  // t joins I' \ C2opt for later tuples
  }

  result.changed_cells = inst.DiffCells(repaired);
  result.repaired = std::move(repaired);
  return result;
}

}  // namespace

DataRepairResult RepairData(const FdSearchContext& ctx,
                            const EncodedInstance& inst,
                            const SearchState& goal, Rng* rng) {
  std::vector<int> violated = ctx.evaluator().ViolatedGroupIds(goal);
  return RepairOverGroups(inst, goal.Apply(ctx.sigma()), ctx.index(), violated,
                          rng);
}

DataRepairResult RepairData(const EncodedInstance& inst,
                            const FDSet& sigma_prime, Rng* rng,
                            const exec::Options& eopts) {
  DifferenceSetIndex index = BuildDifferenceSetIndex(inst, sigma_prime, eopts);
  std::vector<int> all(index.size());
  std::iota(all.begin(), all.end(), 0);
  return RepairOverGroups(inst, sigma_prime, index, all, rng);
}

}  // namespace retrust
