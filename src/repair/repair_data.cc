#include "src/repair/repair_data.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace retrust {
namespace internal {

FlatKeyMap::FlatKeyMap(int width, size_t min_slots)
    : width_(width),
      slots_(std::bit_ceil(std::max<size_t>(min_slots, 2)), 0) {}

size_t FlatKeyMap::Probe(const int32_t* key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = hash >> 32;
  for (size_t s = static_cast<size_t>(hash) & mask;; s = (s + 1) & mask) {
    const uint64_t slot = slots_[s];
    if (slot == 0) return s;
    if ((slot >> 32) != tag) continue;
    const size_t entry = static_cast<uint32_t>(slot) - 1;
    if (std::equal(key, key + width_, keys_.data() + entry * width_)) {
      return s;
    }
  }
}

const int32_t* FlatKeyMap::Find(const int32_t* key, uint64_t hash) const {
  const uint64_t slot = slots_[Probe(key, hash)];
  return slot == 0 ? nullptr : &values_[static_cast<uint32_t>(slot) - 1];
}

std::pair<int32_t, bool> FlatKeyMap::Insert(const int32_t* key, uint64_t hash,
                                            int32_t value) {
  size_t s = Probe(key, hash);
  if (slots_[s] != 0) {
    return {values_[static_cast<uint32_t>(slots_[s]) - 1], false};
  }
  if (2 * (values_.size() + 1) > slots_.size()) {
    Grow();
    s = Probe(key, hash);
  }
  slots_[s] = (hash >> 32) << 32 | (values_.size() + 1);
  keys_.insert(keys_.end(), key, key + width_);
  values_.push_back(value);
  return {value, true};
}

void FlatKeyMap::Grow() {
  std::vector<uint64_t> old(2 * slots_.size(), 0);
  slots_.swap(old);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    const size_t entry = static_cast<uint32_t>(slot) - 1;
    const uint64_t hash = Hash(keys_.data() + entry * width_, width_);
    size_t s = static_cast<size_t>(hash) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

size_t FlatKeyMap::Bytes() const {
  return slots_.capacity() * sizeof(uint64_t) +
         (keys_.capacity() + values_.capacity()) * sizeof(int32_t);
}

CleanIndex::CleanIndex(const FDSet& sigma_prime) {
  lhs_cols_.reserve(sigma_prime.size());
  rhs_col_.reserve(sigma_prime.size());
  maps_.reserve(sigma_prime.size());
  for (const FD& fd : sigma_prime.fds()) {
    lhs_cols_.push_back(fd.lhs.ToVector());
    rhs_col_.push_back(fd.rhs);
    maps_.emplace_back(fd.lhs.Count());
  }
}

CleanIndex CleanIndex::Overlay(const CleanIndex& base) {
  CleanIndex overlay;
  overlay.base_ = &base;
  overlay.maps_.reserve(base.maps_.size());
  for (const FlatKeyMap& map : base.maps_) {
    overlay.maps_.emplace_back(map.width());
  }
  return overlay;
}

void CleanIndex::Insert(const EncodedInstance& inst, TupleId t) {
  for (size_t i = 0; i < maps_.size(); ++i) {
    MakeKey(static_cast<int>(i), [&](AttrId a) { return inst.At(t, a); },
            &key_);
    const uint64_t hash = FlatKeyMap::Hash(key_.data(), maps_[i].width());
    const int32_t rhs = inst.At(t, shape().rhs_col_[i]);
    const int32_t* in_base =
        base_ != nullptr ? base_->maps_[i].Find(key_.data(), hash) : nullptr;
    const int32_t stored = in_base != nullptr
                               ? *in_base
                               : maps_[i].Insert(key_.data(), hash, rhs).first;
    if (stored != rhs) {
      throw std::logic_error("clean set violates Σ' (index corruption)");
    }
  }
}

std::optional<int32_t> CleanIndex::ForcedRhs(
    int fd_index, const std::vector<int32_t>& lhs_key) const {
  const FlatKeyMap& map = maps_[fd_index];
  const uint64_t hash = FlatKeyMap::Hash(lhs_key.data(), map.width());
  const int32_t* rhs =
      base_ != nullptr ? base_->maps_[fd_index].Find(lhs_key.data(), hash)
                       : nullptr;
  if (rhs == nullptr) rhs = map.Find(lhs_key.data(), hash);
  if (rhs == nullptr) return std::nullopt;
  return *rhs;
}

size_t CleanIndex::Bytes() const {
  size_t bytes = 0;
  for (const FlatKeyMap& map : maps_) bytes += map.Bytes();
  return bytes;
}

std::vector<int32_t> GreedyCover(const DifferenceSetIndex& index,
                                 const std::vector<int>& groups,
                                 int num_tuples) {
  std::vector<int32_t> cover;
  std::vector<char> covered(num_tuples, 0);
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
  return cover;
}

std::vector<CellRef> DiffTuples(const EncodedInstance& before,
                                const EncodedInstance& after,
                                const std::vector<int32_t>& tuples) {
  std::vector<CellRef> out;
  for (int32_t t : tuples) {
    for (AttrId a = 0; a < before.NumAttrs(); ++a) {
      if (after.At(t, a) != before.At(t, a)) out.push_back({t, a});
    }
  }
  return out;
}

bool FindAssignment(EncodedInstance* inst, TupleId t, AttrSet fixed,
                    const FDSet& sigma_prime, const CleanIndex& clean,
                    std::vector<int32_t>* tc_out, std::vector<int32_t>* key) {
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

}  // namespace internal

RepairBase::RepairBase(const EncodedInstance& inst, FDSet sigma,
                       std::vector<int32_t> cover_tuples)
    : sigma_prime(std::move(sigma)),
      cover(std::move(cover_tuples)),
      clean(sigma_prime) {
  // Index the clean tuples (I \ C2opt): walk the tuple ids, skipping the
  // sorted cover.
  auto next_cover = cover.begin();
  for (TupleId t = 0; t < inst.NumTuples(); ++t) {
    if (next_cover != cover.end() && *next_cover == t) {
      ++next_cover;
      continue;
    }
    clean.Insert(inst, t);
  }
}

size_t RepairBase::Bytes() const {
  return cover.capacity() * sizeof(int32_t) + clean.Bytes();
}

RepairBase BuildRepairBase(const FdSearchContext& ctx,
                           const EncodedInstance& inst,
                           const SearchState& goal) {
  // Greedy matching over the groups' edges in ascending canonical order —
  // the order FdSearchContext::CoverSize scans, so the number of cover
  // tuples here equals the δP/α the search certified against τ.
  std::vector<int> violated = ctx.evaluator().ViolatedGroupIds(goal);
  return RepairBase(
      inst, goal.Apply(ctx.sigma()),
      internal::GreedyCover(ctx.index(), violated, inst.NumTuples()));
}

RepairBase BuildRepairBase(const EncodedInstance& inst,
                           const FDSet& sigma_prime,
                           exec::ThreadPool* pool) {
  DifferenceSetIndex index = BuildDifferenceSetIndex(inst, sigma_prime, pool);
  std::vector<int> all(index.size());
  std::iota(all.begin(), all.end(), 0);
  return RepairBase(inst, sigma_prime,
                    internal::GreedyCover(index, all, inst.NumTuples()));
}

DataRepairResult RepairFromBase(const RepairBase& base,
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
    if (!internal::FindAssignment(&repaired, t, fixed, sigma_prime, clean,
                                  &tc, &key)) {
      // Lemma 2 + Theorem 3: a valid assignment always exists with a single
      // fixed attribute.
      throw std::logic_error("Find_Assignment failed with one fixed attr");
    }
    for (int k = 1; k < m; ++k) {  // lines 8-15
      AttrId a = attr_order[k];
      fixed.Add(a);
      if (!internal::FindAssignment(&repaired, t, fixed, sigma_prime, clean,
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

DataRepairResult RepairData(const FdSearchContext& ctx,
                            const EncodedInstance& inst,
                            const SearchState& goal, Rng* rng) {
  return RepairFromBase(BuildRepairBase(ctx, inst, goal), inst, rng);
}

DataRepairResult RepairData(const EncodedInstance& inst,
                            const FDSet& sigma_prime, Rng* rng,
                            exec::ThreadPool* pool) {
  return RepairFromBase(BuildRepairBase(inst, sigma_prime, pool), inst, rng);
}

}  // namespace retrust
