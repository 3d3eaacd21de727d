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
  index.VisitGroups([&](auto edges_of) {
    for (int g : groups) {
      for (const auto& e : edges_of(g)) {
        if (!covered[e.u] && !covered[e.v]) {
          covered[e.u] = covered[e.v] = 1;
          cover.push_back(e.u);
          cover.push_back(e.v);
        }
      }
    }
  });
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

TupleChase::TupleChase(const FDSet& sigma_prime, const CleanIndex& clean,
                       int num_attrs)
    : clean_(clean), by_attr_(num_attrs), tc_(num_attrs) {
  queue_.reserve(num_attrs);
  for (int i = 0; i < sigma_prime.size(); ++i) {
    const FD& fd = sigma_prime.fd(i);
    lhs_.push_back(fd.lhs);
    rhs_.push_back(fd.rhs);
    if (fd.IsTrivial()) continue;
    if (fd.lhs.Empty()) empty_lhs_.push_back(i);
    for (AttrId a : fd.lhs) by_attr_[a].push_back(i);
  }
}

bool TupleChase::Fire(int i) {
  clean_.MakeKey(i, [&](AttrId a) { return tc_[a]; }, &key_);
  const std::optional<int32_t> forced = clean_.ForcedRhs(i, key_);
  if (!forced.has_value()) return true;
  const AttrId rhs = rhs_[i];
  if (determined_.Contains(rhs)) return tc_[rhs] == *forced;  // line 4
  tc_[rhs] = *forced;                                         // line 6
  determined_.Add(rhs);                                       // line 7
  queue_.push_back(rhs);
  return true;
}

bool TupleChase::Settle() {
  // An FD fires when its last LHS attribute settles, so once per closure.
  for (size_t head = 0; head < queue_.size(); ++head) {
    const AttrId a = queue_[head];
    settled_.Add(a);
    for (int i : by_attr_[a]) {
      if (lhs_[i].SubsetOf(settled_) && !lhs_[i].Intersects(fresh_) &&
          !Fire(i)) {
        return false;
      }
    }
  }
  return true;
}

void TupleChase::Start(const int32_t* var_base) {
  var_base_ = var_base;
  last_success_ = 0;
  determined_ = settled_ = fresh_ = AttrSet();
  queue_.clear();
  // Every forced value of the closure of no pins is shared by all clean
  // tuples, so it cannot conflict while the clean set satisfies Σ'.
  for (int i : empty_lhs_) {
    if (!Fire(i)) throw std::logic_error("clean set violates Σ'");
  }
  if (!Settle()) throw std::logic_error("clean set violates Σ'");
}

bool TupleChase::Pin(AttrId a, int32_t code, int step) {
  if (determined_.Contains(a)) {
    if (tc_[a] != code) return false;
    last_success_ = step;
    return true;
  }
  const AttrSet determined = determined_;
  const AttrSet settled = settled_;
  tc_[a] = code;
  determined_.Add(a);
  queue_.assign(1, a);
  if (Settle()) {
    last_success_ = step;
    return true;
  }
  // Back to the last consistent closure, where `a` holds that step's
  // fresh variable.
  determined_ = determined;
  settled_ = settled;
  tc_[a] = VariableCode(var_base_[a] + last_success_);
  determined_.Add(a);
  settled_.Add(a);
  fresh_.Add(a);
  return false;
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

  internal::TupleChase chase(sigma_prime, clean, m);
  std::vector<int32_t> steps(m), var_base;
  for (int32_t t : order) {
    rng->Shuffle(&attr_order);  // random attribute order for this tuple
    // Find_Assignment at step k gives every attribute not yet pinned a
    // fresh variable, so the attribute pinned at step p owns the p indices
    // from its counter on; reserve them all before the chase reads any.
    for (int k = 0; k < m; ++k) steps[attr_order[k]] = k;
    var_base = repaired.next_var_counters();
    repaired.TakeFreshVariableRounds(steps);
    chase.Start(var_base.data());
    for (int k = 0; k < m; ++k) {  // lines 6-15
      const AttrId a = attr_order[k];
      if (!chase.Pin(a, repaired.At(t, a), k)) {
        repaired.SetCode(t, a, chase.Value(a));  // line 11
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
