#include "src/repair/evaluation.h"

namespace retrust {

DeltaPEvaluator::DeltaPEvaluator(const FDSet& sigma,
                                 const DifferenceSetIndex& index,
                                 int num_tuples, WarmState warm,
                                 exec::ThreadPool* pool)
    : table_(sigma, index, pool), memo_(index, num_tuples) {
  memo_.Preload(std::move(warm.covers));
}

DeltaPEvaluator::WarmState DeltaPEvaluator::ExportWarmState() const {
  return WarmState{memo_.ExportEntries()};
}

std::vector<int> DeltaPEvaluator::ViolatedGroupIds(
    const SearchState& s) const {
  std::unique_ptr<GroupBitset> key = AcquireKey();
  table_.ViolatedGroups(s.ext, key.get());
  std::vector<int> out;
  out.reserve(static_cast<size_t>(key->Count()));
  key->ForEachSet([&](int g) { out.push_back(g); });
  ReleaseKey(std::move(key));
  return out;
}

namespace {

/// Counts one cover lookup in `stats` (nullable): a memo answer or a
/// recomputation.
void CountLookup(bool hit, SearchStats* stats) {
  if (stats == nullptr) return;
  ++(hit ? stats->vc_memo_hits : stats->vc_computations);
}

}  // namespace

int32_t DeltaPEvaluator::CoverSize(const SearchState& s,
                                   SearchStats* stats) const {
  std::unique_ptr<GroupBitset> key = AcquireKey();
  table_.ViolatedGroups(s.ext, key.get());
  bool hit = false;
  int32_t size = memo_.CoverSize(*key, &hit);
  ReleaseKey(std::move(key));
  CountLookup(hit, stats);
  return size;
}

int32_t DeltaPEvaluator::CoverOfGroups(const std::vector<int>& groups,
                                       SearchStats* stats) const {
  bool hit = false;
  int32_t size = memo_.CoverSizeOrdered(groups, &hit);
  CountLookup(hit, stats);
  return size;
}

std::unique_ptr<GroupBitset> DeltaPEvaluator::AcquireKey() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!key_pool_.empty()) {
      std::unique_ptr<GroupBitset> key = std::move(key_pool_.back());
      key_pool_.pop_back();
      return key;
    }
  }
  return std::make_unique<GroupBitset>();
}

void DeltaPEvaluator::ReleaseKey(std::unique_ptr<GroupBitset> key) const {
  std::lock_guard<std::mutex> lock(mu_);
  key_pool_.push_back(std::move(key));
}

}  // namespace retrust
