#include "src/repair/evaluation.h"

#include "src/exec/thread_pool.h"

namespace retrust {

namespace {

std::vector<const std::vector<Edge>*> GroupEdgeLists(
    const DifferenceSetIndex& index) {
  std::vector<const std::vector<Edge>*> out;
  out.reserve(index.size());
  for (const DiffSetGroup& g : index.groups()) {
    out.push_back(&g.edges);
  }
  return out;
}

}  // namespace

DeltaPEvaluator::DeltaPEvaluator(const FDSet& sigma,
                                 const DifferenceSetIndex& index,
                                 int num_tuples, const exec::Options& eopts)
    : memo_(GroupEdgeLists(index), num_tuples) {
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(eopts);
  table_ = ViolationTable(sigma, index, pool.get());
}

DeltaPEvaluator::DeltaPEvaluator(const FDSet& sigma,
                                 const DifferenceSetIndex& index,
                                 int num_tuples, WarmState warm)
    : DeltaPEvaluator(sigma, index, num_tuples) {
  memo_.Preload(std::move(warm.covers));
}

DeltaPEvaluator::WarmState DeltaPEvaluator::ExportWarmState() const {
  return WarmState{memo_.ExportEntries()};
}

size_t DeltaPEvaluator::Rebuild(const FDSet& sigma,
                                const DifferenceSetIndex& index,
                                int num_tuples, exec::ThreadPool* pool) {
  table_ = ViolationTable(sigma, index, pool);
  return memo_.Reset(GroupEdgeLists(index), num_tuples);
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

int32_t DeltaPEvaluator::CoverSize(const SearchState& s,
                                   SearchStats* stats) const {
  std::unique_ptr<GroupBitset> key = AcquireKey();
  table_.ViolatedGroups(s.ext, key.get());
  bool hit = false;
  int32_t size = memo_.CoverSize(*key, &hit);
  ReleaseKey(std::move(key));
  if (stats != nullptr) {
    if (hit) {
      ++stats->vc_memo_hits;
    } else {
      ++stats->vc_computations;
    }
  }
  return size;
}

int32_t DeltaPEvaluator::CoverOfGroups(const std::vector<int>& groups,
                                       SearchStats* stats) const {
  bool hit = false;
  int32_t size = memo_.CoverSizeOrdered(groups, &hit);
  if (stats != nullptr) {
    if (hit) {
      ++stats->vc_memo_hits;
    } else {
      ++stats->vc_computations;
    }
  }
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
