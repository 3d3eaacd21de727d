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
    : table_(sigma, index, std::move(warm.table_rows)),
      memo_(GroupEdgeLists(index), num_tuples) {
  memo_.Preload(std::move(warm.covers));
}

DeltaPEvaluator::WarmState DeltaPEvaluator::ExportWarmState() const {
  WarmState warm;
  warm.table_rows = table_.fd_masks();
  warm.covers = memo_.ExportEntries();
  return warm;
}

DeltaPEvaluator::PatchStats DeltaPEvaluator::ApplyDelta(
    const FDSet& sigma, const DifferenceSetIndex& index, int num_tuples,
    const std::vector<int32_t>& old_to_new, exec::ThreadPool* pool) {
  PatchStats stats;
  stats.table_groups_recomputed =
      table_.ApplyPatch(sigma, index, old_to_new, pool);
  stats.memo = memo_.Rebind(GroupEdgeLists(index), num_tuples, old_to_new);
  return stats;
}

std::vector<int> DeltaPEvaluator::ViolatedGroupIds(
    const SearchState& s) const {
  std::unique_ptr<KeyScratch> key = AcquireKey();
  table_.ViolatedGroups(s.ext, &key->set_key);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(key->set_key.Count()));
  key->set_key.ForEachSet([&](int g) { out.push_back(g); });
  ReleaseKey(std::move(key));
  return out;
}

int32_t DeltaPEvaluator::CoverSize(const SearchState& s,
                                   SearchStats* stats) const {
  std::unique_ptr<KeyScratch> key = AcquireKey();
  table_.ViolatedGroups(s.ext, &key->set_key);
  bool hit = false;
  int32_t size = memo_.CoverSize(key->set_key, &hit);
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
  std::unique_ptr<KeyScratch> key = AcquireKey();
  key->seq_key.assign(groups.begin(), groups.end());
  bool hit = false;
  int32_t size = memo_.CoverSizeOrdered(key->seq_key, &hit);
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

std::unique_ptr<DeltaPEvaluator::KeyScratch> DeltaPEvaluator::AcquireKey()
    const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!key_pool_.empty()) {
      std::unique_ptr<KeyScratch> key = std::move(key_pool_.back());
      key_pool_.pop_back();
      return key;
    }
  }
  return std::make_unique<KeyScratch>();
}

void DeltaPEvaluator::ReleaseKey(std::unique_ptr<KeyScratch> key) const {
  std::lock_guard<std::mutex> lock(mu_);
  key_pool_.push_back(std::move(key));
}

}  // namespace retrust
