#include "src/repair/weights.h"

#include <bit>
#include <cmath>
#include <unordered_map>

#include "src/util/hash.h"

namespace retrust {
namespace {

constexpr uint64_t kEmptySlot = ~uint64_t{0};  // a NaN no weight produces

}  // namespace

double WeightFunction::Cost(const std::vector<AttrSet>& extensions) const {
  double total = 0.0;
  for (AttrSet y : extensions) total += Weight(y);
  return total;
}

MemoizedWeight::MemoizedWeight(const EncodedInstance& inst) : inst_(inst) {
  if (inst.NumAttrs() <= kMaxFlatAttrs) {
    flat_size_ = size_t{1} << inst.NumAttrs();
    flat_ = std::make_unique<std::atomic<uint64_t>[]>(flat_size_);
    for (size_t k = 0; k < flat_size_; ++k) {
      flat_[k].store(kEmptySlot, std::memory_order_relaxed);
    }
  }
}

double MemoizedWeight::Weight(AttrSet y) const {
  if (y.Empty()) return 0.0;
  const uint64_t key = y.bits();
  if (key < flat_size_) {
    const uint64_t cached = flat_[key].load(std::memory_order_relaxed);
    if (cached != kEmptySlot) return std::bit_cast<double>(cached);
    const double w = Compute(y);
    flat_[key].store(std::bit_cast<uint64_t>(w), std::memory_order_relaxed);
    return w;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(y);
    if (it != map_.end()) return it->second;
  }
  // Compute outside the lock; a concurrent duplicate computation is benign
  // (both threads insert the same value).
  const double w = Compute(y);
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(y, w);
  return w;
}

double DistinctCountWeight::Compute(AttrSet y) const {
  return static_cast<double>(inst_.CountDistinctProjection(y));
}

double EntropyWeight::Compute(AttrSet y) const {
  // Empirical joint entropy of the Y-projection.
  std::vector<AttrId> cols = y.ToVector();
  std::unordered_map<std::vector<int32_t>, int64_t, CodeVectorHash> counts;
  std::vector<int32_t> key(cols.size());
  int n = inst_.NumTuples();
  for (TupleId t = 0; t < n; ++t) {
    for (size_t i = 0; i < cols.size(); ++i) key[i] = inst_.At(t, cols[i]);
    ++counts[key];
  }
  double h = 0.0;
  for (const auto& [k, c] : counts) {
    double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace retrust
