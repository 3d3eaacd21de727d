// Weighting functions w(Y) for the FD-distance distc(Σ, Σ') =
// Σ_i w(Y_i), where Y_i is the attribute set appended to the i-th FD's LHS
// (paper §3.1).
//
// Requirements from the paper: w is non-negative and monotone
// (X ⊆ Y ⇒ w(X) ≤ w(Y)), and w(∅) = 0. The paper's experiments use the
// number of distinct values of the appended attribute set in the *initial*
// instance (more informative attributes are more expensive to append);
// weights are frozen against the initial I (§3.1 simplifying assumption),
// which the memoizing implementations here rely on. Under the incremental
// update engine "initial" means "as of the last delta": Session::Apply
// makes a new weight function over the mutated instance, so memoized
// projections never outlive the data they were computed from.

#ifndef RETRUST_REPAIR_WEIGHTS_H_
#define RETRUST_REPAIR_WEIGHTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/relational/dictionary.h"

namespace retrust {

/// Interface for monotone extension weights.
class WeightFunction {
 public:
  virtual ~WeightFunction() = default;

  /// w(Y). Must be non-negative, monotone, and 0 for the empty set.
  virtual double Weight(AttrSet y) const = 0;

  /// distc contribution of a whole extension vector: Σ_i w(Y_i).
  double Cost(const std::vector<AttrSet>& extensions) const;
};

/// w(Y) = |Y| — the simple cardinality weight.
class CardinalityWeight final : public WeightFunction {
 public:
  double Weight(AttrSet y) const override { return y.Count(); }
};

/// A weight computed from an instance and memoized per attribute set, so
/// one weight object may serve concurrent searches (Session batches,
/// service workers). Subclasses supply Compute().
///
/// Up to kMaxFlatAttrs attributes the memo is a flat array of 2^m slots
/// indexed by Y's mask, each a relaxed atomic holding the double's bit
/// pattern (all-ones = empty): lookups take no lock. A racing duplicate
/// fill is benign — Compute is deterministic, so both threads store the
/// same bits. Wider schemas keep a mutex-guarded hash map.
class MemoizedWeight : public WeightFunction {
 public:
  static constexpr int kMaxFlatAttrs = 16;

  double Weight(AttrSet y) const final;

 protected:
  /// Keeps a reference to `inst`; the instance must outlive the weight.
  explicit MemoizedWeight(const EncodedInstance& inst);

  /// The unmemoized w(Y) for a non-empty Y.
  virtual double Compute(AttrSet y) const = 0;

  const EncodedInstance& inst_;

 private:
  size_t flat_size_ = 0;  // 2^m when m <= kMaxFlatAttrs, else 0
  std::unique_ptr<std::atomic<uint64_t>[]> flat_;
  mutable std::mutex mu_;
  mutable std::unordered_map<AttrSet, double, AttrSetHash> map_;
};

/// w(Y) = |π_Y(I)| (number of distinct Y-projections in the initial
/// instance), w(∅) = 0 — the paper's experimental choice.
class DistinctCountWeight final : public MemoizedWeight {
 public:
  explicit DistinctCountWeight(const EncodedInstance& inst)
      : MemoizedWeight(inst) {}

 private:
  double Compute(AttrSet y) const override;
};

/// w(Y) = H(Y), the empirical joint entropy (bits) of the Y-projection in
/// the initial instance; w(∅) = 0. Monotone since H(Y ∪ B) >= H(Y).
class EntropyWeight final : public MemoizedWeight {
 public:
  explicit EntropyWeight(const EncodedInstance& inst) : MemoizedWeight(inst) {}

 private:
  double Compute(AttrSet y) const override;
};

}  // namespace retrust

#endif  // RETRUST_REPAIR_WEIGHTS_H_
