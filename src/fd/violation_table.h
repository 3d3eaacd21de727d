// The group×FD violation incidence table (the δP evaluation pipeline's
// first stage; see DESIGN.md).
//
// Whether difference-set group g violates FD i of a relaxation Σ' factors
// into a state-independent part and a state-dependent part:
//
//   violates(g, i, S)  ⟺  A_i ∈ d_g ∧ X_i ∩ d_g = ∅      (precomputed here)
//                        ∧ Y_i ∩ d_g = ∅                  (two word ops)
//
// where d_g is the group's difference set and Y_i = S.ext[i]. The table
// stores, per group, the mask of FDs whose precomputed part holds plus the
// "deactivating" attribute mask d_g — so "is group g violated under S"
// becomes a handful of bitset tests instead of an FD-set scan.
//
// For the full violated-group set of a state (the cover memo's cache key)
// the table transposes both parts into word-packed group bitsets: cand_i =
// {g : i ∈ fd_mask_g} per FD and D_a = {g : a ∈ d_g} per attribute. Then
//
//   V(S) = ⋁_i (cand_i ∧ ¬⋁_{a∈Y_i} D_a)
//
// is ⌈G/64⌉ word operations per (FD, extension attribute), with no
// per-group loop.
//
// The table is a pure function of (Σ, {d_g}) and is never patched: after a
// delta or a snapshot restore its owner builds a new one over the index.
//
// Layering: the table takes raw extension vectors (std::vector<AttrSet>),
// not SearchState — fd/ sits below repair/; the repair-side DeltaPEvaluator
// adapts.

#ifndef RETRUST_FD_VIOLATION_TABLE_H_
#define RETRUST_FD_VIOLATION_TABLE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/fd/difference_set.h"
#include "src/graph/group_bitset.h"

namespace retrust {

/// Precomputed incidence between difference-set groups and the FDs of one
/// Σ (at most 64 FDs, matching the conflict graph's edge-mask cap). Every
/// const method is thread-safe (the table is immutable after build).
class ViolationTable {
 public:
  ViolationTable() = default;

  /// Builds the incidence table over `index`'s groups. A fresh context, a
  /// delta-patched index and a snapshot restore all build their table
  /// here, at G·|Σ| word operations. `pool` shards the per-group incidence
  /// computation (nullable = serial); the table is BIT-IDENTICAL for any
  /// thread count — per-group slots are disjoint and the per-FD candidate
  /// assembly runs serially in canonical group order.
  ViolationTable(const FDSet& sigma, const DifferenceSetIndex& index,
                 exec::ThreadPool* pool = nullptr);

  int num_fds() const { return num_fds_; }
  int num_groups() const { return num_groups_; }

  /// True iff group g is violated under extensions `ext` (`ext.size()`
  /// must equal num_fds()). Identical to the legacy FD-set scan
  ///   ∃i: A_i ∈ d_g ∧ (X_i ∪ Y_i) ∩ d_g = ∅.
  bool GroupViolated(int g, const std::vector<AttrSet>& ext) const {
    uint64_t fds = fd_mask_[g];
    const uint64_t d = diff_bits_[g];
    while (fds != 0) {
      int i = std::countr_zero(fds);
      fds &= fds - 1;
      if ((ext[i].bits() & d) == 0) return true;
    }
    return false;
  }

  /// Fills `out` with the violated-group set under `ext` (resized to
  /// num_groups()): per word, out |= cand_i ∧ ¬⋁_{a∈Y_i} D_a for every FD
  /// i. Extension attributes that occur in no difference set deactivate
  /// nothing and are skipped.
  void ViolatedGroups(const std::vector<AttrSet>& ext,
                      GroupBitset* out) const;

  /// Groups that can violate FD i regardless of extensions (Y_i = ∅).
  const GroupBitset& candidates(int i) const { return cand_mask_[i]; }

  /// Per-group precomputed FD masks in canonical group order.
  const std::vector<uint64_t>& fd_masks() const { return fd_mask_; }

 private:
  int num_fds_ = 0;
  int num_groups_ = 0;
  int num_words_ = 0;  // ⌈num_groups_/64⌉
  int num_attrs_ = 0;  // 1 + the largest attribute in any d_g; 0 if none
  std::vector<uint64_t> fd_mask_;    // per group: FDs it can violate
  std::vector<uint64_t> diff_bits_;  // per group: d_g's attribute mask
  std::vector<GroupBitset> cand_mask_;  // per FD: {g : i ∈ fd_mask_[g]}
  // D_a = {g : a ∈ d_g} for a < num_attrs_, attribute-major: words
  // [a·num_words_, (a+1)·num_words_).
  std::vector<uint64_t> attr_groups_;
};

}  // namespace retrust

#endif  // RETRUST_FD_VIOLATION_TABLE_H_
