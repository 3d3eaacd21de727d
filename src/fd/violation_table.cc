#include "src/fd/violation_table.h"

#include <stdexcept>

#include "src/exec/parallel_for.h"

namespace retrust {

namespace {

/// The state-independent incidence of one difference set with Σ:
/// bit i set iff A_i ∈ d ∧ X_i ∩ d = ∅.
uint64_t IncidenceMask(const FDSet& sigma, AttrSet diff) {
  uint64_t mask = 0;
  for (int i = 0; i < sigma.size(); ++i) {
    const FD& fd = sigma.fd(i);
    if (diff.Contains(fd.rhs) && !fd.lhs.Intersects(diff)) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

}  // namespace

ViolationTable::ViolationTable(const FDSet& sigma,
                               const DifferenceSetIndex& index,
                               exec::ThreadPool* pool)
    : num_fds_(sigma.size()), num_groups_(index.size()) {
  if (num_fds_ > 64) {
    throw std::invalid_argument("ViolationTable supports at most 64 FDs");
  }
  fd_mask_.assign(num_groups_, 0);
  diff_bits_.assign(num_groups_, 0);
  // Sharded per-group incidence: each group writes its own disjoint slot,
  // so the sharded build is trivially identical to the serial one.
  exec::ParallelFor(pool, num_groups_,
                    [&](int64_t begin, int64_t end, int /*chunk*/) {
                      for (int64_t g = begin; g < end; ++g) {
                        AttrSet diff = index.group(static_cast<int>(g)).diff;
                        diff_bits_[g] = diff.bits();
                        fd_mask_[g] = IncidenceMask(sigma, diff);
                      }
                    });
  RebuildCandidates();
}

ViolationTable::ViolationTable(const FDSet& sigma,
                               const DifferenceSetIndex& index,
                               std::vector<uint64_t> fd_mask_rows)
    : num_fds_(sigma.size()), num_groups_(index.size()) {
  if (num_fds_ > 64) {
    throw std::invalid_argument("ViolationTable supports at most 64 FDs");
  }
  if (fd_mask_rows.size() != static_cast<size_t>(num_groups_)) {
    throw std::invalid_argument(
        "restored incidence rows do not match the index's group count");
  }
  fd_mask_ = std::move(fd_mask_rows);
  diff_bits_.resize(num_groups_);
  for (int g = 0; g < num_groups_; ++g) {
    diff_bits_[g] = index.group(g).diff.bits();
  }
  RebuildCandidates();
}

int ViolationTable::ApplyPatch(const FDSet& sigma,
                               const DifferenceSetIndex& index,
                               const std::vector<int32_t>& old_to_new,
                               exec::ThreadPool* pool) {
  // Preserved groups carry their incidence row over (it depends only on
  // the difference set, which "preserved" implies is unchanged).
  std::vector<uint64_t> fd_mask(index.size(), 0);
  std::vector<uint64_t> diff_bits(index.size(), 0);
  std::vector<char> filled(index.size(), 0);
  for (size_t g = 0; g < old_to_new.size(); ++g) {
    int32_t ng = old_to_new[g];
    if (ng < 0) continue;
    fd_mask[ng] = fd_mask_[g];
    diff_bits[ng] = diff_bits_[g];
    filled[ng] = 1;
  }
  int recomputed = 0;
  for (char f : filled) recomputed += f == 0;
  // Changed/new groups recompute into disjoint slots (deterministic for
  // any thread count, like the constructor).
  exec::ParallelFor(pool, index.size(),
                    [&](int64_t begin, int64_t end, int /*chunk*/) {
                      for (int64_t g = begin; g < end; ++g) {
                        if (filled[g]) continue;
                        AttrSet diff = index.group(static_cast<int>(g)).diff;
                        diff_bits[g] = diff.bits();
                        fd_mask[g] = IncidenceMask(sigma, diff);
                      }
                    });
  num_groups_ = index.size();
  fd_mask_ = std::move(fd_mask);
  diff_bits_ = std::move(diff_bits);
  RebuildCandidates();
  return recomputed;
}

void ViolationTable::RebuildCandidates() {
  num_words_ = (num_groups_ + 63) / 64;
  uint64_t attrs = 0;
  for (uint64_t d : diff_bits_) attrs |= d;
  num_attrs_ = 64 - std::countl_zero(attrs);
  cand_mask_.assign(num_fds_, GroupBitset(num_groups_));
  attr_groups_.assign(static_cast<size_t>(num_attrs_) * num_words_, 0);
  for (int g = 0; g < num_groups_; ++g) {
    const uint64_t bit = uint64_t{1} << (g & 63);
    uint64_t mask = fd_mask_[g];
    while (mask != 0) {
      int i = std::countr_zero(mask);
      mask &= mask - 1;
      cand_mask_[i].Set(g);
    }
    uint64_t d = diff_bits_[g];
    while (d != 0) {
      int a = std::countr_zero(d);
      d &= d - 1;
      attr_groups_[static_cast<size_t>(a) * num_words_ + (g >> 6)] |= bit;
    }
  }
}

void ViolationTable::ViolatedGroups(const std::vector<AttrSet>& ext,
                                    GroupBitset* out) const {
  out->Reset(num_groups_);
  uint64_t* o = out->mutable_words();
  // Attributes outside every d_g have D_a = ∅.
  const uint64_t occurring =
      num_attrs_ >= 64 ? ~uint64_t{0} : (uint64_t{1} << num_attrs_) - 1;
  for (int i = 0; i < num_fds_; ++i) {
    const uint64_t* cand = cand_mask_[i].words().data();
    const uint64_t e = ext[i].bits() & occurring;
    for (int w = 0; w < num_words_; ++w) {
      uint64_t deactivated = 0;
      for (uint64_t rest = e; rest != 0; rest &= rest - 1) {
        const size_t a = static_cast<size_t>(std::countr_zero(rest));
        deactivated |= attr_groups_[a * num_words_ + w];
      }
      o[w] |= cand[w] & ~deactivated;
    }
  }
}

}  // namespace retrust
