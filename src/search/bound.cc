#include "src/search/bound.h"

#include <bit>

namespace retrust::search {

CoverLowerBound::CoverLowerBound(const FdSearchContext& ctx) : ctx_(ctx) {
  const int num_fds = ctx.space().num_fds();
  allowed_bits_.reserve(num_fds);
  for (int i = 0; i < num_fds; ++i) {
    allowed_bits_.push_back(ctx.space().allowed(i).bits());
  }
  dead_.Reset(ctx.evaluator().table().num_groups());
}

int64_t CoverLowerBound::DeltaPFloor(const SearchState& s,
                                     SearchStats* stats) {
  const ViolationTable& table = ctx_.evaluator().table();
  const std::vector<AttrSet>& diffs = ctx_.index().diffs();
  const std::vector<uint64_t>& fd_masks = table.fd_masks();

  // Attributes a descendant may still append: everything at or above the
  // largest attribute already used (the a == maxattr positional rule of
  // Children() is relaxed to "any position" — a superset of what is
  // reachable, which only weakens the bound, never its admissibility).
  const uint64_t used = s.UnionExt().bits();
  const uint64_t reachable =
      used == 0 ? ~uint64_t{0} : ~uint64_t{0} << (std::bit_width(used) - 1);

  dead_.Reset(table.num_groups());
  int dead_count = 0;
  for (int g = 0; g < table.num_groups(); ++g) {
    const uint64_t d = diffs[g].bits();
    uint64_t fds = fd_masks[g];
    while (fds != 0) {
      const int i = std::countr_zero(fds);
      fds &= fds - 1;
      if ((s.ext[i].bits() & d) != 0) continue;       // FD i already leaves g
      if ((allowed_bits_[i] & d & reachable) != 0) continue;  // still fixable
      // FD i violates g under s and no descendant can change that.
      dead_.Set(g);
      ++dead_count;
      break;
    }
  }
  last_dead_groups_ = dead_count;
  if (dead_count == 0) return 0;

  bool hit = false;
  const int32_t cover = ctx_.evaluator().memo().CoverSize(dead_, &hit);
  if (stats != nullptr) {
    if (hit) {
      ++stats->vc_memo_hits;
    } else {
      ++stats->vc_computations;
    }
  }
  // cover = 2·|greedy maximal matching| <= 2·ν(E_dead), and every
  // descendant's C2opt is at least ν(E_dead) — see bound.h.
  return ctx_.alpha() * (cover / 2);
}

}  // namespace retrust::search
