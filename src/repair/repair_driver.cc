#include "src/repair/repair_driver.h"

#include <cmath>
#include <stdexcept>

#include "src/fd/violation.h"

namespace retrust {

namespace {

#ifndef NDEBUG
// Debug-build post-conditions of Algorithm 1's materialization step: the
// cover is the one the search certified (cover·α == δP), I' |= Σ', and the
// change count respects the paper's bound.
void CheckMaterialized(const FdSearchContext& ctx, const FdRepair& fd_repair,
                       const DataRepairResult& data) {
  if (data.cover_size * ctx.alpha() != fd_repair.delta_p) {
    throw std::logic_error("materialized cover disagrees with certified δP");
  }
  if (!Satisfies(data.repaired, fd_repair.sigma_prime)) {
    throw std::logic_error("repaired instance violates Σ'");
  }
  if (static_cast<int64_t>(data.changed_cells.size()) > data.change_bound) {
    throw std::logic_error("repair changed more cells than its bound");
  }
}
#endif

}  // namespace

RepairOutcome RunRepair(const FdSearchContext& ctx,
                        const EncodedInstance& inst, int64_t tau,
                        const RepairOptions& opts) {
  return MaterializeRepair(ctx, inst, ModifyFds(ctx, tau, opts.search),
                           opts.seed);
}

RepairOutcome MaterializeRepair(const FdSearchContext& ctx,
                                const EncodedInstance& inst,
                                ModifyFdsResult search, uint64_t seed,
                                const RepairBase* base) {
  RepairOutcome outcome;
  outcome.stats = search.stats;
  outcome.termination = search.termination;
  if (!search.repair.has_value()) return outcome;  // line 5: (φ, φ)

  const FdRepair& fd_repair = *search.repair;
  Rng rng(seed);
  // Algorithm 4 reads its cover from the context the search just used: no
  // Σ' index is built per request.
  DataRepairResult data =
      base != nullptr ? RepairFromBase(*base, inst, &rng)
                      : RepairData(ctx, inst, fd_repair.state, &rng);
#ifndef NDEBUG
  CheckMaterialized(ctx, fd_repair, data);
#endif

  Repair out;
  out.sigma_prime = fd_repair.sigma_prime;
  out.extensions = fd_repair.state.ext;
  out.distc = fd_repair.distc;
  out.data = std::move(data.repaired);
  out.changed_cells = std::move(data.changed_cells);
  out.delta_p = fd_repair.delta_p;
  out.stats = search.stats;
  out.incumbents = std::move(search.incumbents);
  outcome.repair = std::move(out);
  return outcome;
}

void CheckSearchAnswer(const FdSearchContext& ctx, int64_t tau,
                       ModifyFdsOptions opts, const ModifyFdsResult& stored) {
#ifndef NDEBUG
  opts.cancel = nullptr;
  opts.phase_trace = nullptr;
  const ModifyFdsResult fresh = ModifyFds(ctx, tau, opts);
  const bool same =
      fresh.termination == stored.termination &&
      fresh.repair.has_value() == stored.repair.has_value() &&
      (!fresh.repair.has_value() ||
       (fresh.repair->state == stored.repair->state &&
        fresh.repair->distc == stored.repair->distc &&
        fresh.repair->delta_p == stored.repair->delta_p));
  if (!same) {
    throw std::logic_error("memoized search answer disagrees with a fresh "
                           "search");
  }
#else
  (void)ctx, (void)tau, (void)opts, (void)stored;
#endif
}

void CheckRepairBase(const FdSearchContext& ctx, const EncodedInstance& inst,
                     const SearchState& goal, const RepairBase& stored) {
#ifndef NDEBUG
  if (!(BuildRepairBase(ctx, inst, goal) == stored)) {
    throw std::logic_error("memoized repair base disagrees with a fresh "
                           "build");
  }
#else
  (void)ctx, (void)inst, (void)goal, (void)stored;
#endif
}

int64_t TauFromRelative(double tau_r, int64_t root_delta_p) {
  // !(tau_r > 0) also catches NaN, which would sail through ordered
  // comparisons and llround to an arbitrary τ.
  if (!(tau_r > 0)) tau_r = 0;
  if (tau_r > 1) tau_r = 1;
  if (root_delta_p < 0) root_delta_p = 0;
  return static_cast<int64_t>(
      std::llround(tau_r * static_cast<double>(root_delta_p)));
}

}  // namespace retrust
