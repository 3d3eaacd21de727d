#include "src/repair/modify_fds.h"

namespace retrust {

FdSearchContext::FdSearchContext(const FDSet& sigma,
                                 const EncodedInstance& inst,
                                 const WeightFunction& weights,
                                 const HeuristicOptions& hopts,
                                 exec::ThreadPool* pool)
    : sigma_(sigma),
      num_tuples_(inst.NumTuples()),
      space_(sigma, inst.schema()),
      index_(BuildDifferenceSetIndex(inst, sigma, pool,
                                     DiffSetBuildMode::kBlocked,
                                     &build_stats_)),
      evaluator_(std::make_unique<DeltaPEvaluator>(
          sigma_, index_, inst.NumTuples(), DeltaPEvaluator::WarmState{},
          pool)),
      weights_(weights),
      heuristic_(sigma_, space_, weights_, index_, inst.NumTuples(), hopts,
                 evaluator_.get()) {}

FdSearchContext::FdSearchContext(const FDSet& sigma,
                                 const EncodedInstance& inst,
                                 const WeightFunction& weights,
                                 const HeuristicOptions& hopts,
                                 DifferenceSetIndex index,
                                 DeltaPEvaluator::WarmState warm,
                                 exec::ThreadPool* pool)
    : sigma_(sigma),
      num_tuples_(inst.NumTuples()),
      space_(sigma, inst.schema()),
      index_(std::move(index)),
      evaluator_(std::make_unique<DeltaPEvaluator>(
          sigma_, index_, inst.NumTuples(), std::move(warm), pool)),
      weights_(weights),
      heuristic_(sigma_, space_, weights_, index_, inst.NumTuples(), hopts,
                 evaluator_.get()) {}

std::unique_ptr<FdSearchContext> FdSearchContext::AfterDelta(
    std::unique_ptr<FdSearchContext> old, const EncodedInstance& inst,
    const WeightFunction& weights, const std::vector<TupleId>& dirty,
    const std::vector<TupleId>& remap, exec::ThreadPool* pool,
    IndexPatch* patch) {
  const FDSet sigma = std::move(old->sigma_);
  const HeuristicOptions hopts = old->heuristic_.options();
  DifferenceSetIndex index = std::move(old->index_);
  // The old table and memo go before the new ones are built, so a delta
  // never holds two evaluators at once.
  old.reset();
  IndexPatch applied = index.ApplyDelta(inst, sigma, dirty, remap, pool);
  if (patch != nullptr) *patch = applied;
  return std::make_unique<FdSearchContext>(sigma, inst, weights, hopts,
                                           std::move(index),
                                           DeltaPEvaluator::WarmState{}, pool);
}

int64_t FdSearchContext::CoverSize(const SearchState& s,
                                   SearchStats* stats) const {
  // δP pipeline (DESIGN.md): the violation table materializes the groups
  // still violated under s as a group bitset, and the memoized cover layer
  // matches their edges in the canonical group order — bit-identical to
  // the legacy per-group FD-set scan it replaced.
  return evaluator_->CoverSize(s, stats);
}

int64_t FdSearchContext::DeltaP(const SearchState& s,
                                SearchStats* stats) const {
  return alpha() * CoverSize(s, stats);
}

int64_t FdSearchContext::RootDeltaP() const {
  return DeltaP(SearchState::Root(sigma_.size()), nullptr);
}

}  // namespace retrust
