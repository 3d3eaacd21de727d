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
      evaluator_(std::make_unique<DeltaPEvaluator>(sigma_, index_,
                                                   inst.NumTuples(), pool)),
      weights_(weights),
      heuristic_(sigma_, space_, weights_, index_, inst.NumTuples(), hopts,
                 evaluator_.get()) {}

FdSearchContext::FdSearchContext(const FDSet& sigma,
                                 const EncodedInstance& inst,
                                 const WeightFunction& weights,
                                 const HeuristicOptions& hopts,
                                 DifferenceSetIndex index,
                                 DeltaPEvaluator::WarmState warm)
    : sigma_(sigma),
      num_tuples_(inst.NumTuples()),
      space_(sigma, inst.schema()),
      index_(std::move(index)),
      evaluator_(std::make_unique<DeltaPEvaluator>(sigma_, index_,
                                                   inst.NumTuples(),
                                                   std::move(warm))),
      weights_(weights),
      heuristic_(sigma_, space_, weights_, index_, inst.NumTuples(), hopts,
                 evaluator_.get()) {}

FdSearchContext::DeltaReport FdSearchContext::ApplyDelta(
    const EncodedInstance& inst, const std::vector<TupleId>& dirty,
    const std::vector<TupleId>& remap, exec::ThreadPool* pool) {
  DeltaReport report;
  report.index = index_.ApplyDelta(inst, sigma_, dirty, remap, pool);
  report.covers_dropped =
      evaluator_->Rebuild(sigma_, index_, inst.NumTuples(), pool);
  num_tuples_ = inst.NumTuples();
  heuristic_.SetNumTuples(inst.NumTuples());
  return report;
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
