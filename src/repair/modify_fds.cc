#include "src/repair/modify_fds.h"

#include "src/fd/conflict_graph.h"
#include "src/search/engine.h"

namespace retrust {

FdSearchContext::FdSearchContext(const FDSet& sigma,
                                 const EncodedInstance& inst,
                                 const WeightFunction& weights,
                                 const HeuristicOptions& hopts,
                                 exec::ThreadPool* pool,
                                 DiffSetBuildMode mode)
    : sigma_(sigma),
      num_tuples_(inst.NumTuples()),
      space_(sigma, inst.schema()),
      index_(BuildDifferenceSetIndex(inst, sigma, pool, mode,
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

ModifyFdsResult ModifyFds(const FdSearchContext& ctx, int64_t tau,
                          const ModifyFdsOptions& opts) {
  // The open-list loop lives in the search engine (src/search/engine.cc)
  // since the policy split; the default exact policy is bit-identical to
  // the loop that used to live here.
  return search::RunSearch(ctx, tau, opts);
}

ModifyFdsResult ModifyFds(const FDSet& sigma, const EncodedInstance& inst,
                          int64_t tau, const WeightFunction& weights,
                          const ModifyFdsOptions& opts) {
  FdSearchContext ctx(sigma, inst, weights, opts.heuristic);
  return ModifyFds(ctx, tau, opts);
}

}  // namespace retrust
