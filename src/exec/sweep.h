// The τ-sweep scheduler: run many (τ, options) repair jobs concurrently
// over ONE shared FdSearchContext.
//
// The paper's experiments (Figs. 9-12) sweep the trust threshold τ and
// re-run Algorithm 1/2 at every grid point; the context (conflict graph,
// difference-set index, violation table, cover memo, heuristic) is
// τ-independent and therefore shared — in particular all jobs of a sweep
// evaluate through ONE ViolationTable and ONE memoized cover layer, so a
// state visited by several τ jobs pays for its cover once (DESIGN.md,
// "The δP evaluation pipeline"). Each job runs the SERIAL search engine on
// a pool worker (job-level parallelism composes better than nested
// state-level parallelism and keeps every job's result trivially
// deterministic); outcomes are returned in job order regardless of
// completion order.
//
// This header is the top of the exec/ subsystem and depends on src/repair/;
// the primitives it schedules on (thread_pool.h, parallel_for.h) depend on
// nothing and are used as far down as src/fd/. See DESIGN.md.

#ifndef RETRUST_EXEC_SWEEP_H_
#define RETRUST_EXEC_SWEEP_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/exec/options.h"
#include "src/exec/thread_pool.h"
#include "src/repair/repair_driver.h"

namespace retrust::exec {

/// One job of a sweep: an end-to-end repair at trust level τ. The job's
/// `opts.search.exec` is overridden to serial — the sweep parallelizes
/// ACROSS jobs, never inside them. Every other search knob rides along
/// per job, including `opts.search.policy`: a sweep can mix exact and
/// anytime/greedy jobs freely (each job runs its own engine loop with its
/// own incumbents/bounds; the shared context and cover memo stay policy-
/// agnostic).
///
/// Mixed-policy sweeps are scheduled POLICY-AWARE: all kGreedy jobs run as
/// a first wave, and each remaining job's `initial_upper_bound` is seeded
/// with the cheapest greedy incumbent found at a τ_g ≤ its own τ (repairs
/// feasible at a tighter τ stay feasible, so the bound is admissible and
/// tightens only the cap, never below the optimum). Exact jobs ignore the
/// seed by engine construction, so their results are bit-identical with
/// and without it; anytime jobs just prune dominated states earlier.
struct SweepJob {
  int64_t tau = 0;
  RepairOptions opts;
};

/// Outcome of one job, in job order. `stats` and `termination` are filled
/// even when no repair exists (budget, deadline, cancellation, or a proven
/// no-goal) — the api/ facade's Status mapping depends on that.
struct SweepOutcome {
  int64_t tau = 0;
  std::optional<Repair> repair;
  SearchStats stats;
  SearchTermination termination = SearchTermination::kCompleted;
  double seconds = 0.0;  ///< wall-clock of this job alone
};

/// One search-only job (Algorithm 2, no data materialization).
struct SearchJob {
  int64_t tau = 0;
  ModifyFdsOptions opts;
};

/// Scheduler over one shared (Σ, I) search context. The context and the
/// instance must outlive the sweep; both are only read (the context's
/// const interface is thread-safe by design). The worker pool is spawned
/// once at construction and reused across Run* calls, so repeated sweeps
/// (grid refinements, benchmark loops) pay no per-call thread churn.
///
/// Snapshot discipline: the sweep pins the context's data version
/// (FdSearchContext::version()) at construction. Every Run* verifies the
/// pin before scheduling AND after draining — so a sweep never starts
/// against a context that was delta-patched since the pin (call Refresh()
/// after an intentional FdSearchContext::ApplyDelta), and a delta that
/// races a running sweep is detected instead of silently mixing pre- and
/// post-delta answers (both cases throw std::logic_error).
class Sweep {
 public:
  /// `shared_pool` (nullable, NOT owned) lets many sweeps — e.g. the one
  /// of each per-tenant Session of a multi-tenant server — schedule on a
  /// single process-wide pool instead of each spawning its own workers.
  /// When null, the sweep owns a pool per `options` exactly as before. A
  /// shared pool must outlive every sweep using it.
  Sweep(const FdSearchContext& ctx, const EncodedInstance& inst,
        Options options = {}, ThreadPool* shared_pool = nullptr);

  /// Re-pins the context version after an intentional ApplyDelta.
  /// Requires external exclusion against concurrent Run* calls (the
  /// session's apply lock provides it).
  void Refresh() { pinned_version_ = ctx_.version(); }

  /// The version Run* will insist on.
  uint64_t pinned_version() const { return pinned_version_; }

  /// Runs Algorithm 1 (RepairDataAndFds) for every job concurrently.
  std::vector<SweepOutcome> RunRepairs(const std::vector<SweepJob>& jobs) const;

  /// Runs Algorithm 2 (ModifyFds) at every τ concurrently with shared
  /// search options.
  std::vector<ModifyFdsResult> RunSearches(
      const std::vector<int64_t>& taus,
      const ModifyFdsOptions& opts = {}) const;

  /// Same with per-job options (mode, budgets, cancellation).
  std::vector<ModifyFdsResult> RunSearches(
      const std::vector<SearchJob>& jobs) const;

  const FdSearchContext& context() const { return ctx_; }
  const Options& options() const { return options_; }

 private:
  /// Throws std::logic_error unless the context still carries the pinned
  /// version (`when` names the offending phase in the message).
  void CheckVersion(const char* when) const;

  /// The one wave scheduler behind RunRepairs and RunSearches. Job i runs
  /// at τ `taus[i]` and is greedy iff `greedy[i]`. A uniform sweep runs as
  /// one wave; a mixed one runs its greedy jobs first and seeds each other
  /// job from their incumbents (sweep.cc, SeedFor). `run(i, seed)` runs
  /// job i with `seed` (0 = none) and returns its repair's distc, if any.
  void RunWaves(
      const std::vector<int64_t>& taus, const std::vector<bool>& greedy,
      const std::function<std::optional<double>(size_t, double)>& run) const;

  /// The pool Run* schedules on: the shared one when provided, else the
  /// owned one (null = serial inline execution).
  ThreadPool* pool() const {
    return external_pool_ != nullptr ? external_pool_ : pool_.get();
  }

  const FdSearchContext& ctx_;
  const EncodedInstance& inst_;
  Options options_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when options are serial
  ThreadPool* external_pool_ = nullptr;  ///< not owned; wins over pool_
  uint64_t pinned_version_ = 0;
};

/// Absolute τ grid from relative trust levels τr ∈ [0, 1] against a root
/// bound (convenience for the Figure 9-12 style sweeps).
std::vector<int64_t> TauGridFromRelative(const std::vector<double>& taus_r,
                                         int64_t root_delta_p);

}  // namespace retrust::exec

#endif  // RETRUST_EXEC_SWEEP_H_
