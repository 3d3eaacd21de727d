#include "src/exec/sweep.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/util/timer.h"

namespace retrust::exec {

Sweep::Sweep(const FdSearchContext& ctx, const EncodedInstance& inst,
             Options options, ThreadPool* shared_pool)
    : ctx_(ctx),
      inst_(inst),
      options_(options),
      pool_(shared_pool == nullptr ? MakePool(options) : nullptr),
      external_pool_(shared_pool),
      pinned_version_(ctx.version()) {}

void Sweep::CheckVersion(const char* when) const {
  const uint64_t now = ctx_.version();
  if (now != pinned_version_) {
    throw std::logic_error(
        "exec::Sweep " + std::string(when) + ": context version " +
        std::to_string(now) + " != pinned " +
        std::to_string(pinned_version_) +
        " — a delta was applied without Refresh(), or raced this sweep");
  }
}

namespace {

/// Greedy jobs of a mixed sweep run as a FIRST wave so their incumbents
/// can seed the expensive jobs' pruning. Monotonicity argument: a repair
/// feasible at τ_g is feasible at every τ ≥ τ_g (the data-side budget only
/// loosens), so the cheapest greedy distc over jobs with τ_g ≤ τ upper-
/// bounds the optimal distc at τ. The engine prunes only STRICTLY above
/// the cap (engine.cc), so the seeded job can still reach every repair
/// costing ≤ the seed — including the optimum — and exact jobs ignore
/// `initial_upper_bound` entirely, so their results cannot change.
bool IsGreedy(const ModifyFdsOptions& opts) {
  return opts.policy.policy == search::SearchPolicy::kGreedy;
}

/// Best (smallest) admissible seed for a job at `tau`: the min distc over
/// wave-one repairs found at τ_g ≤ tau. 0 = no seed.
double SeedFor(int64_t tau, const std::vector<std::pair<int64_t, double>>&
                                greedy_incumbents) {
  double seed = 0.0;
  for (const auto& [tau_g, distc] : greedy_incumbents) {
    if (tau_g > tau) continue;
    if (seed <= 0.0 || distc < seed) seed = distc;
  }
  return seed;
}

void ApplySeed(ModifyFdsOptions* opts, double seed) {
  if (seed <= 0.0) return;
  double& ub = opts->policy.initial_upper_bound;
  if (ub <= 0.0 || seed < ub) ub = seed;
}

}  // namespace

void Sweep::RunWaves(
    const std::vector<int64_t>& taus, const std::vector<bool>& greedy,
    const std::function<std::optional<double>(size_t, double)>& run) const {
  std::vector<size_t> greedy_idx, other_idx;
  for (size_t i = 0; i < taus.size(); ++i) {
    (greedy[i] ? greedy_idx : other_idx).push_back(i);
  }
  std::vector<double> seeds(taus.size(), 0.0);
  std::vector<std::optional<double>> found(taus.size());
  auto run_wave = [&](const std::vector<size_t>& wave) {
    TaskGroup group(pool());
    for (size_t i : wave) {
      group.Run([&run, &seeds, &found, i] { found[i] = run(i, seeds[i]); });
    }
    group.Wait();
  };

  if (greedy_idx.empty() || other_idx.empty()) {
    // Uniform-policy sweep: one wave, exactly the pre-seeding behavior.
    std::vector<size_t> all(taus.size());
    for (size_t i = 0; i < taus.size(); ++i) all[i] = i;
    run_wave(all);
    return;
  }
  run_wave(greedy_idx);
  std::vector<std::pair<int64_t, double>> incumbents;
  for (size_t i : greedy_idx) {
    if (found[i].has_value()) incumbents.emplace_back(taus[i], *found[i]);
  }
  for (size_t i : other_idx) seeds[i] = SeedFor(taus[i], incumbents);
  run_wave(other_idx);
}

std::vector<SweepOutcome> Sweep::RunRepairs(
    const std::vector<SweepJob>& jobs) const {
  CheckVersion("start");
  std::vector<SweepOutcome> outcomes(jobs.size());
  std::vector<int64_t> taus;
  std::vector<bool> greedy;
  for (const SweepJob& job : jobs) {
    taus.push_back(job.tau);
    greedy.push_back(IsGreedy(job.opts.search));
  }
  RunWaves(taus, greedy, [&](size_t i, double seed) -> std::optional<double> {
    const SweepJob& job = jobs[i];
    RepairOptions opts = job.opts;
    opts.search.exec = Options{};  // jobs are the unit of parallelism
    ApplySeed(&opts.search, seed);
    Timer timer;
    SweepOutcome& out = outcomes[i];
    out.tau = job.tau;
    RepairOutcome run = RunRepair(ctx_, inst_, job.tau, opts);
    out.repair = std::move(run.repair);
    out.stats = run.stats;
    out.termination = run.termination;
    out.seconds = timer.ElapsedSeconds();
    if (!out.repair.has_value()) return std::nullopt;
    return out.repair->distc;
  });
  CheckVersion("finish");
  return outcomes;
}

std::vector<ModifyFdsResult> Sweep::RunSearches(
    const std::vector<int64_t>& taus, const ModifyFdsOptions& opts) const {
  std::vector<SearchJob> jobs(taus.size());
  for (size_t i = 0; i < taus.size(); ++i) {
    jobs[i].tau = taus[i];
    jobs[i].opts = opts;
  }
  return RunSearches(jobs);
}

std::vector<ModifyFdsResult> Sweep::RunSearches(
    const std::vector<SearchJob>& jobs) const {
  CheckVersion("start");
  std::vector<ModifyFdsResult> results(jobs.size());
  std::vector<int64_t> taus;
  std::vector<bool> greedy;
  for (const SearchJob& job : jobs) {
    taus.push_back(job.tau);
    greedy.push_back(IsGreedy(job.opts));
  }
  RunWaves(taus, greedy, [&](size_t i, double seed) -> std::optional<double> {
    ModifyFdsOptions opts = jobs[i].opts;
    opts.exec = Options{};  // jobs are the unit of parallelism
    ApplySeed(&opts, seed);
    results[i] = ModifyFds(ctx_, jobs[i].tau, opts);
    if (!results[i].repair.has_value()) return std::nullopt;
    return results[i].repair->distc;
  });
  CheckVersion("finish");
  return results;
}

std::vector<int64_t> TauGridFromRelative(const std::vector<double>& taus_r,
                                         int64_t root_delta_p) {
  std::vector<int64_t> taus;
  taus.reserve(taus_r.size());
  for (double tr : taus_r) taus.push_back(TauFromRelative(tr, root_delta_p));
  return taus;
}

}  // namespace retrust::exec
