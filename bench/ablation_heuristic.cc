// Ablation: how the gc heuristic's difference-set budget (|Ds|) and the
// strict-vs-lenient unresolved-group check affect A* effort. DESIGN.md
// calls these the two tuning decisions of Algorithm 3; the paper fixes
// them implicitly ("Ds is selected such that ... large numbers of edges
// are favored", strict '<' in line 8). Exits 1 unless every lenient row
// reports the same distc and no strict row reports a smaller one.

#include <cmath>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/util/timer.h"

using namespace retrust;

int main() {
  bench::Banner("Ablation", "gc heuristic: diff-set budget and leave-check");

  CensusConfig gen;
  gen.num_tuples = bench::ScaledN(2000);
  gen.num_attrs = 16;
  gen.planted_lhs_sizes = {6};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.02;
  perturb.seed = 7;

  std::printf("%12s %8s %14s %12s %12s %10s\n", "max_diffsets", "strict",
              "time(s)", "states", "gc-calls", "distc");
  // distc per row, -1 when the row found no repair.
  std::vector<double> lenient_distc, strict_distc;
  for (int budget : {1, 2, 4, 8}) {
    for (bool strict : {true, false}) {
      HeuristicOptions hopts;
      hopts.max_diffsets = budget;
      hopts.strict_leave_check = strict;
      ExperimentData data = PrepareExperiment(
          gen, perturb, WeightModel::kDistinctCount, hopts);
      int64_t tau = TauFromRelative(0.2, data.root_delta_p);
      Timer timer;
      ModifyFdsResult r = ModifyFds(data.context(), tau);
      const double distc = r.repair.has_value() ? r.repair->distc : -1.0;
      (strict ? strict_distc : lenient_distc).push_back(distc);
      std::printf("%12d %8s %14.3f %12lld %12lld %10.0f\n", budget,
                  strict ? "yes" : "no", timer.ElapsedSeconds(),
                  static_cast<long long>(r.stats.states_visited),
                  static_cast<long long>(r.stats.heuristic_calls), distc);
    }
  }
  std::printf("\nLarger budgets tighten gc (fewer states) at higher per-call "
              "cost. The lenient check keeps gc admissible, so every "
              "non-strict row must find the same optimal distc; the strict "
              "'<' may overestimate gc, so a strict row may cost more, "
              "never less.\n");

  // Self-check of that claim: exit 1 when a row breaks it.
  constexpr double kTol = 1e-6;
  const double optimum = lenient_distc.front();
  bool ok = optimum >= 0;
  for (double d : lenient_distc) ok = ok && std::abs(d - optimum) <= kTol;
  for (double d : strict_distc) ok = ok && (d < 0 || d >= optimum - kTol);
  if (!ok) {
    std::printf("FAIL: a non-strict row found no repair or a different "
                "distc, or a strict row beat the optimum %.0f\n", optimum);
    return 1;
  }
  std::printf("check: every non-strict row found distc %.0f, no strict row "
              "found less\n", optimum);
  return 0;
}
