// Ablation: how the gc heuristic's difference-set budget (|Ds|) and the
// strict-vs-lenient unresolved-group check affect A* effort. DESIGN.md
// calls these the two tuning decisions of Algorithm 3; the paper fixes
// them implicitly ("Ds is selected such that ... large numbers of edges
// are favored", strict '<' in line 8).

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
  for (int budget : {1, 2, 4, 8}) {
    for (bool strict : {true, false}) {
      HeuristicOptions hopts;
      hopts.max_diffsets = budget;
      hopts.strict_leave_check = strict;
      ExperimentData data = PrepareExperiment(
          gen, perturb, WeightModel::kDistinctCount, hopts);
      int64_t tau = TauFromRelative(0.2, data.root_delta_p);
      ModifyFdsOptions opts;
      opts.heuristic = hopts;
      Timer timer;
      ModifyFdsResult r = ModifyFds(data.context(), tau, opts);
      std::printf("%12d %8s %14.3f %12lld %12lld %10.0f\n", budget,
                  strict ? "yes" : "no", timer.ElapsedSeconds(),
                  static_cast<long long>(r.stats.states_visited),
                  static_cast<long long>(r.stats.heuristic_calls),
                  r.repair.has_value() ? r.repair->distc : -1.0);
    }
  }
  std::printf("\nLarger budgets tighten gc (fewer states) at higher per-call "
              "cost; all settings must agree on distc (optimality is "
              "budget-independent).\n");
  return 0;
}
