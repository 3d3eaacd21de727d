// Figure 8 (table): the maximum quality achievable by relative-trust-aware
// repairing vs the unified-cost baseline [5], at four error mixes.
//
// For our algorithm the best combined F-score over a τr grid is reported
// (the paper likewise picks the best parameter setting per algorithm); the
// unified-cost baseline has no τ — its trade-off is fixed by its cost model.

#include "bench/bench_common.h"
#include "src/eval/experiment.h"

using namespace retrust;

namespace {

void PrintRow(const char* algo, double fd_err, double data_err,
              const ExperimentRun& run) {
  std::printf("%-24s %5.0f%% %6.0f%%   %9.2f %8.2f %10.2f %9.2f %10.3f\n",
              algo, fd_err * 100, data_err * 100, run.quality.fd.precision,
              run.quality.fd.recall, run.quality.data.precision,
              run.quality.data.recall, run.quality.CombinedF());
}

}  // namespace

int main() {
  bench::Banner("Figure 8",
                "best achievable quality: Uniform-Cost [5] vs Relative-Trust");

  struct Mix {
    double fd_err;
    double data_err;
  };
  const Mix mixes[] = {{0.8, 0.0}, {0.5, 0.05}, {0.3, 0.05}, {0.0, 0.05}};

  std::printf("%-24s %6s %7s   %9s %8s %10s %9s %10s\n", "algorithm",
              "FDerr", "dataerr", "FDprec", "FDrec", "dataprec", "datarec",
              "combinedF");

  std::string json_mixes;
  for (const Mix& mix : mixes) {
    CensusConfig gen;
    gen.num_tuples = bench::ScaledN(1500);
    gen.num_attrs = 16;
    gen.planted_lhs_sizes = {6};
    gen.seed = 42;
    PerturbOptions perturb;
    perturb.fd_error_rate = mix.fd_err;
    perturb.data_error_rate = mix.data_err;
    perturb.seed = 7;
    ExperimentData data = PrepareExperiment(gen, perturb);

    ExperimentRun uniform = RunUnifiedCost(data);
    PrintRow("Uniform-Cost [5]", mix.fd_err, mix.data_err, uniform);

    ExperimentRun best;
    double best_f = -1;
    for (double t : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
      ExperimentRun run = RunRepairAt(data, t);
      if (run.repaired && run.quality.CombinedF() > best_f) {
        best_f = run.quality.CombinedF();
        best = std::move(run);
      }
    }
    PrintRow("Relative-Trust (best)", mix.fd_err, mix.data_err, best);
    std::printf("\n");
    if (!json_mixes.empty()) json_mixes += ",\n";
    json_mixes += "    {\"fd_err\": " + bench::JsonNumber(mix.fd_err) +
                  ", \"data_err\": " + bench::JsonNumber(mix.data_err) +
                  ", \"uniform_cost_f\": " +
                  bench::JsonNumber(uniform.quality.CombinedF()) +
                  ", \"relative_trust_f\": " +
                  bench::JsonNumber(best.quality.CombinedF()) + "}";
  }
  std::printf("Expected shape: the unified model's trade-off is fixed a "
              "priori, so it cannot adapt to the actual error mix; "
              "Relative-Trust (choosing the right tau per mix) dominates "
              "its combined F-score on every mix, most dramatically when "
              "FD errors dominate (paper Figure 8).\n");

  if (FILE* json = bench::OpenBenchJson("fig8", stderr)) {
    std::fprintf(json, "{\n  \"mixes\": [\n%s\n  ]\n}\n",
                 json_mixes.c_str());
    std::fclose(json);
  }
  return 0;
}
