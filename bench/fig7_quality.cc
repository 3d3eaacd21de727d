// Figure 7: repair quality (combined F-score) vs relative trust τr, at four
// FD-error / data-error mixes. The paper's shape: with FD errors only the
// peak sits at τr = 0; as data errors take over the peak moves right,
// reaching τr = 100% for data errors only.
//
// Writes BENCH_fig7.json: per mix, the F-score at every τr (null where no
// repair fits) and the τr of the first maximum. CI's paper-shape step
// asserts on it.

#include "bench/bench_common.h"
#include "src/eval/experiment.h"

using namespace retrust;

int main() {
  bench::Banner("Figure 7", "combined F-score vs tau_r at four error mixes");

  struct Mix {
    double fd_err;
    double data_err;
  };
  const Mix mixes[] = {{0.8, 0.0}, {0.5, 0.05}, {0.3, 0.05}, {0.0, 0.05}};
  const double taus[] = {0.0, 0.125, 0.25, 0.375, 0.5,
                         0.625, 0.75, 0.875, 1.0};

  std::printf("%-22s", "mix (FD%%, data%%)");
  for (double t : taus) std::printf(" tau=%3.0f%%", t * 100);
  std::printf("\n");

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

    std::printf("%3.0f%% FD, %3.0f%% data    ", mix.fd_err * 100,
                mix.data_err * 100);
    std::string f_list;
    double best_f = -1.0;
    double best_tau = -1.0;
    for (double t : taus) {
      ExperimentRun run = RunRepairAt(data, t);
      if (!f_list.empty()) f_list += ", ";
      if (run.repaired) {
        const double f = run.quality.CombinedF();
        std::printf("    %.3f", f);
        f_list += bench::JsonNumber(f);
        if (f > best_f) {
          best_f = f;
          best_tau = t;
        }
      } else {
        std::printf("        -");  // no repair within this tau (cf. §8.3.4)
        f_list += "null";
      }
    }
    std::printf("\n");
    if (!json_mixes.empty()) json_mixes += ",\n";
    json_mixes += "    {\"fd_err\": " + bench::JsonNumber(mix.fd_err) +
                  ", \"data_err\": " + bench::JsonNumber(mix.data_err) +
                  ", \"f\": [" + f_list + "], \"argmax_tau_r\": " +
                  bench::JsonNumber(best_tau) + "}";
  }
  std::printf("\nExpected shape: peak at tau=0 for the FD-only mix, moving "
              "right as data errors dominate, peak at tau=100%% for the "
              "data-only mix.\n");

  if (FILE* json = bench::OpenBenchJson("fig7", stderr)) {
    std::string tau_list;
    for (double t : taus) {
      if (!tau_list.empty()) tau_list += ", ";
      tau_list += bench::JsonNumber(t);
    }
    std::fprintf(json, "{\n  \"tau_r\": [%s],\n  \"mixes\": [\n%s\n  ]\n}\n",
                 tau_list.c_str(), json_mixes.c_str());
    std::fclose(json);
  }
  return 0;
}
