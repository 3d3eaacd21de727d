// Figure 13: generating multiple repairs for a τr range — Range-Repair
// (Algorithm 6, one search reused across the range) vs Sampling-Repair
// (independent Algorithm-2 runs at sampled τr values, step 1.7% as in the
// paper). Expected shape: Range-Repair wins, increasingly so for wide
// ranges (~3.8x at [0, 30%] in the paper).
//
// Both methods share the context's weight and cover memos, so whichever
// runs first on a cold context pays for warming them. One untimed pass of
// both over [0, 30%] warms the context first; each row is then timed in
// both orders (Range first, then Sampling first) and both are printed. A
// warm call takes only tens of milliseconds, so each timing is the fastest
// of kRepeats calls.
//
// Writes BENCH_fig13.json: per row, max_tau_r, the faster of the two
// timings of each method (range_s, sample_s) and speedup_x =
// sample_s / range_s. CI's paper-shape step asserts on it.

#include <algorithm>
#include <string>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/repair/multi_repair.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

constexpr int kRepeats = 5;

struct Timed {
  double seconds = 0.0;  ///< fastest of the timed calls
  size_t repairs = 0;
};

/// Runs `run` (which returns a MultiRepairResult) `repeats` times and
/// keeps the fastest time.
template <typename Run>
Timed TimeFastest(int repeats, Run run) {
  Timed out;
  for (int i = 0; i < repeats; ++i) {
    Timer timer;
    MultiRepairResult r = run();
    const double seconds = timer.ElapsedSeconds();
    if (i == 0 || seconds < out.seconds) out.seconds = seconds;
    out.repairs = r.repairs.size();
  }
  return out;
}

Timed TimeRange(const FdSearchContext& ctx, int64_t tau_hi,
                int repeats = kRepeats) {
  return TimeFastest(repeats, [&] { return FindRepairsFds(ctx, 0, tau_hi); });
}

Timed TimeSampling(const FdSearchContext& ctx, int64_t tau_hi, int64_t step,
                   int repeats = kRepeats) {
  return TimeFastest(
      repeats, [&] { return SamplingRepairs(ctx, 0, tau_hi, step); });
}

}  // namespace

int main() {
  bench::Banner("Figure 13",
                "multi-repair: Range-Repair (Alg 6) vs Sampling-Repair");

  CensusConfig gen;
  gen.num_tuples = bench::ScaledN(1500);
  gen.num_attrs = 16;
  gen.planted_lhs_sizes = {6};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.02;
  perturb.seed = 7;
  ExperimentData data = PrepareExperiment(gen, perturb);
  const FdSearchContext& ctx = data.context();

  const int64_t step = std::max<int64_t>(
      1, TauFromRelative(0.017, data.root_delta_p));  // paper's 1.7%
  const double kRows[] = {0.10, 0.17, 0.23, 0.30};

  // Untimed warm-up over the widest range.
  const int64_t warm_tau = TauFromRelative(kRows[3], data.root_delta_p);
  const Timed warm_range = TimeRange(ctx, warm_tau, 1);
  const Timed warm_sample = TimeSampling(ctx, warm_tau, step, 1);

  std::printf("root deltaP = %lld\n",
              static_cast<long long>(data.root_delta_p));
  std::printf("warm-up over [0, %.0f%%] (not in the rows): Range %.3f s, "
              "Sampling %.3f s; rows: fastest of %d calls\n\n",
              kRows[3] * 100, warm_range.seconds, warm_sample.seconds,
              kRepeats);
  std::printf("%10s %13s %16s %16s %10s %12s %12s\n", "max tau_r", "order",
              "Range-time(s)", "Sample-time(s)", "speedup", "Range-reps",
              "Sample-reps");
  std::string json_rows;
  for (double max_tr : kRows) {
    const int64_t tau_hi = TauFromRelative(max_tr, data.root_delta_p);

    const Timed range_1 = TimeRange(ctx, tau_hi);
    const Timed sample_1 = TimeSampling(ctx, tau_hi, step);
    const Timed sample_2 = TimeSampling(ctx, tau_hi, step);
    const Timed range_2 = TimeRange(ctx, tau_hi);

    auto row = [&](const char* order, const Timed& range,
                   const Timed& sample) {
      std::printf("%9.0f%% %13s %16.3f %16.3f %9.2fx %12zu %12zu\n",
                  max_tr * 100, order, range.seconds, sample.seconds,
                  range.seconds > 0 ? sample.seconds / range.seconds : 0.0,
                  range.repairs, sample.repairs);
    };
    row("range-first", range_1, sample_1);
    row("sample-first", range_2, sample_2);

    const double range_s = std::min(range_1.seconds, range_2.seconds);
    const double sample_s = std::min(sample_1.seconds, sample_2.seconds);
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += "    {\"max_tau_r\": " + bench::JsonNumber(max_tr) +
                 ", \"range_s\": " + bench::JsonNumber(range_s) +
                 ", \"sample_s\": " + bench::JsonNumber(sample_s) +
                 ", \"speedup_x\": " +
                 bench::JsonNumber(range_s > 0 ? sample_s / range_s : 0.0) +
                 "}";
  }

  if (FILE* json = bench::OpenBenchJson("fig13", stderr)) {
    std::fprintf(json, "{\n  \"rows\": [\n%s\n  ]\n}\n", json_rows.c_str());
    std::fclose(json);
  }
  return 0;
}
