// Thread-scaling of the two parallelized hot paths:
//   (a) violation detection — conflict graph + difference-set index over a
//       10k-tuple generated instance (sharded via src/exec/), and
//   (b) a τ-sweep — many ModifyFds searches over one shared context
//       (exec::Sweep).
// Reports wall-clock and speedup at 1/2/4/8 threads and cross-checks that
// every thread count produced the identical result (the exec/ determinism
// contract).
//
//   build/bench/bench_scaling_threads

#include <cinttypes>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/exec/parallel_for.h"
#include "src/exec/sweep.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

// One pass of violation detection at `threads` threads (`pool` runs the
// conflict graph; the all-pairs index build sizes its own pool); returns a
// structural checksum.
uint64_t DetectViolations(const EncodedInstance& inst, const FDSet& fds,
                          exec::ThreadPool* pool, int threads,
                          double* seconds) {
  Timer timer;
  ConflictGraph cg = BuildConflictGraph(inst, fds, pool);
  DifferenceSetIndex index = BuildDifferenceSetIndex(
      inst, fds, {threads}, DiffSetBuildMode::kNaive);
  *seconds = timer.ElapsedSeconds();
  uint64_t checksum = cg.num_edges();
  for (const auto& mask : cg.edge_fd_mask) checksum = checksum * 31 + mask;
  for (const DiffSetGroup& g : index.groups()) {
    checksum = checksum * 31 + g.diff.bits();
    checksum = checksum * 31 + static_cast<uint64_t>(g.edges.size());
  }
  return checksum;
}

}  // namespace

int main() {
  bench::Banner("Thread scaling",
                "violation detection and tau-sweep at 1/2/4/8 threads");

  CensusConfig gen;
  gen.num_tuples = bench::ScaledN(10000);
  gen.num_attrs = 14;
  gen.planted_lhs_sizes = {5};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.4;
  perturb.data_error_rate = 0.02;
  perturb.seed = 7;
  ExperimentData data = PrepareExperiment(gen, perturb);

  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("--- violation detection (%d tuples, %zu conflict edges) ---\n",
              data.encoded().NumTuples(),
              BuildConflictGraph(data.encoded(), data.dirty.fds).num_edges());
  std::printf("%8s %12s %10s\n", "threads", "time(s)", "speedup");
  double serial_seconds = 0.0;
  uint64_t serial_checksum = 0;
  for (int t : thread_counts) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool({t});
    double seconds = 0.0;
    uint64_t checksum =
        DetectViolations(data.encoded(), data.dirty.fds, pool.get(), t,
                         &seconds);
    if (t == 1) {
      serial_seconds = seconds;
      serial_checksum = checksum;
    } else if (checksum != serial_checksum) {
      std::printf("DETERMINISM VIOLATION at %d threads "
                  "(checksum %" PRIu64 " vs %" PRIu64 ")\n",
                  t, checksum, serial_checksum);
      return 1;
    }
    std::printf("%8d %12.3f %9.2fx\n", t, seconds,
                seconds > 0 ? serial_seconds / seconds : 0.0);
  }

  std::vector<int64_t> taus = exec::TauGridFromRelative(
      {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
      data.root_delta_p);
  // Warm the context's shared memo caches (weight function) so the timed
  // thread-count comparison measures scheduling, not first-run memoization.
  exec::Sweep(data.context(), data.encoded(), {1}).RunSearches(taus);
  std::printf("\n--- tau-sweep (%zu searches, shared context) ---\n",
              taus.size());
  std::printf("%8s %12s %10s\n", "threads", "time(s)", "speedup");
  double serial_sweep = 0.0;
  int64_t serial_visited = -1;
  for (int t : thread_counts) {
    exec::Sweep sweep(data.context(), data.encoded(), {t});
    Timer timer;
    std::vector<ModifyFdsResult> results = sweep.RunSearches(taus);
    double seconds = timer.ElapsedSeconds();
    int64_t visited = 0;
    for (const ModifyFdsResult& r : results) visited += r.stats.states_visited;
    if (t == 1) {
      serial_sweep = seconds;
      serial_visited = visited;
    } else if (visited != serial_visited) {
      std::printf("DETERMINISM VIOLATION at %d threads "
                  "(%lld visited vs %lld)\n",
                  t, static_cast<long long>(visited),
                  static_cast<long long>(serial_visited));
      return 1;
    }
    std::printf("%8d %12.3f %9.2fx\n", t, seconds,
                seconds > 0 ? serial_sweep / seconds : 0.0);
  }

  std::printf("\nExpected shape: near-linear violation-detection speedup up "
              "to the physical core count (>= 2x at 4 threads on a 4-core "
              "machine); sweep speedup bounded by its longest single "
              "search.\n");
  return 0;
}
