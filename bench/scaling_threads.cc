// Thread-scaling of the two parallelized hot paths:
//   (a) violation detection — conflict graph + difference-set index over a
//       10k-tuple generated instance (sharded via src/exec/), and
//   (b) a τ-sweep — many ModifyFds searches over one shared context, as
//       one Session::SearchMany batch on a session whose pool has that
//       many threads.
// Reports wall-clock and speedup at 1/2/4/8 threads and cross-checks that
// every thread count produced the identical result (the exec/ determinism
// contract).
//
//   build/bench/bench_scaling_threads

#include <cinttypes>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/exec/parallel_for.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

// One pass of violation detection on `pool` (null = serial): the conflict
// graph and the all-pairs index build; returns a structural checksum.
uint64_t DetectViolations(const EncodedInstance& inst, const FDSet& fds,
                          exec::ThreadPool* pool, double* seconds) {
  Timer timer;
  ConflictGraph cg = BuildConflictGraph(inst, fds, pool);
  DifferenceSetIndex index =
      BuildDifferenceSetIndex(inst, fds, pool, DiffSetBuildMode::kNaive);
  *seconds = timer.ElapsedSeconds();
  uint64_t checksum = cg.num_edges();
  for (const auto& mask : cg.edge_fd_mask) checksum = checksum * 31 + mask;
  for (int g = 0; g < index.size(); ++g) {
    checksum = checksum * 31 + index.group(g).diff.bits();
    checksum = checksum * 31 +
               static_cast<uint64_t>(index.group(g).frequency());
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
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(t);
    double seconds = 0.0;
    uint64_t checksum =
        DetectViolations(data.encoded(), data.dirty.fds, pool.get(), &seconds);
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

  std::vector<RepairRequest> batch;
  for (double tau_r : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    batch.push_back(RepairRequest::AtRelative(tau_r));
  }
  std::printf("\n--- tau-sweep (%zu searches, shared context) ---\n",
              batch.size());
  std::printf("%8s %12s %10s\n", "threads", "time(s)", "speedup");
  double serial_sweep = 0.0;
  int64_t serial_visited = -1;
  for (int t : thread_counts) {
    std::unique_ptr<exec::ThreadPool> session_pool = exec::MakePool(t);
    SessionOptions opts;
    opts.pool = session_pool.get();
    Result<Session> session =
        Session::Open(data.dirty_instance(), data.dirty.fds, opts);
    if (!session.ok()) {
      std::printf("open failed: %s\n", session.status().ToString().c_str());
      return 1;
    }
    // Warm the context's memo caches (covers, weights) so the timed pass
    // measures scheduling, not first-run memoization. Probes are never
    // memoized, so the timed pass searches again.
    session->SearchMany(batch);
    Timer timer;
    std::vector<Result<SearchProbe>> results = session->SearchMany(batch);
    double seconds = timer.ElapsedSeconds();
    int64_t visited = 0;
    for (const Result<SearchProbe>& r : results) {
      if (!r.ok()) {
        std::printf("probe failed: %s\n", r.status().ToString().c_str());
        return 1;
      }
      visited += r->result.stats.states_visited;
    }
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
