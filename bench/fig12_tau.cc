// Figure 12: effect of the relative trust threshold τr on (a) running time
// and (b) visited states, for A* vs best-first. One FD with a wide LHS,
// heavily perturbed, as in the paper (appended attributes range from many
// at small τr down to one near τr = 100%; below some τr no repair exists).
//
// Runs entirely through the public facade: per-mode grid points are
// Session::Search probes, the concurrent grid is one Session::SearchMany
// batch on the session's pool.

#include <thread>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/util/timer.h"

using namespace retrust;

int main() {
  bench::Banner("Figure 12", "time and visited states vs tau_r, 1 FD");

  CensusConfig gen;
  gen.num_tuples = bench::ScaledN(1500);
  gen.num_attrs = 16;
  gen.planted_lhs_sizes = {6};
  gen.seed = 42;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.02;
  perturb.seed = 7;
  // The batched grid fans out on RETRUST_THREADS (0, unset or unparsable
  // = hardware).
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* env = std::getenv("RETRUST_THREADS")) {
    if (const int n = std::atoi(env); n != 0) threads = n;
  }
  Timer prepare_timer;
  ExperimentData data = PrepareExperiment(gen, perturb,
                                          WeightModel::kDistinctCount,
                                          HeuristicOptions{}, threads);
  Session& session = *data.session;
  const int sweep_threads = data.pool != nullptr ? data.pool->num_threads() : 1;
  double prepare_seconds = prepare_timer.ElapsedSeconds();
  const int64_t kBestFirstCap = 60000;
  const std::vector<double> kTauGrid = {0.05, 0.10, 0.17, 0.25,
                                        0.40, 0.55, 0.75, 0.99};

  struct GridRow {
    double tau_r = 0.0;
    int64_t tau = 0;
    double seconds[2] = {0.0, 0.0};  // A*, best-first
    int64_t states[2] = {0, 0};
    int appended = -1;  // -1 = no repair
  };
  std::vector<GridRow> rows;

  std::printf("root deltaP = %lld\n\n",
              static_cast<long long>(data.root_delta_p));
  std::printf("%8s %8s %14s %14s %14s %14s\n", "tau_r", "appended",
              "A*-time(s)", "BF-time(s)", "A*-states", "BF-states");
  Timer grid_timer;
  for (double tr : kTauGrid) {
    GridRow row;
    row.tau_r = tr;
    const SearchMode modes[] = {SearchMode::kAStar, SearchMode::kBestFirst};
    for (int k = 0; k < 2; ++k) {
      RepairRequest req = RepairRequest::AtRelative(tr);
      req.mode = modes[k];
      req.budget = (modes[k] == SearchMode::kBestFirst) ? kBestFirstCap : 0;
      Timer timer;
      Result<SearchProbe> probe = session.Search(req);
      if (!probe.ok()) {
        std::fprintf(stderr, "probe failed: %s\n",
                     probe.status().ToString().c_str());
        return 1;
      }
      row.tau = probe->tau;
      row.seconds[k] = timer.ElapsedSeconds();
      row.states[k] = probe->result.stats.states_visited;
      if (k == 0 && probe->result.repair.has_value()) {
        row.appended = probe->result.repair->state.TotalAppended();
      }
    }
    if (row.appended < 0) {
      std::printf("%7.0f%% %8s %14.3f %14.3f %14lld %14lld   (no repair)\n",
                  tr * 100, "-", row.seconds[0], row.seconds[1],
                  static_cast<long long>(row.states[0]),
                  static_cast<long long>(row.states[1]));
    } else {
      std::printf("%7.0f%% %8d %14.3f %14.3f %14lld %14lld\n", tr * 100,
                  row.appended, row.seconds[0], row.seconds[1],
                  static_cast<long long>(row.states[0]),
                  static_cast<long long>(row.states[1]));
    }
    rows.push_back(row);
  }
  double grid_seconds = grid_timer.ElapsedSeconds();
  std::printf("\nExpected shape: A* far cheaper than best-first at small "
              "tau_r; the gap narrows as tau_r grows (goal states get "
              "shallow for both).\n");

  // The same τr grid as one batched request: all grid points run
  // concurrently on the session's pool and share one violation
  // table + cover memo.
  std::vector<RepairRequest> batch;
  for (double tr : kTauGrid) batch.push_back(RepairRequest::AtRelative(tr));
  Timer sweep_timer;
  std::vector<Result<SearchProbe>> swept = session.SearchMany(batch);
  double sweep_seconds = sweep_timer.ElapsedSeconds();
  double serial_seconds = 0.0;
  for (const Result<SearchProbe>& probe : swept) {
    if (probe.ok()) serial_seconds += probe->result.stats.seconds;
  }
  std::printf("\nbatched-request API: %zu grid points in %.3fs wall at %d "
              "threads (sum of per-search times: %.3fs)\n",
              swept.size(), sweep_seconds, sweep_threads,
              serial_seconds);

  // Machine-readable trajectory: per-phase timings and the δP pipeline's
  // cover-memo effectiveness over the whole run.
  CoverMemo::Stats memo = session.context().evaluator().memo().stats();
  if (FILE* f = bench::OpenBenchJson("fig12_tau")) {
    std::fprintf(f, "{\n  \"bench\": \"fig12_tau\",\n");
    std::fprintf(f, "  \"scale\": %.3f,\n", bench::Scale());
    std::fprintf(f, "  \"root_delta_p\": %lld,\n",
                 static_cast<long long>(data.root_delta_p));
    std::fprintf(f,
                 "  \"phases\": {\"prepare_seconds\": %.6f, "
                 "\"grid_seconds\": %.6f, \"sweep_seconds\": %.6f},\n",
                 prepare_seconds, grid_seconds, sweep_seconds);
    std::fprintf(f, "  \"grid\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const GridRow& r = rows[i];
      std::fprintf(f,
                   "    {\"tau_r\": %.2f, \"tau\": %lld, \"appended\": %d, "
                   "\"astar_seconds\": %.6f, \"bf_seconds\": %.6f, "
                   "\"astar_states\": %lld, \"bf_states\": %lld}%s\n",
                   r.tau_r, static_cast<long long>(r.tau), r.appended,
                   r.seconds[0], r.seconds[1],
                   static_cast<long long>(r.states[0]),
                   static_cast<long long>(r.states[1]),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"sweep\": {\"threads\": %d, \"wall_seconds\": %.6f, "
                 "\"sum_job_seconds\": %.6f},\n",
                 sweep_threads, sweep_seconds, serial_seconds);
    std::fprintf(f,
                 "  \"cover_memo\": {\"hits\": %lld, \"misses\": %lld, "
                 "\"hit_rate\": %.6f, \"groups_scanned\": %lld, "
                 "\"groups_resumed\": %lld}\n}\n",
                 static_cast<long long>(memo.hits),
                 static_cast<long long>(memo.misses), memo.HitRate(),
                 static_cast<long long>(memo.groups_scanned),
                 static_cast<long long>(memo.groups_resumed));
    std::fclose(f);
  }
  return 0;
}
