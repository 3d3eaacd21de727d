// Google-benchmark micro suite for the hot kernels: encoding, conflict
// graph construction (serial and sharded), vertex cover, difference-set
// indexing, the δP evaluation pipeline (violation table + memoized
// covers), heuristic evaluation, the data-repair pass (cold, and warm
// with its per-phase split), and the τ-sweep scheduler.
//
// Besides the console table, the run writes machine-readable results to
// BENCH_micro_core.json (google-benchmark's JSON schema; per-benchmark
// timings plus the cover-memo effectiveness counters below), so the perf
// trajectory is tracked across PRs. CI's Release bench-smoke step asserts
// on the counters.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/experiment.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

ExperimentData& SharedData(int n) {
  static std::map<int, ExperimentData> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    CensusConfig gen;
    gen.num_tuples = n;
    gen.num_attrs = 14;
    gen.planted_lhs_sizes = {5};
    gen.seed = 42;
    PerturbOptions perturb;
    perturb.fd_error_rate = 0.4;
    perturb.data_error_rate = 0.02;
    perturb.seed = 7;
    it = cache.emplace(n, PrepareExperiment(gen, perturb)).first;
  }
  return it->second;
}

void BM_Encode(benchmark::State& state) {
  ExperimentData& d = SharedData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    EncodedInstance enc(d.dirty_instance());
    benchmark::DoNotOptimize(enc.NumTuples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Encode)->Arg(1000)->Arg(4000);

void BM_BuildConflictGraph(benchmark::State& state) {
  ExperimentData& d = SharedData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ConflictGraph cg = BuildConflictGraph(d.encoded(), d.dirty.fds);
    benchmark::DoNotOptimize(cg.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildConflictGraph)->Arg(1000)->Arg(4000);

void BM_GreedyVertexCover(benchmark::State& state) {
  ExperimentData& d = SharedData(static_cast<int>(state.range(0)));
  ConflictGraph cg = BuildConflictGraph(d.encoded(), d.dirty.fds);
  for (auto _ : state) {
    auto cover = GreedyVertexCover(cg.graph);
    benchmark::DoNotOptimize(cover.size());
  }
}
BENCHMARK(BM_GreedyVertexCover)->Arg(1000)->Arg(4000);

void BM_DiffSetIndex(benchmark::State& state) {
  ExperimentData& d = SharedData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DifferenceSetIndex idx =
        BuildDifferenceSetIndex(d.encoded(), d.dirty.fds, nullptr);
    benchmark::DoNotOptimize(idx.size());
  }
}
BENCHMARK(BM_DiffSetIndex)->Arg(1000)->Arg(4000);

// Sharded violation detection (conflict graph + index) vs thread count;
// threads=1 exercises the serial fast path of the same entry points.
void BM_ViolationDetectionSharded(benchmark::State& state) {
  ExperimentData& d = SharedData(4000);
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
  for (auto _ : state) {
    ConflictGraph cg = BuildConflictGraph(d.encoded(), d.dirty.fds,
                                          pool.get());
    DifferenceSetIndex idx =
        BuildDifferenceSetIndex(d.encoded(), d.dirty.fds, pool.get());
    benchmark::DoNotOptimize(idx.size());
  }
}
BENCHMARK(BM_ViolationDetectionSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// τ-sweep through the facade: 8 grid points per Session::SearchMany batch,
// at 1..8 sweep threads (a fresh Session per thread count so the pool size
// matches, sharing the warm dataset).
void BM_TauSweep(benchmark::State& state) {
  ExperimentData& d = SharedData(1000);
  std::unique_ptr<exec::ThreadPool> pool =
      exec::MakePool(static_cast<int>(state.range(0)));
  SessionOptions sopts;
  sopts.pool = pool.get();
  Result<Session> session =
      Session::Open(d.dirty_instance(), d.dirty.fds, sopts);
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  std::vector<RepairRequest> batch;
  for (double tr : {0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9}) {
    batch.push_back(RepairRequest::AtRelative(tr));
  }
  for (auto _ : state) {
    auto results = session->SearchMany(batch);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_TauSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GcHeuristicRoot(benchmark::State& state) {
  ExperimentData& d = SharedData(4000);
  SearchState root = SearchState::Root(d.dirty.fds.size());
  int64_t tau = TauFromRelative(0.2, d.root_delta_p);
  SearchStats stats;
  for (auto _ : state) {
    double gc = d.context().heuristic().Compute(root, tau, &stats);
    benchmark::DoNotOptimize(gc);
  }
}
BENCHMARK(BM_GcHeuristicRoot);

void BM_RepairData(benchmark::State& state) {
  ExperimentData& d = SharedData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rng rng(1);
    DataRepairResult r = RepairData(d.encoded(), d.dirty.fds, &rng);
    benchmark::DoNotOptimize(r.changed_cells.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RepairData)->Arg(1000)->Arg(4000);

/// e2ebench's dense5k tenant: 5k low-cardinality rows, 8 attributes,
/// planted LHS sizes {2, 2}. Null if the session fails to open.
Session* Dense5kSession() {
  static Session* session = [] {
    CensusConfig gen;
    gen.num_tuples = 5000;
    gen.num_attrs = 8;
    gen.planted_lhs_sizes = {2, 2};
    gen.seed = 1;
    PerturbOptions perturb;
    perturb.data_error_rate = 0.02;
    perturb.fd_error_rate = 0.5;
    perturb.seed = 2;
    GeneratedData clean = GenerateCensusLike(gen);
    PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
    Result<Session> opened = Session::Open(dirty.data, dirty.fds);
    return opened.ok() ? new Session(std::move(*opened)) : nullptr;
  }();
  return session;
}

/// Best of five runs of `phase`, in milliseconds.
template <typename Phase>
double BestMillis(Phase&& phase) {
  double best = 1e100;
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    phase();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

// Warm materialization: Session::Repair at τr = Arg/100 with the memo
// already holding the search answer and the goal's base, so each
// iteration runs only Algorithm 4's seed-driven chase under a new seed.
// The counters split one materialization into its phases (best of five,
// ms): the greedy cover, the clean index over I ∖ C (together the
// memoized base), the chase, and the diff of the cover tuples.
void BM_MaterializeWarm(benchmark::State& state) {
  if (Dense5kSession() == nullptr) {
    state.SkipWithError("dense5k session failed to open");
    return;
  }
  Session& session = *Dense5kSession();
  RepairRequest req = RepairRequest::AtRelative(state.range(0) / 100.0);
  Result<RepairResponse> warm = session.Repair(req);
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  const EncodedInstance& data = session.data();
  const FdSearchContext& ctx = session.context();
  const SearchState goal(warm->repair.extensions);
  std::vector<int32_t> cover;
  state.counters["cover_ms"] = BestMillis([&] {
    cover = internal::GreedyCover(ctx.index(),
                                  ctx.evaluator().ViolatedGroupIds(goal),
                                  data.NumTuples());
  });
  std::optional<RepairBase> base;
  state.counters["clean_index_ms"] = BestMillis(
      [&] { base.emplace(data, warm->repair.sigma_prime, cover); });
  DataRepairResult chased;
  const double chase_and_diff = BestMillis([&] {
    Rng rng(req.seed);
    chased = RepairFromBase(*base, data, &rng);
  });
  const double diff = BestMillis([&] {
    benchmark::DoNotOptimize(
        internal::DiffTuples(data, chased.repaired, base->cover));
  });
  state.counters["chase_ms"] = chase_and_diff - diff;
  state.counters["diff_ms"] = diff;
  state.counters["cover_tuples"] = static_cast<double>(base->cover.size());
  state.counters["cells_changed"] =
      static_cast<double>(chased.changed_cells.size());
  state.counters["base_bytes"] = static_cast<double>(base->Bytes());
  for (auto _ : state) {
    ++req.seed;
    Result<RepairResponse> r = session.Repair(req);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_MaterializeWarm)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_DistinctCountWeight(benchmark::State& state) {
  ExperimentData& d = SharedData(4000);
  AttrSet y{0, 3, 7};
  for (auto _ : state) {
    DistinctCountWeight w(d.encoded());  // cold cache each iteration
    benchmark::DoNotOptimize(w.Weight(y));
  }
}
BENCHMARK(BM_DistinctCountWeight);

// Attaches the δP-pipeline effectiveness counters of one search's stats:
// the legacy path recomputed a cover for every evaluation
// (covers_legacy = vc_computations + vc_memo_hits of the new path), so
// cover_reuse_x = covers_legacy / covers_computed is the recomputation
// reduction delivered by the memoized evaluation layer.
void SetCoverMemoCounters(benchmark::State& state, const SearchStats& stats) {
  double computed = static_cast<double>(stats.vc_computations);
  double legacy = computed + static_cast<double>(stats.vc_memo_hits);
  state.counters["covers_computed"] = computed;
  state.counters["covers_legacy"] = legacy;
  state.counters["cover_reuse_x"] = computed > 0 ? legacy / computed : 0.0;
  state.counters["memo_hit_rate"] =
      legacy > 0 ? static_cast<double>(stats.vc_memo_hits) / legacy : 0.0;
}

void BM_ModifyFdsAStar(benchmark::State& state) {
  ExperimentData& d = SharedData(2000);
  int64_t tau = TauFromRelative(0.25, d.root_delta_p);
  // Cold-context run for the memo counters: one search probe on a fresh
  // session (fresh evaluation layer), no cross-iteration warmth. Computed
  // once — the framework re-invokes this function while calibrating, and
  // the counters are deterministic.
  static const SearchStats cold_stats = [&] {
    Result<Session> cold = Session::Open(d.dirty_instance(), d.dirty.fds);
    if (!cold.ok()) return SearchStats{};
    Result<SearchProbe> probe = cold->Search(RepairRequest::At(tau));
    return probe.ok() ? probe->result.stats : SearchStats{};
  }();
  SetCoverMemoCounters(state, cold_stats);
  for (auto _ : state) {
    Result<SearchProbe> probe = d.session->Search(RepairRequest::At(tau));
    if (!probe.ok()) {
      state.SkipWithError(probe.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(probe->result.stats.states_visited);
  }
}
BENCHMARK(BM_ModifyFdsAStar);

// One full τ-sweep on a COLD session per iteration: the cross-job memo
// sharing (one ViolationTable + cover memo for all grid points of a
// Session::SearchMany batch) is part of what is being measured.
void BM_TauSweepColdContext(benchmark::State& state) {
  ExperimentData& d = SharedData(1000);
  std::vector<RepairRequest> batch;
  for (double tr : {0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9}) {
    batch.push_back(RepairRequest::AtRelative(tr));
  }
  std::unique_ptr<exec::ThreadPool> pool =
      exec::MakePool(static_cast<int>(state.range(0)));
  SessionOptions sopts;
  sopts.pool = pool.get();
  SearchStats total;
  for (auto _ : state) {
    state.PauseTiming();
    Result<Session> session =
        Session::Open(d.dirty_instance(), d.dirty.fds, sopts);
    if (!session.ok()) {
      state.SkipWithError(session.status().ToString().c_str());
      return;
    }
    state.ResumeTiming();
    std::vector<Result<SearchProbe>> results = session->SearchMany(batch);
    benchmark::DoNotOptimize(results.size());
    state.PauseTiming();
    for (const Result<SearchProbe>& r : results) {
      if (r.ok()) total.Accumulate(r->result.stats);
    }
    state.ResumeTiming();
  }
  SetCoverMemoCounters(state, total);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_TauSweepColdContext)->Arg(1)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  // Console for humans, BENCH_micro_core.json for the perf trajectory:
  // default --benchmark_out to the canonical path unless the caller set
  // their own.
  std::string out_flag =
      "--benchmark_out=" + retrust::bench::BenchJsonPath("micro_core");
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!has_out) {
    std::printf("wrote %s\n",
                retrust::bench::BenchJsonPath("micro_core").c_str());
  }
  benchmark::Shutdown();
  return 0;
}
