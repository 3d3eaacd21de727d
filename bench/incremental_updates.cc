// Incremental update engine: apply-delta vs full rebuild.
//
// Simulates the append-heavy service workload the ROADMAP targets: a
// session is open over n tuples, Δ new rows arrive, and the service must
// answer the next repair. Before this engine that meant a full rebuild —
// re-encode the instance, re-enumerate every violating pair, re-derive
// every difference set, cold caches. With Session::Apply the difference-set
// index is patched by comparing only the Δ dirty tuples against the
// relation (O(Δ·n)), edge lists outside the blast radius are kept, and a
// new search context (weights, violation table, empty cover memo) is built
// over the result.
//
// Prints a table over several Δ and writes BENCH_incremental.json with the
// headline row (n = 5000·scale, Δ = 50) that CI's Release smoke step
// asserts: speedup_x >= 5.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

struct Row {
  int delta_rows = 0;
  double apply_seconds = 0.0;
  double rebuild_seconds = 0.0;
  ApplyStats stats;

  double speedup() const {
    return apply_seconds > 0 ? rebuild_seconds / apply_seconds : 0.0;
  }
};

/// Best-of-`reps` timing of one append of `delta.inserts` onto a fresh
/// session over `base`, against a from-scratch Session::Open over the
/// grown instance (what the service had to do before Session::Apply).
Row Measure(const Instance& base, const Instance& grown, const FDSet& sigma,
            const DeltaBatch& delta, int reps) {
  Row row;
  row.delta_rows = static_cast<int>(delta.inserts.size());
  row.apply_seconds = 1e100;
  row.rebuild_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    Result<Session> session = Session::Open(base, sigma);
    if (!session.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   session.status().ToString().c_str());
      std::exit(1);
    }
    // Warm the context like a live service: one answered request.
    (void)session->Repair(RepairRequest::AtRelative(1.0));

    Timer apply_timer;
    Result<ApplyStats> stats = session->Apply(delta);
    double apply = apply_timer.ElapsedSeconds();
    if (!stats.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    row.apply_seconds = std::min(row.apply_seconds, apply);
    row.stats = *stats;

    Timer rebuild_timer;
    Result<Session> rebuilt = Session::Open(grown, sigma);
    double rebuild = rebuild_timer.ElapsedSeconds();
    if (!rebuilt.ok() ||
        rebuilt->RootDeltaP() != session->RootDeltaP()) {
      std::fprintf(stderr, "rebuild mismatch: incremental and from-scratch "
                           "sessions disagree\n");
      std::exit(1);
    }
    row.rebuild_seconds = std::min(row.rebuild_seconds, rebuild);
  }
  return row;
}

}  // namespace

int main() {
  const int n = bench::ScaledN(5000);
  const int headline_delta = 50;
  const std::vector<int> deltas = {10, headline_delta, 200};
  const int max_delta = *std::max_element(deltas.begin(), deltas.end());

  bench::Banner("incremental", "Session::Apply vs full rebuild");

  // One generated+perturbed dataset; the final max_delta rows are held
  // back as the arriving traffic.
  CensusConfig gen;
  gen.num_tuples = n + max_delta;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 42;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbOptions perturb;
  perturb.data_error_rate = 0.01;
  perturb.fd_error_rate = 0.5;
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);

  Instance base(dirty.data.schema());
  for (TupleId t = 0; t < n; ++t) base.AddTuple(dirty.data.row(t));

  std::printf("n = %d tuples, %d attrs, %d FDs\n\n", n,
              dirty.data.NumAttrs(), dirty.fds.size());
  std::printf("%8s %14s %14s %10s %12s %15s\n", "delta", "apply (ms)",
              "rebuild (ms)", "speedup", "reuse", "covers dropped");

  Row headline;
  for (int delta_rows : deltas) {
    DeltaBatch delta;
    for (int i = 0; i < delta_rows; ++i) {
      delta.Insert(dirty.data.row(n + i));
    }
    Instance grown = base;
    for (const Tuple& t : delta.inserts) grown.AddTuple(t);

    Row row = Measure(base, grown, dirty.fds, delta, /*reps=*/5);
    std::printf("%8d %14.2f %14.2f %9.1fx %11.0f%% %15zu\n", row.delta_rows,
                row.apply_seconds * 1e3, row.rebuild_seconds * 1e3,
                row.speedup(), row.stats.reuse_ratio() * 100,
                row.stats.covers_dropped);
    if (delta_rows == headline_delta) headline = row;
  }

  FILE* json = bench::OpenBenchJson("incremental");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"n\": %d,\n"
        "  \"delta\": %d,\n"
        "  \"apply_seconds\": %.6f,\n"
        "  \"rebuild_seconds\": %.6f,\n"
        "  \"speedup_x\": %.2f,\n"
        "  \"reuse_ratio\": %.4f,\n"
        "  \"groups_preserved\": %d,\n"
        "  \"groups_changed\": %d,\n"
        "  \"edges_added\": %lld,\n"
        "  \"covers_dropped\": %zu\n"
        "}\n",
        n, headline.delta_rows, headline.apply_seconds,
        headline.rebuild_seconds, headline.speedup(),
        headline.stats.reuse_ratio(), headline.stats.groups_preserved,
        headline.stats.groups_changed,
        static_cast<long long>(headline.stats.edges_added),
        headline.stats.covers_dropped);
    std::fclose(json);
  }
  return 0;
}
