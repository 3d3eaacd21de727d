// Direct-call layer probes: the benchmark's own spans around each layer's
// public functions, on the workload's main dataset. Together with the span
// trees the service returns for traced requests they make up the per-layer
// table (README.md, "Per-layer metrics").

#include <sys/stat.h>

#include <algorithm>

#include "bench.h"
#include "src/api/session.h"
#include "src/fd/difference_set.h"
#include "src/relational/csv.h"

namespace e2e {

namespace {

using retrust::Result;
using retrust::Session;

/// Median wall time of `fn`: at least one call, repeated while the total
/// stays under `budget` seconds, at most 15 calls.
template <typename Fn>
double TimeMedian(Fn fn, double budget = 0.3) {
  std::vector<double> times;
  const double start = Now();
  do {
    const double t0 = Now();
    fn();
    times.push_back(Now() - t0);
  } while (times.size() < 15 && Now() - start < budget);
  return Median(times);
}

/// A Δ built from the data itself: copies of existing rows as inserts, a
/// few cells set to the next row's value, a few deletes — 80/10/10 like the
/// state_change batches, at most 50 changes.
retrust::DeltaBatch SelfDelta(const retrust::Instance& inst) {
  const int total = std::min(50, inst.NumTuples() / 10);
  const int small = std::max(1, total / 10);
  retrust::DeltaBatch delta;
  for (int i = 0; i < total - 2 * small; ++i) delta.Insert(inst.row(i));
  for (int i = 0; i < small; ++i) {
    const auto attr = static_cast<retrust::AttrId>(i % inst.NumAttrs());
    delta.Update(2 * i, attr, inst.At(2 * i + 1, attr));
    delta.Delete(2 * i + 1);
  }
  return delta;
}

}  // namespace

std::vector<Metric> ProbeLayers(const TenantSpec& tenant,
                                const std::vector<double>& grid,
                                const std::string& dir) {
  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit,
                    std::string note = {}) {
    out.push_back({std::move(name), value, std::move(unit), 0, std::move(note)});
  };

  // relational/: CSV read and dictionary encode.
  retrust::Instance inst;
  add("relational.csv_read_s",
      TimeMedian([&] { inst = retrust::ReadCsvFile(tenant.csv); }), "s");
  retrust::EncodedInstance encoded;
  add("relational.encode_s",
      TimeMedian([&] { encoded = retrust::EncodedInstance(inst); }), "s");

  // fd/: the difference-set build with its phase breakdown (serial, as a
  // service Session builds it).
  const retrust::FDSet sigma = retrust::FDSet::Parse(tenant.fds, inst.schema());
  retrust::DiffSetBuildStats build;
  add("fd.build_s", TimeMedian([&] {
        build = {};
        (void)retrust::BuildDifferenceSetIndex(encoded, sigma, {},
                                               retrust::DiffSetBuildMode::kBlocked,
                                               &build);
      }),
      "s");
  add("fd.build.partition_s", build.partition_seconds, "s");
  add("fd.build.enumerate_s", build.enumerate_seconds, "s");
  add("fd.build.group_s", build.group_seconds, "s");
  add("fd.pairs_candidate", static_cast<double>(build.pairs_candidate), "count");
  add("fd.pairs_materialized", static_cast<double>(build.pairs_materialized),
      "count");
  add("fd.candidate_per_edge",
      static_cast<double>(build.pairs_candidate) /
          static_cast<double>(std::max<int64_t>(1, build.pairs_materialized)),
      "ratio", "base: pairs_materialized");

  // api/: the whole open (CSV read + encode + build + root δP).
  Result<Session> session = Session::OpenCsv(tenant.csv, tenant.fds);
  add("api.open_s", TimeMedian([&] {
        session = Session::OpenCsv(tenant.csv, tenant.fds);
      }),
      "s");
  if (!session.ok()) return out;

  // persist/: snapshot save, size and restore.
  const std::string snap = dir + "/probe.snap";
  add("persist.snapshot_save_s",
      TimeMedian([&] { (void)session->SaveSnapshot(snap); }), "s");
  struct stat st {};
  stat(snap.c_str(), &st);
  add("persist.snapshot_bytes", static_cast<double>(st.st_size), "bytes");
  add("persist.snapshot_load_s",
      TimeMedian([&] { (void)Session::OpenSnapshot(snap); }), "s");

  // search/ + graph/: one cold pass of probes over the workload's grid.
  int64_t hits = 0, computations = 0;
  for (double tau_r : grid) {
    Result<retrust::SearchProbe> probe =
        session->Search(retrust::RepairRequest::AtRelative(tau_r));
    if (!probe.ok()) continue;
    hits += probe->result.stats.vc_memo_hits;
    computations += probe->result.stats.vc_computations;
  }
  const int64_t evaluations = hits + computations;
  add("graph.vc_memo_hit_ratio",
      static_cast<double>(hits) /
          static_cast<double>(std::max<int64_t>(1, evaluations)),
      "ratio", "base: " + std::to_string(evaluations) + " cover evaluations");

  // api/ + repair/: one direct repair, then the reply encode/parse a wire
  // reply of it costs.
  Result<retrust::RepairResponse> repair =
      session->Repair(retrust::RepairRequest::AtRelative(0.5));
  add("api.repair_s",
      TimeMedian([&] {
        repair = session->Repair(retrust::RepairRequest::AtRelative(0.5));
      }),
      "s");
  if (repair.ok()) {
    std::string line;
    add("service.reply_encode_s", TimeMedian([&] {
          line = retrust::service::ToJson(*repair, session->schema()).Dump();
        }),
        "s");
    add("service.reply_parse_s",
        TimeMedian([&] { (void)retrust::service::ParseJson(line); }), "s");
  }

  // fd/ + graph/: a delta against the warm session (memoized covers from
  // the search pass above).
  Result<retrust::ApplyStats> applied = session->Apply(SelfDelta(inst));
  if (applied.ok()) {
    const retrust::ApplyStats& s = *applied;
    add("fd.apply_delta_s", s.seconds, "s");
    add("fd.groups_preserved_ratio", s.reuse_ratio(), "ratio",
        "base: " + std::to_string(s.groups_preserved + s.groups_changed) +
            " groups");
    add("graph.covers_kept", static_cast<double>(s.covers_kept), "count");
    add("graph.covers_dropped", static_cast<double>(s.covers_dropped), "count");
    const size_t covers = s.covers_kept + s.covers_dropped;
    add("graph.cover_keep_ratio",
        static_cast<double>(s.covers_kept) /
            static_cast<double>(std::max<size_t>(1, covers)),
        "ratio", "base: " + std::to_string(covers) + " memoized covers");
  }
  return out;
}

}  // namespace e2e
