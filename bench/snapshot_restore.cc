// Snapshot persistence: warm restart vs cold rebuild.
//
// The service restart story the persistence subsystem exists for: a
// process dies (deploy, OOM, host move) and the replacement must answer
// requests again. Cold start pays Session::Open's O(n²) difference-set /
// conflict-graph build; a warm start reads the src/persist/ snapshot —
// a linear scan plus cheap index reconstruction — and comes back with the
// cover memo already warm. Answers are bit-identical either way, so the
// only difference a client can observe is the time to the first reply.
//
// Prints a table over several n and writes BENCH_snapshot.json with the
// headline row (n = 5000·scale) that CI's Release smoke step asserts:
// speedup_x >= 10. The row also splits the load into the file read
// (persist::ReadSnapshotFile: read, checksum, parse and validation, timed
// after the load/rebuild pairs so it cannot change them), the CRC-32 of
// the file's bytes alone (a part of that read), and the rest of
// OpenSnapshot (session assembly), so a ratio that moves shows which side
// moved, and reports the restored index's resident bytes, its edge id
// width and the file's bytes per edge.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/persist/io.h"
#include "src/persist/snapshot.h"
#include "src/util/timer.h"

using namespace retrust;

namespace {

struct Row {
  int n = 0;
  double load_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double read_seconds = 0.0;  ///< persist::ReadSnapshotFile
  double crc_seconds = 0.0;   ///< persist::Crc32 over the file's bytes
  size_t snapshot_bytes = 0;
  /// Resident bytes of the restored index: its edge array at its stored
  /// width plus each group's difference set and offset.
  size_t index_bytes = 0;
  size_t num_edges = 0;
  int edge_id_bits = 0;  ///< 16 or 32, as the index and the file store ids

  /// The whole file's bytes over its edges: the stored edge width plus the
  /// share of every other section.
  double FileBytesPerEdge() const {
    return num_edges > 0 ? static_cast<double>(snapshot_bytes) / num_edges
                         : 0.0;
  }

  /// The load's remainder once the file read is taken out.
  double rest_seconds() const {
    return std::max(0.0, load_seconds - read_seconds);
  }

  double speedup() const {
    return load_seconds > 0 ? rebuild_seconds / load_seconds : 0.0;
  }
};

/// Best-of-`reps` timing of Session::OpenSnapshot against a from-scratch
/// Session::Open over the same data, with a bit-identity spot check.
Row Measure(const Instance& data, const FDSet& sigma,
            const std::string& path, int reps) {
  Row row;
  row.n = data.NumTuples();
  row.load_seconds = 1e100;
  row.rebuild_seconds = 1e100;
  row.read_seconds = 1e100;
  row.crc_seconds = 1e100;

  {
    Result<Session> session = Session::Open(data, sigma);
    if (!session.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   session.status().ToString().c_str());
      std::exit(1);
    }
    // Warm the cover memo like a live service before the save, so the
    // snapshot carries a realistic warm state, not an empty one.
    (void)session->Repair(RepairRequest::AtRelative(1.0));
    Status saved = session->SaveSnapshot(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
  }
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    row.snapshot_bytes = static_cast<size_t>(std::ftell(f));
    std::fclose(f);
  }

  int64_t rebuilt_root = 0;
  for (int r = 0; r < reps; ++r) {
    Timer rebuild_timer;
    Result<Session> rebuilt = Session::Open(data, sigma);
    double rebuild = rebuild_timer.ElapsedSeconds();
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "rebuild failed: %s\n",
                   rebuilt.status().ToString().c_str());
      std::exit(1);
    }
    rebuilt_root = rebuilt->RootDeltaP();
    row.rebuild_seconds = std::min(row.rebuild_seconds, rebuild);

    Timer load_timer;
    Result<Session> loaded = Session::OpenSnapshot(path);
    double load = load_timer.ElapsedSeconds();
    if (!loaded.ok() || loaded->RootDeltaP() != rebuilt_root) {
      std::fprintf(stderr, "restore mismatch: snapshot and from-scratch "
                           "sessions disagree\n");
      std::exit(1);
    }
    row.load_seconds = std::min(row.load_seconds, load);
    const DifferenceSetIndex& index = loaded->context().index();
    row.index_bytes = index.edges().size_bytes() +
                      index.diffs().size() * (sizeof(AttrSet) + sizeof(size_t));
    row.num_edges = index.edges().size();
    row.edge_id_bits = index.edges().narrow() ? 16 : 32;

    Result<std::string> bytes = persist::ReadWholeFile(path, "snapshot");
    if (!bytes.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   bytes.status().ToString().c_str());
      std::exit(1);
    }
    Timer crc_timer;
    volatile uint32_t crc = persist::Crc32(bytes->data(), bytes->size() - 4);
    (void)crc;
    row.crc_seconds = std::min(row.crc_seconds, crc_timer.ElapsedSeconds());
  }
  for (int r = 0; r < reps; ++r) {
    Timer read_timer;
    Result<persist::SnapshotData> read = persist::ReadSnapshotFile(path);
    row.read_seconds = std::min(row.read_seconds, read_timer.ElapsedSeconds());
    if (!read.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   read.status().ToString().c_str());
      std::exit(1);
    }
  }
  return row;
}

}  // namespace

int main() {
  const int headline_n = bench::ScaledN(5000);
  const std::vector<int> sizes = {headline_n / 4, headline_n / 2,
                                  headline_n};

  bench::Banner("snapshot", "Session::OpenSnapshot vs full rebuild");

  CensusConfig gen;
  gen.num_tuples = headline_n;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 42;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbOptions perturb;
  perturb.data_error_rate = 0.01;
  perturb.fd_error_rate = 0.5;
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);

  std::printf("%8s %14s %14s %10s %14s %14s %26s\n", "n", "load (ms)",
              "rebuild (ms)", "speedup", "file (KiB)", "index (KiB)",
              "read / crc / rest (ms)");

  Row headline;
  for (int n : sizes) {
    Instance subset(dirty.data.schema());
    for (TupleId t = 0; t < n; ++t) subset.AddTuple(dirty.data.row(t));
    const std::string path =
        "BENCH_snapshot_" + std::to_string(n) + ".snap";
    Row row = Measure(subset, dirty.fds, path, /*reps=*/5);
    std::remove(path.c_str());
    std::printf("%8d %14.2f %14.2f %9.1fx %14.1f %14.1f %10.2f / %5.2f / "
                "%5.2f\n",
                row.n, row.load_seconds * 1e3, row.rebuild_seconds * 1e3,
                row.speedup(), row.snapshot_bytes / 1024.0,
                row.index_bytes / 1024.0, row.read_seconds * 1e3,
                row.crc_seconds * 1e3,
                row.rest_seconds() * 1e3);
    if (n == headline_n) headline = row;
  }

  FILE* json = bench::OpenBenchJson("snapshot");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"n\": %d,\n"
                 "  \"load_seconds\": %.6f,\n"
                 "  \"rebuild_seconds\": %.6f,\n"
                 "  \"speedup_x\": %.2f,\n"
                 "  \"load_read_seconds\": %.6f,\n"
                 "  \"load_crc_seconds\": %.6f,\n"
                 "  \"load_rest_seconds\": %.6f,\n"
                 "  \"snapshot_bytes\": %zu,\n"
                 "  \"index_bytes\": %zu,\n"
                 "  \"edge_id_bits\": %d,\n"
                 "  \"file_bytes_per_edge\": %.3f\n"
                 "}\n",
                 headline.n, headline.load_seconds,
                 headline.rebuild_seconds, headline.speedup(),
                 headline.read_seconds, headline.crc_seconds,
                 headline.rest_seconds(), headline.snapshot_bytes,
                 headline.index_bytes, headline.edge_id_bits,
                 headline.FileBytesPerEdge());
    std::fclose(json);
  }
  return 0;
}
