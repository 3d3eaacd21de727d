// The persistence subsystem (src/persist/): snapshot round trips that are
// bit-identical at any thread count, hostile-bytes handling (truncation,
// bit flips, future format versions, foreign fingerprints — every failure
// a clean Status, never a crash), the delta journal's encode/replay
// oracle and torn-tail tolerance, and the tenant registry's snapshot-
// backed unload/reload lifecycle with byte-budget eviction.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/persist/io.h"
#include "src/persist/journal.h"
#include "src/persist/snapshot.h"
#include "src/service/server.h"
#include "src/service/tenant_registry.h"

namespace retrust {
namespace {

/// The quickstart table: City -> Zip violated by Carol's Zip.
Instance SmallInstance() {
  Schema schema(std::vector<Attribute>{{"Name", AttrType::kString},
                                       {"City", AttrType::kString},
                                       {"Zip", AttrType::kString}});
  Instance inst(schema);
  inst.AddTuple({Value("Alice"), Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Bob"), Value("Springfield"), Value("11111")});
  inst.AddTuple({Value("Carol"), Value("Springfield"), Value("22222")});
  inst.AddTuple({Value("Dave"), Value("Shelbyville"), Value("33333")});
  return inst;
}

/// A perturbed census-like workload — big enough that the search makes
/// real choices (variable allocation, cover memoization) a sloppy
/// serializer would get wrong.
struct WorkloadData {
  Instance dirty;
  FDSet sigma;
};

WorkloadData MakeWorkload(int num_tuples = 200) {
  CensusConfig gen;
  gen.num_tuples = num_tuples;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {3};
  gen.seed = 17;
  PerturbOptions perturb;
  perturb.fd_error_rate = 0.5;
  perturb.data_error_rate = 0.03;
  perturb.seed = 23;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
  return {dirty.data, dirty.fds};
}

std::string Fingerprint(const Repair& repair, const Schema& schema) {
  std::string fp = repair.sigma_prime.ToString(schema);
  fp += "|distc=" + std::to_string(repair.distc);
  fp += "|deltaP=" + std::to_string(repair.delta_p);
  for (const AttrSet& ext : repair.extensions) {
    fp += '|';
    fp += ext.ToString();
  }
  fp += "|cells:";
  for (const CellRef& c : repair.changed_cells) {
    fp += std::to_string(c.tuple) + "," + std::to_string(c.attr) + ";";
  }
  fp += "|data:" + repair.data.Decode().ToTable();
  return fp;
}

/// A scratch directory private to the running test. ctest runs every test
/// in its own process, concurrently under `ctest -j`, so a path shared by
/// two tests lets one test's setup clobber a file the other is reading.
std::string TestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = testing::TempDir() + "/persist_test." +
                    info->test_suite_name() + "." + info->name();
  std::filesystem::create_directories(dir);
  return dir;
}

std::string TempPath(const std::string& name) {
  std::string path = TestDir() + "/" + name;
  // Paths are reused across test-binary runs; a leftover journal from a
  // previous run would (correctly) fail EnableJournal's continuity check.
  std::remove(path.c_str());
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The τ-grid every oracle comparison runs: both endpoints plus interior
/// points where the FD/data trade-off actually pivots.
std::vector<RepairRequest> OracleRequests() {
  std::vector<RepairRequest> reqs;
  for (double tau_r : {0.0, 0.3, 0.7, 1.0}) {
    reqs.push_back(RepairRequest::AtRelative(tau_r));
  }
  return reqs;
}

void ExpectSameAnswers(Session& want, Session& got, const char* label) {
  ASSERT_EQ(want.RootDeltaP(), got.RootDeltaP()) << label;
  ASSERT_EQ(want.NumTuples(), got.NumTuples()) << label;
  std::vector<RepairRequest> reqs = OracleRequests();
  std::vector<Result<RepairResponse>> a = want.RepairMany(reqs);
  std::vector<Result<RepairResponse>> b = got.RepairMany(reqs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok(), b[i].ok()) << label << " slot " << i;
    if (!a[i].ok()) {
      EXPECT_EQ(a[i].status().code(), b[i].status().code()) << label;
      continue;
    }
    EXPECT_EQ(Fingerprint(a[i]->repair, want.schema()),
              Fingerprint(b[i]->repair, got.schema()))
        << label << " slot " << i;
  }
}

// --- Snapshot round trip --------------------------------------------------

// Acceptance criterion: a session opened from a snapshot answers the τ
// grid bit-identically to the session that saved it, at EVERY thread
// count — the snapshot fingerprint excludes execution configuration by
// design.
// The bytewise table loop the slicing-by-8 Crc32 replaced.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(Crc32, CheckValueAndBytewiseAgreementAtEveryLengthAndOffset) {
  EXPECT_EQ(persist::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32("", 0), 0u);
  std::vector<unsigned char> bytes(108);
  uint32_t state = 12345;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 100; ++len) {
      EXPECT_EQ(persist::Crc32(bytes.data() + offset, len),
                BytewiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// Long enough inputs take the carry-less-multiply fold (64-byte blocks,
// then 16-byte blocks, then the table loop for the tail) where the CPU
// has one: every length up to 600 at every offset up to 15 crosses each
// of those boundaries, and a 1 MiB buffer runs the 64-byte loop for real.
TEST(Crc32, FoldPathAgreesWithBytewiseAtEveryLengthOffsetAndOneMebibyte) {
  std::vector<unsigned char> bytes((size_t{1} << 20) + 16);
  uint32_t state = 67890;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 600; ++len) {
      ASSERT_EQ(persist::Crc32(bytes.data() + offset, len),
                BytewiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  for (size_t offset : {size_t{0}, size_t{5}, size_t{16}}) {
    const size_t len = bytes.size() - 16;
    EXPECT_EQ(persist::Crc32(bytes.data() + offset, len),
              BytewiseCrc32(bytes.data() + offset, len))
        << "offset " << offset;
  }
  EXPECT_EQ(persist::Crc32("123456789", 9), 0xCBF43926u);
}

// A snapshot read checksums its pieces in file order as they land, so the
// CRC must continue across any split of the bytes.
TEST(Crc32, ChainedOverEverySplitPointEqualsOneShot) {
  std::vector<unsigned char> bytes(700);
  uint32_t state = 24680;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  const uint32_t whole = persist::Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = persist::Crc32(bytes.data(), split);
    ASSERT_EQ(persist::Crc32(bytes.data() + split, bytes.size() - split, head),
              whole)
        << "split " << split;
  }
  uint32_t pieces = 0;
  for (size_t at = 0; at < bytes.size(); at += 67) {
    pieces = persist::Crc32(bytes.data() + at,
                            std::min<size_t>(67, bytes.size() - at), pieces);
  }
  EXPECT_EQ(pieces, whole);
}

TEST(SnapshotRoundTrip, BitIdenticalAtEveryThreadCount) {
  WorkloadData data = MakeWorkload();
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    SessionOptions opts;
    opts.pool = pool.get();
    Result<Session> restored = Session::OpenSnapshot(path, opts);
    ASSERT_TRUE(restored.ok())
        << threads << ": " << restored.status().ToString();
    // The restore adopted the saved index without a build-from-scratch
    // pass: no candidate pair was enumerated.
    EXPECT_EQ(restored->context().build_stats().pairs_candidate, 0);
    ExpectSameAnswers(*original, *restored,
                      ("threads=" + std::to_string(threads)).c_str());
  }
}

/// `edges` as a snapshot stores them: (u, v) ids at the width the index
/// holds them, little-endian (the hosts these tests run on).
std::string StoredBytes(const EdgeSpan& edges) {
  return edges.Visit([](auto stored) {
    return std::string(reinterpret_cast<const char*>(stored.data()),
                       stored.size_bytes());
  });
}

/// n rows whose (Name, City) make City -> Name conflict only inside pairs
/// of rows (2k, 2k + 1), the last class also taking row n - 1 when n is
/// odd: a cheap index on either side of kMaxNarrowTuples.
Instance PairedRows(int n) {
  Schema schema(std::vector<Attribute>{{"Name", AttrType::kInt},
                                       {"City", AttrType::kInt}});
  Instance inst(schema);
  for (int t = 0; t < n; ++t) {
    inst.AddTuple({Value(static_cast<int64_t>(t)),
                   Value(static_cast<int64_t>(std::min(t / 2, (n - 2) / 2)))});
  }
  return inst;
}

TEST(SnapshotRoundTrip, IdenticalBytesAtEitherEdgeWidth) {
  for (int n : {kMaxNarrowTuples, kMaxNarrowTuples + 1}) {
    Result<Session> original = Session::Open(PairedRows(n), {"City->Name"});
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    const DifferenceSetIndex& index = original->context().index();
    ASSERT_EQ(index.edges().narrow(), n <= kMaxNarrowTuples);
    const std::string path = TempPath("width.snap");
    ASSERT_TRUE(original->SaveSnapshot(path).ok());
    const std::string saved = ReadAll(path);

    Result<Session> restored = Session::OpenSnapshot(path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const DifferenceSetIndex& back = restored->context().index();
    EXPECT_EQ(back.edges().narrow(), index.edges().narrow()) << n;
    EXPECT_TRUE(std::ranges::equal(back.edges(), index.edges())) << n;
    ASSERT_TRUE(restored->SaveSnapshot(path).ok());
    EXPECT_TRUE(ReadAll(path) == saved) << n;
  }
}

// A save that fails leaves the previous snapshot as it was: the new bytes
// go to a sibling file that is renamed over the old one only once written.
// A directory squatting on that sibling's name makes the save fail.
TEST(SnapshotRoundTrip, FailedSaveKeepsThePreviousSnapshot) {
  WorkloadData data = MakeWorkload(120);
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("atomic.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  const std::string good = ReadAll(path);

  DeltaBatch delta;
  delta.Insert(data.dirty.row(0)).Delete(11);
  ASSERT_TRUE(original->Apply(delta).ok());
  const std::string blocker = path + ".tmp";
  std::filesystem::remove_all(blocker);
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  const Status failed = original->SaveSnapshot(path);
  std::filesystem::remove_all(blocker);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(ReadAll(path) == good);

  // Restored bit-identically: it saves the same bytes (before any request
  // warms its memo) and answers like a session that never saw the delta.
  Result<Session> restored = Session::OpenSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const std::string resaved = TempPath("atomic_resaved.snap");
  ASSERT_TRUE(restored->SaveSnapshot(resaved).ok());
  EXPECT_TRUE(ReadAll(resaved) == good);
  Result<Session> reference = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(reference.ok());
  ExpectSameAnswers(*reference, *restored, "after a failed save");
}

// A restored session is fully live, not read-only: deltas apply on top of
// it and the post-delta answers still match a never-persisted session
// that took the same path.
TEST(SnapshotRoundTrip, RestoredSessionAcceptsDeltas) {
  WorkloadData data = MakeWorkload(120);
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("live_restore.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  Result<Session> restored = Session::OpenSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  DeltaBatch delta;
  delta.Insert(data.dirty.row(0)).Insert(data.dirty.row(5));
  delta.Update(3, 1, data.dirty.At(7, 1));
  delta.Delete(11);
  ASSERT_TRUE(original->Apply(delta).ok());
  ASSERT_TRUE(restored->Apply(delta).ok());
  EXPECT_EQ(restored->DataVersion(), original->DataVersion());
  ExpectSameAnswers(*original, *restored, "post-delta");
}

// DataVersion travels with the snapshot: a session that applied deltas
// before saving restores at the same version, so journals and the tenant
// registry's dirty tracking stay consistent across a reload.
TEST(SnapshotRoundTrip, DataVersionSurvivesTheFile) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  DeltaBatch delta;
  delta.Insert({Value("Erin"), Value("Shelbyville"), Value("33333")});
  ASSERT_TRUE(session->Apply(delta).ok());
  const uint64_t version = session->DataVersion();
  EXPECT_GT(version, 1u);

  const std::string path = TempPath("versioned.snap");
  ASSERT_TRUE(session->SaveSnapshot(path).ok());
  Result<Session> restored = Session::OpenSnapshot(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->DataVersion(), version);
  EXPECT_EQ(restored->NumTuples(), 5);
}

// The snapshot's "instance next_var" counters are the rows' own: they can
// run ahead of every variable in the cells (a variable taken, then
// overwritten), and a delta's variables advance them as
// Instance::ApplyDelta does. A restore keeps them, so a re-save writes the
// same bytes.
TEST(SnapshotRoundTrip, InstanceCountersRunAheadOfTheCells) {
  Instance reference = SmallInstance();
  // Three Zip variables and one City variable taken, then overwritten: no
  // cell holds a variable, but the counters read {0, 1, 3}.
  for (int i = 0; i < 3; ++i) reference.Set(0, 2, reference.NewVariable(2));
  reference.Set(1, 1, reference.NewVariable(1));
  reference.Set(0, 2, Value("11111"));
  reference.Set(1, 1, Value("Springfield"));
  ASSERT_EQ(reference.next_var_counters(), (std::vector<int32_t>{0, 1, 3}));
  Result<Session> session = Session::Open(reference, {"City->Zip"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // The encoded counters follow the cells only; the rows keep their own.
  EXPECT_EQ(session->data().next_var_counters(),
            (std::vector<int32_t>{0, 0, 0}));
  EXPECT_EQ(session->instance().next_var_counters(),
            reference.next_var_counters());

  // Name's counter moves to 5 and City's to 7; Zip's variables stay
  // behind its counter.
  DeltaBatch delta;
  delta.Insert({Value::Variable(0, 4), Value("Shelbyville"),
                Value::Variable(2, 1)});
  delta.Update(2, 1, Value::Variable(1, 6));
  delta.Update(3, 2, Value::Variable(2, 0));
  reference.ApplyDelta(
      delta, PlanDelta(delta, reference.NumTuples(), reference.NumAttrs()));
  ASSERT_EQ(reference.next_var_counters(), (std::vector<int32_t>{5, 7, 3}));
  ASSERT_TRUE(session->Apply(delta).ok());
  EXPECT_EQ(session->instance().ToTable(), reference.ToTable());
  EXPECT_EQ(session->instance().next_var_counters(),
            reference.next_var_counters());

  const std::string saved = TempPath("counters.snap");
  ASSERT_TRUE(session->SaveSnapshot(saved).ok());
  Result<persist::SnapshotData> file = persist::ReadSnapshotFile(saved);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->instance_next_var, reference.next_var_counters());

  Result<Session> restored = Session::OpenSnapshot(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->instance().ToTable(), reference.ToTable());
  EXPECT_EQ(restored->instance().next_var_counters(),
            reference.next_var_counters());
  const std::string resaved = TempPath("counters_resaved.snap");
  ASSERT_TRUE(restored->SaveSnapshot(resaved).ok());
  EXPECT_EQ(ReadAll(resaved), ReadAll(saved));
}

// --- Hostile bytes --------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
    ASSERT_TRUE(session.ok());
    path_ = TempPath("corrupt.snap");
    ASSERT_TRUE(session->SaveSnapshot(path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 16u);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, MissingFileIsIoError) {
  Result<Session> r = Session::OpenSnapshot(TempPath("nonexistent.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotCorruption, NotASnapshotIsIoError) {
  WriteAll(path_, "Name,City,Zip\nAlice,Springfield,11111\n");
  Result<Session> r = Session::OpenSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotCorruption, TruncationIsIoError) {
  for (size_t keep : {bytes_.size() - 1, bytes_.size() / 2, size_t{4}}) {
    WriteAll(path_, bytes_.substr(0, keep));
    Result<Session> r = Session::OpenSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "kept " << keep;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "kept " << keep;
  }
}

TEST_F(SnapshotCorruption, BitFlipAnywhereIsIoError) {
  // A flip in the header, early payload, middle, and trailing checksum —
  // every position must be caught by the CRC (or the magic check).
  for (size_t pos : {size_t{2}, size_t{20}, bytes_.size() / 2,
                     bytes_.size() - 2}) {
    std::string flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    WriteAll(path_, flipped);
    Result<Session> r = Session::OpenSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "pos " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "pos " << pos;
  }
}

// Edges stream from the file straight into the index, and a checksum
// failure outranks whatever the parse made of the damaged bytes: a flip
// inside the first or the last group's edges, or a file cut off inside
// the last group, reads as a checksum failure. The table is big enough
// that the edges outrun the reader's window and are read into place.
TEST(SnapshotStream, DamagedEdgesFailTheChecksum) {
  Schema schema(std::vector<Attribute>{{"Name", AttrType::kString},
                                       {"City", AttrType::kString},
                                       {"Street", AttrType::kString},
                                       {"Zip", AttrType::kString}});
  const auto text = [](char kind, int k) {
    std::string out(1, kind);
    out += std::to_string(k);
    return Value(out);
  };
  Instance inst(schema);
  for (int t = 0; t < 1000; ++t) {
    inst.AddTuple({text('n', t), text('c', t % 5), text('s', t % 3),
                   text('z', t % 7)});
  }
  Result<Session> session = Session::Open(inst, {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const DifferenceSetIndex& index = session->context().index();
  ASSERT_GE(index.size(), 2);
  ASSERT_GT(index.edges().size_bytes(), persist::ByteReader::kWindow);
  const std::string path = TempPath("stream.snap");
  ASSERT_TRUE(session->SaveSnapshot(path).ok());
  const std::string bytes = ReadAll(path);

  // Where a group's edges sit in the file: its (u, v) ids, in order.
  const auto edges_at = [&](int g) {
    const std::string words = StoredBytes(index.group(g).edges);
    const size_t at = bytes.find(words);
    EXPECT_NE(at, std::string::npos) << "group " << g;
    return std::pair(at, words.size());
  };
  const auto expect_checksum_failure = [&](const std::string& damaged,
                                           const std::string& label) {
    WriteAll(path, damaged);
    Result<persist::SnapshotData> read = persist::ReadSnapshotFile(path);
    ASSERT_FALSE(read.ok()) << label;
    EXPECT_EQ(read.status().code(), StatusCode::kIoError) << label;
    EXPECT_NE(read.status().message().find("failed its checksum"),
              std::string::npos)
        << label << ": " << read.status().ToString();
  };
  for (int g : {0, index.size() - 1}) {
    const auto [at, size] = edges_at(g);
    for (size_t pos : {at + 3, at + size / 2, at + size - 1}) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
      expect_checksum_failure(flipped, "flip at byte " + std::to_string(pos));
    }
  }
  const auto [last, last_size] = edges_at(index.size() - 1);
  for (size_t keep : {last + 4, last + last_size / 2}) {
    expect_checksum_failure(bytes.substr(0, keep),
                            "cut at byte " + std::to_string(keep));
  }
  WriteAll(path, bytes);
  EXPECT_TRUE(persist::ReadSnapshotFile(path).ok());
}

TEST_F(SnapshotCorruption, FutureFormatVersionIsVersionMismatch) {
  // Patch the version field and RE-COMPUTE the checksum, so the only
  // thing wrong with the file is the version — the reader must classify
  // it as kVersionMismatch, not generic corruption. The previous version
  // (whose groups carried a pair-tally field) is refused the same way.
  for (const uint32_t version : {persist::kSnapshotFormatVersion + 1,
                                 persist::kSnapshotFormatVersion - 1}) {
    std::string patched = bytes_;
    for (int i = 0; i < 4; ++i) {
      patched[8 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    const uint32_t crc = persist::Crc32(patched.data(), patched.size() - 4);
    for (int i = 0; i < 4; ++i) {
      patched[patched.size() - 4 + i] =
          static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    WriteAll(path_, patched);
    Result<Session> r = Session::OpenSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "version " << version;
    EXPECT_EQ(r.status().code(), StatusCode::kVersionMismatch)
        << "version " << version;
  }
}

TEST_F(SnapshotCorruption, ForeignConfigurationIsSchemaMismatch) {
  // The file is intact; the CALLER's configuration differs (weight
  // model). Session::OpenSnapshot owns the fingerprint policy.
  SessionOptions opts;
  opts.weights = WeightModel::kCardinality;
  Result<Session> r = Session::OpenSnapshot(path_, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSchemaMismatch);

  SessionOptions heuristic_opts;
  heuristic_opts.heuristic.max_diffsets =
      heuristic_opts.heuristic.max_diffsets / 2 + 1;
  Result<Session> h = Session::OpenSnapshot(path_, heuristic_opts);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kSchemaMismatch);
}

// --- Content a valid checksum cannot vouch for ----------------------------
//
// Each case parses a good snapshot, corrupts one part, and re-saves it
// through WriteSnapshotFile — so the CRC is valid and only the content is
// hostile. The reader must refuse it before anything indexes by it.

class SnapshotContent : public SnapshotCorruption {
 protected:
  /// Re-saves the file with `tamper` applied to its parsed parts.
  void Resave(const std::function<void(persist::SnapshotData*)>& tamper) {
    Result<persist::SnapshotData> data = persist::ReadSnapshotFile(path_);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    tamper(&*data);
    persist::SnapshotView view;
    view.fingerprint = data->fingerprint;
    view.data_stamp = data->data_stamp;
    view.data_version = data->data_version;
    view.root_delta_p = data->root_delta_p;
    view.weight_model = data->weight_model;
    view.heuristic = data->heuristic;
    view.encoded = &data->encoded;
    view.instance_next_var = &data->instance_next_var;
    view.sigma = &data->sigma;
    view.index = &data->index;
    view.warm = data->warm;
    ASSERT_TRUE(persist::WriteSnapshotFile(path_, view).ok());
  }

  /// Both the reader and OpenSnapshot must answer kIoError.
  void ExpectRejected(const std::string& label) {
    Result<persist::SnapshotData> read = persist::ReadSnapshotFile(path_);
    ASSERT_FALSE(read.ok()) << label;
    EXPECT_EQ(read.status().code(), StatusCode::kIoError) << label;
    Result<Session> opened = Session::OpenSnapshot(path_);
    ASSERT_FALSE(opened.ok()) << label;
    EXPECT_EQ(opened.status().code(), StatusCode::kIoError) << label;
  }

  /// Saves the wide fixture to path_: an index over kMaxNarrowTuples + 1
  /// tuples, which stores 32-bit ids, whose group 0 is (0, 1), (2, 3), ...
  void SaveWide() {
    Result<Session> session =
        Session::Open(PairedRows(kMaxNarrowTuples + 1), {"City->Name"});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_FALSE(session->context().index().edges().narrow());
    ASSERT_TRUE(session->SaveSnapshot(path_).ok());
  }

  /// The file offset of group 0's header (its difference set and edge
  /// count, then its edges) in `bytes`, the contents of path_.
  size_t FirstGroupAt(const std::string& bytes) {
    Result<persist::SnapshotData> data = persist::ReadSnapshotFile(path_);
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    if (!data.ok()) return std::string::npos;
    const DiffSetGroup group = data->index.group(0);
    persist::ByteWriter header;
    header.U64(group.diff.bits());
    header.U64(group.edges.size());
    const size_t at = bytes.find(header.buffer() + StoredBytes(group.edges));
    EXPECT_NE(at, std::string::npos);
    return at;
  }

  /// Writes `bytes` to path_ with the checksum re-sealed.
  void Reseal(std::string bytes) {
    const uint32_t crc = persist::Crc32(bytes.data(), bytes.size() - 4);
    for (int i = 0; i < 4; ++i) {
      bytes[bytes.size() - 4 + i] = static_cast<char>(crc >> (8 * i));
    }
    WriteAll(path_, bytes);
  }

  /// Overwrites the first edges.size() edges of group 0 in the file with
  /// `edges`, at the file's id width, and re-seals the checksum. The ids
  /// reach the reader exactly as given; each must fit that width.
  void RewriteFirstGroupEdges(const std::vector<Edge>& edges, bool narrow) {
    std::string bytes = ReadAll(path_);
    const size_t at = FirstGroupAt(bytes);
    ASSERT_NE(at, std::string::npos);
    persist::ByteWriter words;
    for (const Edge& e : edges) {
      if (narrow) {
        ASSERT_TRUE(e.u >= 0 && e.u <= 0xffff && e.v >= 0 && e.v <= 0xffff);
        words.Array(std::vector<NarrowEdge>{
            {static_cast<uint16_t>(e.u), static_cast<uint16_t>(e.v)}});
      } else {
        words.Array(std::vector<Edge>{e});
      }
    }
    bytes.replace(at + 2 * sizeof(uint64_t), words.size(), words.buffer());
    Reseal(std::move(bytes));
  }

  /// An index's groups as owned (difference set, edges) pairs.
  using Groups = std::vector<std::pair<AttrSet, std::vector<Edge>>>;

  /// Replaces the index's groups after `edit` changed a copy of them.
  static void EditGroups(persist::SnapshotData* data,
                         const std::function<void(Groups*)>& edit) {
    Groups groups;
    for (int g = 0; g < data->index.size(); ++g) {
      const DiffSetGroup group = data->index.group(g);
      groups.emplace_back(group.diff, std::vector<Edge>(group.edges.begin(),
                                                        group.edges.end()));
    }
    edit(&groups);
    std::vector<AttrSet> diffs;
    std::vector<size_t> begins = {0};
    std::vector<Edge> flat;
    for (const auto& [diff, edges] : groups) {
      diffs.push_back(diff);
      flat.insert(flat.end(), edges.begin(), edges.end());
      begins.push_back(flat.size());
    }
    EdgeArray array(flat.size(), data->encoded.NumTuples());
    array.Visit([&flat](auto stored) {
      for (size_t i = 0; i < flat.size(); ++i) {
        stored[i].u = static_cast<decltype(stored[i].u)>(flat[i].u);
        stored[i].v = static_cast<decltype(stored[i].v)>(flat[i].v);
      }
    });
    data->index = DifferenceSetIndex(std::move(diffs), std::move(begins),
                                     std::move(array));
  }
};

TEST_F(SnapshotContent, UntamperedResaveOpens) {
  Resave([](persist::SnapshotData*) {});
  Result<Session> r = Session::OpenSnapshot(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // City -> Zip: Carol conflicts with Alice and Bob, one group of two.
  ASSERT_EQ(r->context().index().size(), 1);
  EXPECT_EQ(r->context().index().group(0).edges.size(), 2u);
}

TEST_F(SnapshotContent, EdgeOutsideTheTuplesOrOutOfOrderIsIoError) {
  // Fields set directly: the Edge constructor would normalize u <= v. Each
  // case replaces group 0's first two edges. The default fixture (n = 4)
  // stores 16-bit ids, so the cases it cannot express (a negative id, ids
  // of 65,536 and above) run only on the wide one (n = kMaxNarrowTuples +
  // 1), where "v = 65536 + u" is v == n; the rest run at both widths.
  auto raw = [](int32_t u, int32_t v) {
    Edge e;
    e.u = u;
    e.v = v;
    return e;
  };
  for (const bool narrow : {true, false}) {
    SetUp();
    if (!narrow) SaveWide();
    const std::string fixture = ReadAll(path_);
    const int n = narrow ? 4 : kMaxNarrowTuples + 1;
    std::vector<std::pair<const char*, std::vector<Edge>>> cases = {
        {"v past n", {raw(0, 2), raw(1, narrow ? 0xffff : 1 << 28)}},
        {"v == n", {raw(0, 2), raw(1, n)}},
        {"u == v", {raw(0, 2), raw(2, 2)}},
        {"u > v", {raw(2, 0), raw(1, 2)}},
        {"descending", {raw(1, 2), raw(0, 2)}},
        {"repeated", {raw(0, 2), raw(0, 2)}},
    };
    if (!narrow) {
      cases.insert(cases.end(),
                   {{"v = 65536 + u", {raw(0, 2), raw(1, 65536 + 1)}},
                    {"v = 65536 + v", {raw(0, 2), raw(1, 65536 + 2)}},
                    {"u and v past 65535",
                     {raw(0, 2), raw(65536 + 1, 65536 + 2)}},
                    {"negative u", {raw(-1, 2), raw(1, 2)}}});
    }
    for (const auto& [label, edges] : cases) {
      const std::string at_width =
          std::string(label) + (narrow ? " (16-bit)" : " (32-bit)");
      WriteAll(path_, fixture);
      RewriteFirstGroupEdges(edges, narrow);
      ExpectRejected(at_width);
      Result<persist::SnapshotData> read = persist::ReadSnapshotFile(path_);
      ASSERT_FALSE(read.ok()) << at_width;
      EXPECT_NE(read.status().message().find("has an implausible edge list"),
                std::string::npos)
          << at_width << ": " << read.status().message();
    }
  }
}

// The edge total that follows the group count sizes the index's edge
// array before any group is read, so a total the file cannot back is
// refused before the allocation, and one the groups do not add up to is
// refused after them.
TEST_F(SnapshotContent, EdgeTotalDisagreeingWithTheFileIsIoError) {
  const std::string fixture = bytes_;
  const size_t total_at = FirstGroupAt(fixture) - sizeof(uint64_t);
  ASSERT_LT(total_at, fixture.size());
  const auto read_total = [&] {
    persist::ByteReader r(std::string_view(fixture).substr(total_at, 8));
    return r.U64();
  };
  ASSERT_EQ(read_total(), 2u);  // group 0's two edges
  // Bytes left after the field, checksum footer excluded; 4 per edge.
  const uint64_t edges_left = (fixture.size() - 4 - total_at - 8) / 4;
  const std::vector<std::tuple<const char*, uint64_t, const char*>> cases = {
      {"one past the bytes left", edges_left + 1, "implausible edge total"},
      {"2^62", uint64_t{1} << 62, "implausible edge total"},
      {"above the groups' sum", 3, "implausible index"},
      {"below the groups' sum", 1, "implausible group"},
  };
  for (const auto& [label, total, message] : cases) {
    std::string bytes = fixture;
    persist::ByteWriter field;
    field.U64(total);
    bytes.replace(total_at, 8, field.buffer());
    Reseal(std::move(bytes));
    ExpectRejected(label);
    Result<persist::SnapshotData> read = persist::ReadSnapshotFile(path_);
    ASSERT_FALSE(read.ok()) << label;
    EXPECT_NE(read.status().message().find(message), std::string::npos)
        << label << ": " << read.status().message();
  }
}

// n·m codes bound n by the file's bytes only when m > 0: a sealed file
// with no attributes and 2^24 tuples, whose fingerprint and data stamp
// match, is refused before anything is allocated per tuple.
TEST_F(SnapshotContent, ZeroAttributesWithTuplesIsIoError) {
  const SessionOptions opts;
  const EncodedInstance empty = EncodedInstance::Restore(
      Schema(std::vector<Attribute>{}), 1 << 24, {}, {}, {});
  const std::vector<int32_t> no_counters;
  const FDSet no_fds;
  const DifferenceSetIndex no_groups;
  persist::SnapshotView view;
  view.weight_model = static_cast<uint8_t>(opts.weights);
  view.heuristic = opts.heuristic;
  view.fingerprint =
      persist::ConfigFingerprint(no_fds, view.weight_model, view.heuristic);
  view.data_stamp = persist::DataStamp(empty);
  view.data_version = 1;
  view.encoded = &empty;
  view.instance_next_var = &no_counters;
  view.sigma = &no_fds;
  view.index = &no_groups;
  ASSERT_TRUE(persist::WriteSnapshotFile(path_, view).ok());
  ExpectRejected("m = 0, n = 2^24");
  Result<persist::SnapshotData> read = persist::ReadSnapshotFile(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("implausible cardinality"),
            std::string::npos)
      << read.status().message();
}

TEST_F(SnapshotContent, DiffSetOutsideTheSchemaIsIoError) {
  Resave([](persist::SnapshotData* data) {
    EditGroups(data, [](Groups* groups) {
      (*groups)[0].first.Add(3);  // the schema has attributes 0..2
    });
  });
  ExpectRejected("diff bit 3");
}

TEST_F(SnapshotContent, FdOutsideTheSchemaIsIoError) {
  const std::vector<std::pair<const char*, FD>> cases = {
      {"lhs bit 5", FD{AttrSet{1, 5}, 2}},
      {"rhs 3", FD{AttrSet{1}, 3}},
      {"rhs -1", FD{AttrSet{1}, -1}},
  };
  for (const auto& [label, fd] : cases) {
    SetUp();
    Resave([&fd = fd](persist::SnapshotData* data) {
      data->sigma = FDSet({fd});
    });
    ExpectRejected(label);
  }
}

TEST_F(SnapshotContent, CoverKeyNamingAMissingGroupIsIoError) {
  Resave([](persist::SnapshotData* data) {
    const int num_groups = data->index.size();
    GroupBitset key(num_groups);
    key.Set(num_groups);  // same word, one past the last group
    data->warm.covers.set_entries.emplace_back(std::move(key), 2);
  });
  ExpectRejected("cover key bit == num_groups");
}

TEST_F(SnapshotContent, NegativeFreshVariableCounterIsIoError) {
  Resave([](persist::SnapshotData* data) {
    data->instance_next_var[0] = -1;
  });
  ExpectRejected("instance counter");
}

// --- Bulk array codec ------------------------------------------------------

// Each element is stored lane by lane, least-significant byte first, at
// the width of its ids: a NarrowEdge as two 16-bit values, an Edge as two
// 32-bit ones, on any host.
TEST(ByteCodec, ArraysAreLittleEndianPerIdLane) {
  NarrowEdge narrow;
  narrow.u = 0x0102;
  narrow.v = 0x0304;
  Edge wide;
  wide.u = 0x01020304;
  wide.v = 0x05060708;
  persist::ByteWriter w;
  w.Array(std::vector<NarrowEdge>{narrow});
  w.Array(std::vector<Edge>{wide});
  w.Array(std::vector<int32_t>{-2});
  EXPECT_EQ(w.buffer(), std::string("\x02\x01\x04\x03"
                                    "\x04\x03\x02\x01\x08\x07\x06\x05"
                                    "\xfe\xff\xff\xff",
                                    16));

  persist::ByteReader r(w.buffer());
  std::vector<NarrowEdge> narrow_back(1);
  std::vector<Edge> wide_back(1);
  std::vector<int32_t> int_back(1);
  r.Array(&narrow_back);
  r.Array(&wide_back);
  r.Array(&int_back);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(narrow_back[0].u, narrow.u);
  EXPECT_EQ(narrow_back[0].v, narrow.v);
  EXPECT_EQ(wide_back[0], wide);
  EXPECT_EQ(int_back[0], -2);
}

// --- Whole-file read -------------------------------------------------------

TEST(ReadWholeFile, ReturnsEveryByteOrAnIoError) {
  const std::string path = TempPath("read_whole_file.bin");
  std::string want(100000, '\0');
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<char>((i * 131) % 251);  // NULs included
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(want.data(), static_cast<std::streamsize>(want.size()));
  }
  Result<std::string> got = persist::ReadWholeFile(path, "test");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, want);

  { std::ofstream truncate(path, std::ios::binary | std::ios::trunc); }
  got = persist::ReadWholeFile(path, "test");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->empty());
  std::remove(path.c_str());

  Result<std::string> missing = persist::ReadWholeFile(path, "test");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  EXPECT_NE(missing.status().message().find("cannot open test '"),
            std::string::npos);
  // A directory opens as a stream but has no file size to read.
  Result<std::string> directory =
      persist::ReadWholeFile(testing::TempDir(), "test");
  ASSERT_FALSE(directory.ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kIoError);
}

// --- Delta journal --------------------------------------------------------

TEST(Journal, DeltaBatchEncodingRoundTrips) {
  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
  batch.Insert({Value(int64_t{7}), Value(2.5), Value()});
  batch.Update(3, 1, Value("Shelbyville"));
  batch.Update(0, 2, Value(VarRef{2, 9}));
  batch.Delete(1).Delete(4);

  std::string payload = persist::EncodeDeltaBatch(batch);
  Result<DeltaBatch> decoded = persist::DecodeDeltaBatch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->inserts.size(), batch.inserts.size());
  for (size_t i = 0; i < batch.inserts.size(); ++i) {
    EXPECT_EQ(decoded->inserts[i], batch.inserts[i]) << i;
  }
  ASSERT_EQ(decoded->updates.size(), batch.updates.size());
  for (size_t i = 0; i < batch.updates.size(); ++i) {
    EXPECT_EQ(decoded->updates[i].tuple, batch.updates[i].tuple);
    EXPECT_EQ(decoded->updates[i].attr, batch.updates[i].attr);
    EXPECT_EQ(decoded->updates[i].value, batch.updates[i].value);
  }
  EXPECT_EQ(decoded->deletes, batch.deletes);

  // Hostile payloads: truncation and garbage decode to errors, not UB.
  EXPECT_FALSE(
      persist::DecodeDeltaBatch(payload.substr(0, payload.size() / 2)).ok());
  EXPECT_FALSE(persist::DecodeDeltaBatch("not a delta batch").ok());
}

// Acceptance criterion: base snapshot + journal replay reconstructs a
// session bit-identical to one that was built from the original data and
// had the same batches applied directly.
TEST(Journal, ReplayOracleMatchesDirectApplication) {
  WorkloadData data = MakeWorkload(150);
  Result<Session> writer = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(writer.ok());
  const std::string snap = TempPath("journal_base.snap");
  const std::string journal = TempPath("journal_base.journal");
  ASSERT_TRUE(writer->SaveSnapshot(snap).ok());
  ASSERT_TRUE(writer->EnableJournal(journal).ok());

  std::vector<DeltaBatch> batches(3);
  batches[0].Insert(data.dirty.row(2)).Insert(data.dirty.row(9));
  batches[1].Update(4, 2, data.dirty.At(8, 2)).Delete(13);
  batches[2].Insert(data.dirty.row(1)).Update(0, 3, data.dirty.At(6, 3));
  for (const DeltaBatch& batch : batches) {
    ASSERT_TRUE(writer->Apply(batch).ok());
  }

  Result<Session> replayed = Session::OpenSnapshot(snap);
  ASSERT_TRUE(replayed.ok());
  Result<int> applied = replayed->ReplayJournal(journal);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 3);
  EXPECT_EQ(replayed->DataVersion(), writer->DataVersion());
  ExpectSameAnswers(*writer, *replayed, "journal replay");

  // The replayed session can now continue the SAME journal — version
  // continuity holds — and a further delta round-trips through it.
  ASSERT_TRUE(replayed->EnableJournal(journal).ok());
  DeltaBatch more;
  more.Insert(data.dirty.row(4));
  ASSERT_TRUE(replayed->Apply(more).ok());
  ASSERT_TRUE(writer->Apply(more).ok());
  Result<Session> again = Session::OpenSnapshot(snap);
  ASSERT_TRUE(again.ok());
  Result<int> reapplied = again->ReplayJournal(journal);
  ASSERT_TRUE(reapplied.ok());
  EXPECT_EQ(*reapplied, 4);
  ExpectSameAnswers(*writer, *again, "continued journal");
}

TEST(Journal, TornTailIsToleratedAndTruncatedOnAppend) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string snap = TempPath("torn.snap");
  const std::string journal = TempPath("torn.journal");
  ASSERT_TRUE(session->SaveSnapshot(snap).ok());
  ASSERT_TRUE(session->EnableJournal(journal).ok());
  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
  ASSERT_TRUE(session->Apply(batch).ok());

  // Simulate a crash mid-append: a length prefix promising more bytes
  // than exist. Readers keep the complete prefix and flag the tear.
  std::string bytes = ReadAll(journal);
  std::string torn = bytes + std::string("\x40\x00\x00\x00half", 8);
  WriteAll(journal, torn);
  Result<persist::JournalContents> contents =
      persist::ReadJournalFile(journal);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  ASSERT_EQ(contents->batches.size(), 1u);

  // Replay sees only the complete record...
  Result<Session> replayed = Session::OpenSnapshot(snap);
  ASSERT_TRUE(replayed.ok());
  Result<int> applied = replayed->ReplayJournal(journal);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1);
  // ...and re-attaching truncates the tear before the next append.
  ASSERT_TRUE(replayed->EnableJournal(journal).ok());
  DeltaBatch next;
  next.Insert({Value("Frank"), Value("Ogdenville"), Value("44444")});
  ASSERT_TRUE(replayed->Apply(next).ok());
  contents = persist::ReadJournalFile(journal);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->torn_tail);
  EXPECT_EQ(contents->batches.size(), 2u);
}

TEST(Journal, CorruptCompleteRecordIsIoError) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string journal = TempPath("flip.journal");
  ASSERT_TRUE(session->EnableJournal(journal).ok());
  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
  ASSERT_TRUE(session->Apply(batch).ok());

  // A bit flip INSIDE a complete record is corruption, not a torn write.
  std::string bytes = ReadAll(journal);
  bytes[bytes.size() - 10] = static_cast<char>(bytes[bytes.size() - 10] ^ 1);
  WriteAll(journal, bytes);
  Result<persist::JournalContents> contents =
      persist::ReadJournalFile(journal);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kIoError);
}

TEST(Journal, MismatchedBaseIsRejected) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string journal = TempPath("foreign.journal");

  // Fingerprint from a different configuration → kSchemaMismatch.
  persist::JournalHeader header;
  header.fingerprint = 0xdeadbeef;
  header.base_stamp = 0;
  header.base_version = session->DataVersion();
  ASSERT_TRUE(persist::JournalWriter::Create(journal, header).ok());
  Result<int> replayed = session->ReplayJournal(journal);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kSchemaMismatch);

  // Replay is refused while a journal is attached (it would re-log).
  const std::string attached = TempPath("attached.journal");
  ASSERT_TRUE(session->EnableJournal(attached).ok());
  Result<int> blocked = session->ReplayJournal(attached);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kInvalidArgument);
}

// A journal's records are bound to the configuration it was opened under,
// so switching Σ or weights is refused while one is attached; the journal
// keeps replaying onto the base snapshot.
TEST(Journal, SetFdsAndSetWeightsAreRefusedWhileJournaling) {
  Result<Session> session = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(session.ok());
  const std::string snap = TempPath("switch.snap");
  const std::string journal = TempPath("switch.journal");
  ASSERT_TRUE(session->SaveSnapshot(snap).ok());
  ASSERT_TRUE(session->EnableJournal(journal).ok());
  const FDSet sigma = session->fds();
  const int64_t root = session->RootDeltaP();

  Status fds = session->SetFds({"Name->Zip"});
  ASSERT_FALSE(fds.ok());
  EXPECT_EQ(fds.code(), StatusCode::kInvalidArgument);
  Status weights = session->SetWeights(WeightModel::kCardinality);
  ASSERT_FALSE(weights.ok());
  EXPECT_EQ(weights.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session->fds(), sigma);
  EXPECT_EQ(session->options().weights, WeightModel::kDistinctCount);
  EXPECT_EQ(session->RootDeltaP(), root);

  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value("Springfield"), Value("33333")});
  ASSERT_TRUE(session->Apply(batch).ok());
  Result<Session> replayed = Session::OpenSnapshot(snap);
  ASSERT_TRUE(replayed.ok());
  Result<int> applied = replayed->ReplayJournal(journal);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 1);
  ExpectSameAnswers(*session, *replayed, "journal after refused switches");
}

// --- Tenant registry lifecycle --------------------------------------------

std::string WriteSmallCsv(const std::string& name) {
  std::string path = TempPath(name);
  std::ofstream out(path);
  out << "Name,City,Zip\n"
         "Alice,Springfield,11111\n"
         "Bob,Springfield,11111\n"
         "Carol,Springfield,22222\n"
         "Dave,Shelbyville,33333\n";
  return path;
}

TEST(RegistryLifecycle, SnapshotBackedTenantRestoresLazily) {
  Result<Session> origin = Session::Open(SmallInstance(), {"City->Zip"});
  ASSERT_TRUE(origin.ok());
  const std::string snap = TempPath("tenant.snap");
  ASSERT_TRUE(origin->SaveSnapshot(snap).ok());

  service::TenantRegistry registry(SessionOptions{});
  ASSERT_TRUE(registry.AddSnapshot("t", snap).ok());
  Result<service::TenantStats> before = registry.StatsFor("t");
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->loaded);  // registration did not read the file

  Result<std::shared_ptr<Session>> session = registry.Get("t");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->RootDeltaP(), origin->RootDeltaP());
  EXPECT_GT(registry.LoadedBytes(), 0u);
}

TEST(RegistryLifecycle, SaveUnloadReloadRoundTrip) {
  service::TenantRegistry registry(SessionOptions{});
  ASSERT_TRUE(
      registry.Add("t", SmallInstance(), {"City->Zip"}).ok());

  // Eager tenants have no reload spec, so unloading them would strand
  // their state — refused until a snapshot gives them one.
  Status refused = registry.Unload("t");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);

  const std::string snap = TempPath("reloadable.snap");
  ASSERT_TRUE(registry.SaveSnapshot("t", snap).ok());
  int64_t root = 0;
  {
    Result<std::shared_ptr<Session>> session = registry.Get("t");
    ASSERT_TRUE(session.ok());
    root = (*session)->RootDeltaP();
  }
  ASSERT_TRUE(registry.Unload("t").ok());
  Result<service::TenantStats> unloaded = registry.StatsFor("t");
  ASSERT_TRUE(unloaded.ok());
  EXPECT_FALSE(unloaded->loaded);
  EXPECT_EQ(registry.LoadedBytes(), 0u);

  // The next Get transparently restores from the snapshot.
  Result<std::shared_ptr<Session>> reloaded = registry.Get("t");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->RootDeltaP(), root);
}

TEST(RegistryLifecycle, DirtyUnloadRefusedWithoutSnapshotDir) {
  service::TenantRegistry registry(SessionOptions{});
  ASSERT_TRUE(
      registry.AddCsv("t", WriteSmallCsv("dirty.csv"), {"City->Zip"}).ok());
  {
    Result<std::shared_ptr<Session>> session = registry.Get("t");
    ASSERT_TRUE(session.ok());
    DeltaBatch delta;
    delta.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
    ASSERT_TRUE((*session)->Apply(delta).ok());
  }
  // The CSV cannot reproduce the applied delta; without an auto-save
  // directory the unload must refuse rather than silently lose it.
  Status refused = registry.Unload("t");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  Result<service::TenantStats> stats = registry.StatsFor("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->loaded);
}

TEST(RegistryLifecycle, DirtyUnloadAutoSavesWithSnapshotDir) {
  service::TenantRegistry registry(SessionOptions{}, TestDir());
  ASSERT_TRUE(
      registry.AddCsv("auto", WriteSmallCsv("auto.csv"), {"City->Zip"}).ok());
  uint64_t version = 0;
  {
    Result<std::shared_ptr<Session>> session = registry.Get("auto");
    ASSERT_TRUE(session.ok());
    DeltaBatch delta;
    delta.Insert({Value("Erin"), Value("Ogdenville"), Value("44444")});
    ASSERT_TRUE((*session)->Apply(delta).ok());
    version = (*session)->DataVersion();
  }
  ASSERT_TRUE(registry.Unload("auto").ok());

  // The reload comes from the auto-saved snapshot: the delta survived.
  Result<std::shared_ptr<Session>> reloaded = registry.Get("auto");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->DataVersion(), version);
  EXPECT_EQ((*reloaded)->NumTuples(), 5);
}

TEST(RegistryLifecycle, ByteBudgetEvictsIdleTenants) {
  // A 1-byte budget is unreachable, so every load must evict the other,
  // idle tenant — previously both would stay resident forever.
  service::TenantRegistry registry(SessionOptions{}, TestDir(),
                                   /*max_loaded_bytes=*/1);
  ASSERT_TRUE(
      registry.AddCsv("a", WriteSmallCsv("budget_a.csv"), {"City->Zip"}).ok());
  ASSERT_TRUE(
      registry.AddCsv("b", WriteSmallCsv("budget_b.csv"), {"City->Zip"}).ok());

  ASSERT_TRUE(registry.Get("a").ok());  // shared_ptr dropped: "a" is idle
  ASSERT_TRUE(registry.Get("b").ok());
  Result<service::TenantStats> a = registry.StatsFor("a");
  Result<service::TenantStats> b = registry.StatsFor("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->loaded);  // LRU victim of b's load
  EXPECT_TRUE(b->loaded);   // the tenant being served is exempt

  // The evicted tenant is not gone — the next request reloads it (and
  // evicts "b" in turn).
  ASSERT_TRUE(registry.Get("a").ok());
  a = registry.StatsFor("a");
  b = registry.StatsFor("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->loaded);
  EXPECT_FALSE(b->loaded);
}

TEST(RegistryLifecycle, ByteChargeIsContextPlusEncodedDataset) {
  // A tenant is charged its context estimate plus what its encoding
  // holds: a 4-byte code per cell (4 rows × 3 attributes) and 128 bytes
  // per dictionary constant (4 names, 2 cities, 3 zips).
  service::TenantRegistry registry(SessionOptions{});
  ASSERT_TRUE(registry.Add("t", SmallInstance(), {"City->Zip"}).ok());
  Result<std::shared_ptr<Session>> session = registry.Get("t");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(registry.LoadedBytes(),
            (*session)->ContextBytesEstimate() + 12 * 4 + (4 + 2 + 3) * 128);
}

TEST(RegistryLifecycle, ContextEstimateCountsEdgesAtTheirStoredWidth) {
  // One group of conflict pairs: 4 bytes an edge up to kMaxNarrowTuples
  // rows, 8 above.
  for (int n : {kMaxNarrowTuples, kMaxNarrowTuples + 1}) {
    Result<Session> session = Session::Open(PairedRows(n), {"City->Name"});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const DifferenceSetIndex& index = session->context().index();
    ASSERT_EQ(index.size(), 1);
    const size_t edge_bytes = n <= kMaxNarrowTuples ? 4 : 8;
    EXPECT_EQ(session->ContextBytesEstimate(),
              index.edges().size() * edge_bytes + 128 +
                  sizeof(FdSearchContext))
        << n;
  }
}

TEST(RegistryLifecycle, ByteChargeFollowsAppliedDeltas) {
  // A delta applied through the server re-charges its tenant: 20 new rows
  // (24 × 3 cells) with new names and zips (24 names, 2 cities, 23 zips)
  // are charged like a tenant loaded with them.
  service::Server server;
  ASSERT_TRUE(server.LoadTenant("t", SmallInstance(), {"City->Zip"}).ok());
  const size_t loaded = server.tenants().LoadedBytes();
  DeltaBatch delta;
  for (int k = 0; k < 20; ++k) {
    delta.Insert({Value(std::to_string(100 + k)), Value("Springfield"),
                  Value(std::to_string(200 + k))});
  }
  ASSERT_TRUE(service::AsFuture(server, &service::Server::Apply, "t", delta)
                  .future.get()
                  .ok());
  Result<std::shared_ptr<Session>> session = server.tenants().Get("t");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(server.tenants().LoadedBytes(),
            (*session)->ContextBytesEstimate() + 24 * 3 * 4 +
                (24 + 2 + 23) * 128);
  EXPECT_GT(server.tenants().LoadedBytes(), loaded);
}

TEST(RegistryLifecycle, DeltaPastTheBudgetUnloadsIdleTenants) {
  // Two CSV tenants fit an 8,000-byte budget together. 60 inserts grow
  // "a" past it, and the apply itself unloads the idle "b" instead of
  // leaving both resident until some tenant is next loaded.
  service::ServerOptions opts;
  opts.max_loaded_tenant_bytes = 8000;
  service::Server server(opts);
  ASSERT_TRUE(server.tenants()
                  .AddCsv("a", WriteSmallCsv("grow_a.csv"), {"City->Zip"})
                  .ok());
  ASSERT_TRUE(server.tenants()
                  .AddCsv("b", WriteSmallCsv("grow_b.csv"), {"City->Zip"})
                  .ok());
  ASSERT_TRUE(server.tenants().Get("a").ok());
  ASSERT_TRUE(server.tenants().Get("b").ok());
  ASSERT_TRUE(server.tenants().StatsFor("a")->loaded);
  ASSERT_TRUE(server.tenants().StatsFor("b")->loaded);
  ASSERT_LE(server.tenants().LoadedBytes(), 8000u);

  DeltaBatch delta;
  for (int k = 0; k < 60; ++k) {
    delta.Insert({Value(std::to_string(100 + k)), Value("Springfield"),
                  Value(std::to_string(200 + k))});
  }
  ASSERT_TRUE(service::AsFuture(server, &service::Server::Apply, "a", delta)
                  .future.get()
                  .ok());
  EXPECT_TRUE(server.tenants().StatsFor("a")->loaded);
  EXPECT_FALSE(server.tenants().StatsFor("b")->loaded);
  EXPECT_EQ(server.tenants().LoadedBytes(),
            server.tenants().StatsFor("a")->bytes_estimate +
                64 * 3 * 4 + (64 + 2 + 63) * 128);
}

}  // namespace
}  // namespace retrust
