// The persistence subsystem (src/persist/): snapshot round trips that are
// bit-identical at any thread count, hostile-bytes handling (truncation,
// bit flips, future format versions, foreign fingerprints — every failure
// a clean Status, never a crash), the delta journal's encode/replay
// oracle and torn-tail tolerance, and the tenant registry's snapshot-
// backed unload/reload lifecycle with byte-budget eviction.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/persist/io.h"
#include "src/persist/journal.h"
#include "src/persist/snapshot.h"
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
TEST(SnapshotRoundTrip, BitIdenticalAtEveryThreadCount) {
  WorkloadData data = MakeWorkload();
  Result<Session> original = Session::Open(data.dirty, data.sigma);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  for (int threads : {1, 2, 4, 8}) {
    SessionOptions opts;
    opts.exec.num_threads = threads;
    Result<Session> restored = Session::OpenSnapshot(path, opts);
    ASSERT_TRUE(restored.ok())
        << threads << ": " << restored.status().ToString();
    // The restore adopted ONE context without a build-from-scratch pass.
    EXPECT_EQ(restored->CachedContexts().cached, 1u);
    ExpectSameAnswers(*original, *restored,
                      ("threads=" + std::to_string(threads)).c_str());
  }
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

  /// Replaces the index's groups after `edit` changed a copy of them.
  static void EditGroups(persist::SnapshotData* data,
                         const std::function<void(std::vector<DiffSetGroup>*)>&
                             edit) {
    std::vector<DiffSetGroup> groups = data->index.groups();
    edit(&groups);
    data->index = DifferenceSetIndex(std::move(groups));
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
  // Fields set directly: the Edge constructor would normalize u <= v.
  auto raw = [](int32_t u, int32_t v) {
    Edge e;
    e.u = u;
    e.v = v;
    return e;
  };
  const std::vector<std::pair<const char*, std::vector<Edge>>> cases = {
      {"v past n", {raw(0, 2), raw(1, 1 << 28)}},
      {"negative u", {raw(-1, 2), raw(1, 2)}},
      {"u == v", {raw(0, 2), raw(2, 2)}},
      {"u > v", {raw(2, 0), raw(1, 2)}},
      {"descending", {raw(1, 2), raw(0, 2)}},
      {"repeated", {raw(0, 2), raw(0, 2)}},
  };
  for (const auto& [label, edges] : cases) {
    SetUp();
    Resave([&edges = edges](persist::SnapshotData* data) {
      EditGroups(data, [&](std::vector<DiffSetGroup>* groups) {
        (*groups)[0].edges = edges;
      });
    });
    ExpectRejected(label);
  }
}

TEST_F(SnapshotContent, DiffSetOutsideTheSchemaIsIoError) {
  Resave([](persist::SnapshotData* data) {
    EditGroups(data, [](std::vector<DiffSetGroup>* groups) {
      (*groups)[0].diff.Add(3);  // the schema has attributes 0..2
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

  service::TenantRegistry registry(SessionOptions{}, nullptr);
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
  service::TenantRegistry registry(SessionOptions{}, nullptr);
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
  service::TenantRegistry registry(SessionOptions{}, nullptr);
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
  service::TenantRegistry registry(SessionOptions{}, nullptr,
                                   TestDir());
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
  service::TenantRegistry registry(SessionOptions{}, nullptr,
                                   TestDir(), /*max_loaded_bytes=*/1);
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

}  // namespace
}  // namespace retrust
