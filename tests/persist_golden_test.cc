// Golden bytes for the persistence formats (src/persist/). A pin is the
// FNV-1a digest and the length of one file written from fixed inputs, so
// an edit to the shared codec that changes a single byte of a snapshot or
// a journal fails here unless the format version moves with it.
//
// Cases:
//  - snapshot: a census-like dense table (8 attributes, two planted FDs of
//    LHS width 2, n = 300) whose dictionaries hold every value tag — ints
//    from the generator plus a string, a NULL, a double and cells holding
//    variables — saved after one fixed repair, so the cover memo section
//    carries entries;
//  - journal: one header and one batch with inserts, updates and deletes
//    whose values include a NULL, a double and a variable.
//
// The digests cover the whole file, checksums included. Value::Hash feeds
// the snapshot's data stamp, and hashes strings with the standard
// library's std::hash, so the snapshot pin assumes libstdc++.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/persist/journal.h"
#include "src/persist/snapshot.h"

namespace retrust {
namespace {

struct FilePin {
  size_t bytes = 0;
  uint64_t digest = 0;
};

FilePin PinOf(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return {bytes.size(), h};
}

std::string GoldenPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = testing::TempDir() + "/persist_golden." +
                          info->test_suite_name() + "." + info->name();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::filesystem::remove(path);
  return path;
}

void ExpectPin(const std::string& path, const FilePin& want) {
  const FilePin got = PinOf(path);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.digest, want.digest) << "got 0x" << std::hex << got.digest;
}

TEST(PersistGolden, SnapshotBytes) {
  CensusConfig gen;
  gen.num_tuples = 300;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = 5;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = 6;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
  dirty.data.Set(0, 7, Value("a string"));
  dirty.data.Set(1, 7, Value());
  dirty.data.Set(2, 7, Value(2.5));
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> percent(0, 99), pool(0, 3);
  for (TupleId t = 3; t < dirty.data.NumTuples(); ++t) {
    for (AttrId a = 0; a < dirty.data.NumAttrs(); ++a) {
      if (percent(rng) < 2) {
        dirty.data.Set(t, a, Value::Variable(a, pool(rng)));
      }
    }
  }

  Result<Session> session = Session::Open(std::move(dirty.data), dirty.fds);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  RepairRequest req = RepairRequest::AtRelative(0.5);
  req.seed = 3;
  ASSERT_TRUE(session->Repair(req).ok());

  const std::string path = GoldenPath("golden.snap");
  ASSERT_TRUE(session->SaveSnapshot(path).ok());
  ExpectPin(path, {45931, 0x2e27a1445d233caeULL});

  // The pin is only as strong as the sections it covers.
  Result<persist::SnapshotData> saved = persist::ReadSnapshotFile(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_FALSE(saved->warm.covers.set_entries.empty());
  EXPECT_FALSE(saved->warm.covers.seq_entries.empty());
}

TEST(PersistGolden, JournalBytes) {
  persist::JournalHeader header;
  header.fingerprint = 0x0123456789abcdefULL;
  header.base_stamp = 0xfedcba9876543210ULL;
  header.base_version = 7;
  const std::string path = GoldenPath("golden.journal");
  auto writer = persist::JournalWriter::Create(path, header);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  DeltaBatch batch;
  batch.Insert({Value("Erin"), Value(int64_t{-42}), Value()});
  batch.Insert({Value(2.5), Value::Variable(1, 9), Value("")});
  batch.Update(3, 1, Value("Shelbyville"));
  batch.Update(0, 2, Value());
  batch.Update(5, 0, Value(-0.125));
  batch.Update(2, 2, Value::Variable(2, 4));
  batch.Delete(1).Delete(4).Delete(6);
  ASSERT_TRUE((*writer)->AppendBatch(batch).ok());
  writer->reset();

  ExpectPin(path, {217, 0x907de5f12ca3e960ULL});
}

}  // namespace
}  // namespace retrust
