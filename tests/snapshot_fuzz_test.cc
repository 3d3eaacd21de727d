// Seeded mutation fuzzing of the snapshot reader: OpenSnapshot promises a
// Status for any bytes, never a crash. Each iteration mutates a valid
// snapshot (bit flips, truncations, splices, length-field lies) and then
// recomputes the CRC, so the mutation gets past the checksum and reaches
// the parser and the restore path. A file that opens must also survive a
// repair. Run under ASan+UBSan, an out-of-range read anywhere on that path
// fails the test.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/persist/io.h"
#include "src/persist/snapshot.h"

namespace retrust {
namespace {

constexpr int kIterations = 1500;
constexpr size_t kPrefix = 12;  // magic + format version

/// A small session whose Σ has an empty-LHS FD, so the file carries the
/// universe group (pairs disagreeing everywhere) beside ordinary groups,
/// and a warm cover memo.
std::string ValidSnapshot(const std::string& path) {
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  const char* rows[][3] = {{"1", "x", "p"}, {"1", "y", "p"}, {"2", "x", "q"},
                           {"3", "z", "r"}, {"1", "x", "s"}, {"4", "w", "p"},
                           {"2", "y", "q"}, {"5", "v", "t"}};
  for (const auto& row : rows) {
    inst.AddTuple({Value(row[0]), Value(row[1]), Value(row[2])});
  }
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 2});
  sigma.Add(FD{AttrSet{0}, 1});
  Result<Session> session = Session::Open(std::move(inst), std::move(sigma));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  bool has_universe_group = false;
  for (const DiffSetGroup& g : session->context().index().groups()) {
    has_universe_group |= g.diff == AttrSet::Universe(3);
  }
  EXPECT_TRUE(has_universe_group);
  EXPECT_TRUE(session->Repair(RepairRequest::AtRelative(0.5)).ok());
  EXPECT_TRUE(session->SaveSnapshot(path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Applies one random mutation to the payload of `bytes` (the magic,
/// version and CRC slot are left to the other tests).
void Mutate(std::mt19937_64& rng, const std::string& base,
            std::string* bytes) {
  const size_t body = bytes->size() - 4;
  if (body <= kPrefix) return;
  auto pos = [&](size_t lo, size_t hi) {
    return lo + static_cast<size_t>(rng() % (hi - lo));
  };
  switch (rng() % 4) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < flips; ++i) {
        (*bytes)[pos(kPrefix, body)] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    }
    case 1:  // truncation; the 4 bytes after the cut become the CRC slot
      bytes->resize(pos(kPrefix, body) + 4);
      break;
    case 2: {  // splice a span of the original over another position
      const size_t from = pos(kPrefix, base.size() - 4);
      const size_t len = 1 + rng() % 32;
      const size_t to = pos(kPrefix, body);
      std::string span = base.substr(from, len);
      if (rng() % 2 == 0) {
        bytes->replace(to, std::min(span.size(), body - to), span);
      } else {
        bytes->insert(to, span);
      }
      break;
    }
    default: {  // length-field lie: a plausible-looking integer anywhere
      static constexpr uint64_t kLies[] = {
          0,       1,       2,           3,           7,           8,
          63,      64,      65,          255,         1u << 16,    1u << 28,
          0x7fffffffu, 0x80000000u, 0xffffffffu, ~uint64_t{0}};
      const uint64_t lie = kLies[rng() % (sizeof(kLies) / sizeof(kLies[0]))];
      const size_t width = rng() % 2 == 0 ? 4 : 8;
      const size_t at = pos(kPrefix, body);
      for (size_t i = 0; i < width && at + i < body; ++i) {
        (*bytes)[at + i] = static_cast<char>((lie >> (8 * i)) & 0xff);
      }
      break;
    }
  }
}

void RewriteCrc(std::string* bytes) {
  const size_t body = bytes->size() - 4;
  const uint32_t crc = persist::Crc32(bytes->data(), body);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[body + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

TEST(SnapshotFuzz, MutatedSnapshotsAlwaysReturnAStatus) {
  const std::string dir = testing::TempDir() + "/snapshot_fuzz_test";
  std::filesystem::create_directories(dir);
  const std::string base_path = dir + "/base.snap";
  const std::string path = dir + "/mutant.snap";
  const std::string base = ValidSnapshot(base_path);
  ASSERT_GT(base.size(), kPrefix + 4);

  std::mt19937_64 rng(0x5eedf022);
  int opened = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string bytes = base;
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations; ++k) Mutate(rng, base, &bytes);
    RewriteCrc(&bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Result<Session> session = Session::OpenSnapshot(path);
    if (!session.ok()) continue;
    ++opened;
    Result<RepairResponse> repair =
        session->Repair(RepairRequest::AtRelative(0.5));
    (void)repair;  // any Status is fine; reaching this line is the test
  }
  // Some mutations land on fields the restore legitimately ignores (the
  // data version, the cover memo's cached values), so a share of mutants
  // must open — otherwise the repair half of the test never ran.
  EXPECT_GT(opened, 0);
  std::remove(base_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace retrust
