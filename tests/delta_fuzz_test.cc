// Seeded mutation fuzzing of the delta path: Session::Apply and journal
// replay promise a Status for any batch, never a crash and never a session
// that disagrees with its own data. Two loops, each at a fixed budget:
//  - mutated DeltaBatches (tuple-id, attribute, arity and value lies,
//    variables of every shape) through Session::Apply;
//  - mutated journal records, re-framed and re-CRC'd so they get past the
//    checksum and reach DecodeDeltaBatch, through ReadJournalFile and
//    ReplayJournal onto the restored base snapshot.
// After every accepted batch the session must still answer like a fresh
// Session::Open over a copy of its instance(): same root δP and the same
// search at every τr of a grid. That exercises the delta path's
// index patch and evaluator rebuild end to end. Run under ASan+UBSan, an
// out-of-range read anywhere on those paths fails the test.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/persist/io.h"
#include "src/persist/journal.h"

namespace retrust {
namespace {

constexpr int kBatchIterations = 1000;
constexpr int kJournalIterations = 600;
constexpr int kAttrs = 3;
constexpr int32_t kIntMax = std::numeric_limits<int32_t>::max();
constexpr int32_t kIntMin = std::numeric_limits<int32_t>::min();

FDSet FuzzSigma() {
  // An empty-LHS FD beside an ordinary one, as in the snapshot fuzz test.
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 2});
  sigma.Add(FD{AttrSet{0}, 1});
  return sigma;
}

Value RandomConstant(std::mt19937_64& rng) {
  static const char* const kWords[] = {"a", "b", "c", "x", "y"};
  switch (rng() % 4) {
    case 0:
      return Value(kWords[rng() % std::size(kWords)]);
    case 1:
      return Value(static_cast<int64_t>(rng() % 3));
    case 2:
      return Value(0.5 * static_cast<double>(rng() % 3));
    default:
      return Value::Null();
  }
}

/// A value for column `a`: mostly constants, sometimes a variable of that
/// column, sometimes a lie (wrong column, negative or overflowing index).
Value RandomValue(std::mt19937_64& rng, AttrId a) {
  static const int32_t kIndexLies[] = {-5, -1, kIntMax, kIntMin, kIntMax - 1};
  static const AttrId kAttrLies[] = {-1, kAttrs, 63, 64, kIntMax};
  switch (rng() % 8) {
    case 0:
      return Value::Variable(a, static_cast<int32_t>(rng() % 4));
    case 1:
      return Value::Variable(a, kIndexLies[rng() % std::size(kIndexLies)]);
    case 2:
      return Value::Variable(kAttrLies[rng() % std::size(kAttrLies)],
                             static_cast<int32_t>(rng() % 4));
    default:
      return RandomConstant(rng);
  }
}

TupleId RandomTupleId(std::mt19937_64& rng, int n) {
  static const TupleId kLies[] = {-1, kIntMax, kIntMin};
  if (rng() % 10 == 0) {
    const TupleId lie = kLies[rng() % std::size(kLies)];
    return rng() % 2 == 0 ? lie : static_cast<TupleId>(n);
  }
  return n == 0 ? 0 : static_cast<TupleId>(rng() % n);
}

/// A batch against an n-row instance. Most entries are well-formed; the
/// rest carry the lies above, an arity off by one, or a repeated delete.
DeltaBatch MutatedBatch(std::mt19937_64& rng, int n) {
  DeltaBatch batch;
  const int inserts = static_cast<int>(rng() % 3);
  for (int i = 0; i < inserts; ++i) {
    int arity = kAttrs;
    if (rng() % 16 == 0) arity += rng() % 2 == 0 ? 1 : -1;
    Tuple t;
    for (int a = 0; a < arity; ++a) t.push_back(RandomValue(rng, a));
    batch.Insert(std::move(t));
  }
  const int updates = static_cast<int>(rng() % 3);
  for (int i = 0; i < updates; ++i) {
    AttrId a = static_cast<AttrId>(rng() % kAttrs);
    if (rng() % 16 == 0) a = rng() % 2 == 0 ? -1 : kAttrs;
    batch.Update(RandomTupleId(rng, n), a, RandomValue(rng, a));
  }
  // Deletes only when the relation would not run dry.
  if (n > 6) {
    const int deletes = static_cast<int>(rng() % 3);
    for (int i = 0; i < deletes; ++i) batch.Delete(RandomTupleId(rng, n));
    if (!batch.deletes.empty() && rng() % 16 == 0) {
      batch.Delete(batch.deletes.front());
    }
  }
  return batch;
}

Instance BaseInstance() {
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  const char* rows[][kAttrs] = {{"a", "x", "p"}, {"a", "y", "p"},
                                {"b", "x", "q"}, {"c", "y", "q"},
                                {"b", "x", "p"}, {"a", "x", "r"},
                                {"c", "z", "p"}, {"b", "y", "q"}};
  for (const auto& row : rows) {
    inst.AddTuple({Value(row[0]), Value(row[1]), Value(row[2])});
  }
  return inst;
}

/// The session answers like a fresh Session::Open over a copy of its data.
void ExpectMatchesFreshOpen(const Session& session, const std::string& label) {
  Result<Session> fresh =
      Session::Open(session.instance(), session.context().sigma());
  ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status().ToString();
  ASSERT_EQ(session.RootDeltaP(), fresh->RootDeltaP()) << label;
  for (double tau_r : {0.0, 0.25, 0.5, 1.0}) {
    const RepairRequest req = RepairRequest::AtRelative(tau_r);
    Result<SearchProbe> got = session.Search(req);
    Result<SearchProbe> want = fresh->Search(req);
    ASSERT_EQ(got.ok(), want.ok()) << label << " tau_r " << tau_r;
    if (!got.ok()) continue;
    const ModifyFdsResult& g = got->result;
    const ModifyFdsResult& w = want->result;
    EXPECT_EQ(got->tau, want->tau) << label << " tau_r " << tau_r;
    EXPECT_EQ(g.stats.states_visited, w.stats.states_visited) << label;
    ASSERT_EQ(g.repair.has_value(), w.repair.has_value()) << label;
    if (!g.repair.has_value()) continue;
    EXPECT_EQ(g.repair->state.ext, w.repair->state.ext) << label;
    EXPECT_EQ(g.repair->distc, w.repair->distc) << label;
    EXPECT_EQ(g.repair->delta_p, w.repair->delta_p) << label;
  }
}

TEST(DeltaFuzz, MutatedBatchesApplyOrReturnAStatus) {
  Result<Session> session = Session::Open(BaseInstance(), FuzzSigma());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::mt19937_64 rng(0xde17af22);
  int applied = 0;
  int rejected = 0;
  for (int iter = 0; iter < kBatchIterations; ++iter) {
    const std::string before = session->instance().ToTable();
    const uint64_t version = session->DataVersion();
    DeltaBatch batch = MutatedBatch(rng, session->instance().NumTuples());
    Result<ApplyStats> stats = session->Apply(batch);
    const std::string label = "iteration " + std::to_string(iter);
    if (!stats.ok()) {
      ++rejected;
      // Refused before anything mutated.
      EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument) << label;
      EXPECT_EQ(session->instance().ToTable(), before) << label;
      EXPECT_EQ(session->DataVersion(), version) << label;
      continue;
    }
    ++applied;
    EXPECT_EQ(session->data().Decode().ToTable(),
              session->instance().ToTable())
        << label;
    ExpectMatchesFreshOpen(*session, label);
    if (testing::Test::HasFatalFailure()) return;
  }
  // Both halves of the loop must have run.
  EXPECT_GT(applied, kBatchIterations / 4);
  EXPECT_GT(rejected, kBatchIterations / 8);
}

// --- Journal records -------------------------------------------------------

constexpr size_t kJournalPrefix = 12 + 24;  // magic, version, header

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// Splits a journal's records into their payloads.
std::vector<std::string> Payloads(const std::string& bytes) {
  std::vector<std::string> out;
  size_t pos = kJournalPrefix;
  while (pos + 4 <= bytes.size()) {
    const uint32_t len = GetU32(bytes, pos);
    out.push_back(bytes.substr(pos + 4, len));
    pos += 4 + len + 4;
  }
  return out;
}

/// Re-frames payloads behind `prefix`: a fresh length and CRC per record.
std::string Frame(const std::string& prefix,
                  const std::vector<std::string>& payloads) {
  std::string out = prefix;
  for (const std::string& p : payloads) {
    PutU32(&out, static_cast<uint32_t>(p.size()));
    out += p;
    PutU32(&out, persist::Crc32(p.data(), p.size()));
  }
  return out;
}

/// One random mutation of `payload`: bit flips, truncation, a splice from
/// another record, an integer lie over 4 or 8 bytes, or a well-framed
/// record of a MutatedBatch (so decodable lies reach Apply as often as
/// byte damage reaches the decoder).
void MutatePayload(std::mt19937_64& rng, const std::vector<std::string>& all,
                   int num_tuples, std::string* payload) {
  if (payload->empty()) return;
  auto pos = [&] { return static_cast<size_t>(rng() % payload->size()); };
  switch (rng() % 5) {
    case 4:
      *payload = persist::EncodeDeltaBatch(MutatedBatch(rng, num_tuples));
      break;
    case 0: {
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < flips; ++i) {
        (*payload)[pos()] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    }
    case 1:
      payload->resize(pos());
      break;
    case 2: {
      const std::string& other = all[rng() % all.size()];
      if (other.empty()) break;
      const size_t from = rng() % other.size();
      const std::string span = other.substr(from, 1 + rng() % 24);
      payload->insert(pos(), span);
      break;
    }
    default: {
      static constexpr uint64_t kLies[] = {
          0,           1,           2,          3,           4,
          7,           8,           255,        0x7fffffffu, 0x80000000u,
          0xfffffffbu, 0xffffffffu, 1u << 28,   ~uint64_t{0}};
      const uint64_t lie = kLies[rng() % std::size(kLies)];
      const size_t width = rng() % 2 == 0 ? 4 : 8;
      const size_t at = pos();
      for (size_t i = 0; i < width && at + i < payload->size(); ++i) {
        (*payload)[at + i] = static_cast<char>((lie >> (8 * i)) & 0xff);
      }
      break;
    }
  }
}

TEST(DeltaFuzz, MutatedJournalRecordsReplayOrReturnAStatus) {
  const std::string dir = testing::TempDir() + "/delta_fuzz_test";
  std::filesystem::create_directories(dir);
  const std::string base_path = dir + "/base.snap";
  const std::string journal_path = dir + "/base.journal";
  const std::string mutant_path = dir + "/mutant.journal";

  // Base snapshot plus a journal of well-formed batches, variables included.
  const int base_tuples = BaseInstance().NumTuples();
  {
    Result<Session> session = Session::Open(BaseInstance(), FuzzSigma());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->SaveSnapshot(base_path).ok());
    ASSERT_TRUE(session->EnableJournal(journal_path).ok());
    DeltaBatch first;
    first.Insert({Value("a"), Value::Variable(1, 0), Value("q")})
        .Update(3, 0, Value::Variable(0, 2))
        .Delete(5);
    DeltaBatch second;
    second.Insert({Value(int64_t{1}), Value(0.5), Value::Null()})
        .Insert({Value("b"), Value("x"), Value::Variable(2, 1)})
        .Update(0, 2, Value("r"));
    DeltaBatch third;
    third.Update(1, 1, Value::Variable(1, 3)).Delete(0).Delete(2);
    for (const DeltaBatch* batch : {&first, &second, &third}) {
      ASSERT_TRUE(session->Apply(*batch).ok());
    }
  }
  const std::string journal = Slurp(journal_path);
  ASSERT_GT(journal.size(), kJournalPrefix);
  const std::string prefix = journal.substr(0, kJournalPrefix);
  const std::vector<std::string> payloads = Payloads(journal);
  ASSERT_EQ(payloads.size(), 3u);
  ASSERT_EQ(Frame(prefix, payloads), journal);

  std::mt19937_64 rng(0x10c4ed22);
  int replayed = 0;
  int refused = 0;
  int batches_applied = 0;
  for (int iter = 0; iter < kJournalIterations; ++iter) {
    std::vector<std::string> mutant = payloads;
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations; ++k) {
      std::string& record = mutant[rng() % mutant.size()];
      MutatePayload(rng, payloads, base_tuples, &record);
    }
    {
      const std::string bytes = Frame(prefix, mutant);
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const std::string label = "iteration " + std::to_string(iter);
    Result<persist::JournalContents> read =
        persist::ReadJournalFile(mutant_path);
    Result<Session> session = Session::OpenSnapshot(base_path);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const uint64_t base_version = session->DataVersion();
    Result<int> replay = session->ReplayJournal(mutant_path);
    batches_applied +=
        static_cast<int>(session->DataVersion() - base_version);
    // A journal that reads must replay up to its first refused batch; one
    // that does not read must be refused before any batch applies.
    if (!read.ok()) {
      ASSERT_FALSE(replay.ok()) << label;
      EXPECT_EQ(replay.status().code(), read.status().code()) << label;
      EXPECT_EQ(session->DataVersion(), base_version) << label;
    } else if (!replay.ok()) {
      EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument)
          << label;
    }
    if (replay.ok()) {
      ++replayed;
    } else {
      ++refused;
    }
    ExpectMatchesFreshOpen(*session, label);
    if (testing::Test::HasFatalFailure()) return;
  }
  // Whole replays, refusals, and batches applied before a refusal all ran.
  EXPECT_GT(replayed, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(batches_applied, 3 * replayed);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace retrust
