// Seeded mutation fuzzing of the CSV reader: ReadCsv promises an Instance
// or a std::runtime_error for any input, and Session::OpenCsv a Status,
// never a crash or another exception type. Each iteration mutates a valid
// CSV document (bit flips, truncations, splices, quote damage, arity
// damage) and runs it through both. Run under ASan+UBSan, an
// out-of-range read anywhere on that path fails the test.
//
// Beyond "no crash", a parsed mutant must be well-formed: every cell
// holds its column's inferred type (or NULL). Findings are pinned as
// named regression cases below the fuzz loop.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/relational/csv.h"

namespace retrust {
namespace {

constexpr int kIterations = 3000;

const std::vector<std::string> kFds = {"Zip -> City", "Name -> Score"};

/// Valid documents: quoted fields with embedded commas, doubled quotes and
/// newlines, CRLF line ends, blank lines, empty (NULL) cells, and int,
/// double and string columns.
std::vector<std::string> Corpus() {
  return {
      "Id,Name,Score,City,Zip\n"
      "1,Ann,2.5,Springfield,11111\n"
      "2,\"Bob, Jr.\",-0.5,Shelbyville,22222\n"
      "3,\"Cy \"\"the\"\" Guy\",1e3,\"Ogden\nville\",11111\n"
      "4,Dee,,Springfield,\n",

      "Id,Name,Score,City,Zip\r\n"
      "10,Eve,3,Capital City,33333\r\n"
      "\r\n"
      "11,\"\",4.25,\"North, Haverbrook\",33333\r\n"
      "12,Fay,0.0001,Capital City,44444\r\n",

      "Zip,City,Name,Score\n"
      "55555,Brockway,Gus,9\n"
      "55555,\"Brock\"\"way\",Hal,9.5\n"
      "\n"
      "66666,Cypress Creek,\"I,\nJ\",-7\n",

      "Name,Zip,City,Score,Note\n"
      "Kim,77777,\"Wiggum, East\",12,\"a \"\"quoted\"\" note\"\n"
      "Lou,77777,Wiggum,12,plain\n"
      "Moe,,\"\",,\n",
  };
}

/// Deletes, doubles or inserts a quote character.
void QuoteDamage(std::mt19937_64& rng, std::string* doc) {
  const size_t quote = doc->find('"', rng() % doc->size());
  switch (rng() % 3) {
    case 0:
      if (quote != std::string::npos) doc->erase(quote, 1);
      break;
    case 1:
      if (quote != std::string::npos) doc->insert(quote, 1, '"');
      break;
    default:
      doc->insert(rng() % doc->size(), 1, '"');
      break;
  }
}

/// Drops or repeats a separator, or breaks a record in two, so a row
/// comes out with a different arity than its header.
void ArityDamage(std::mt19937_64& rng, std::string* doc) {
  const size_t at = doc->find_first_of(",\n", rng() % doc->size());
  if (at == std::string::npos) return;
  switch (rng() % 3) {
    case 0:
      doc->erase(at, 1);
      break;
    case 1:
      doc->insert(at, 1, (*doc)[at]);
      break;
    default:
      doc->insert(at, 1, (*doc)[at] == ',' ? '\n' : ',');
      break;
  }
}

void Mutate(std::mt19937_64& rng, const std::vector<std::string>& corpus,
            std::string* doc) {
  if (doc->empty()) return;
  auto pos = [&](size_t size) { return static_cast<size_t>(rng() % size); };
  switch (rng() % 5) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < flips; ++i) {
        (*doc)[pos(doc->size())] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    }
    case 1:  // truncation
      doc->resize(pos(doc->size()));
      break;
    case 2: {  // splice a span of any corpus document over or into this one
      const std::string& donor = corpus[pos(corpus.size())];
      const std::string span = donor.substr(pos(donor.size()), 1 + rng() % 40);
      const size_t to = pos(doc->size());
      if (rng() % 2 == 0) {
        doc->replace(to, std::min(span.size(), doc->size() - to), span);
      } else {
        doc->insert(to, span);
      }
      break;
    }
    case 3:
      QuoteDamage(rng, doc);
      break;
    default:
      ArityDamage(rng, doc);
      break;
  }
}

/// Every cell holds its column's inferred type, or NULL.
void ExpectWellFormed(const Instance& inst) {
  const Schema& schema = inst.schema();
  for (TupleId t = 0; t < inst.NumTuples(); ++t) {
    for (AttrId a = 0; a < schema.NumAttrs(); ++a) {
      const Value::Kind kind = inst.At(t, a).kind();
      if (kind == Value::Kind::kNull) continue;
      const Value::Kind want = schema.type(a) == AttrType::kInt
                                   ? Value::Kind::kInt
                               : schema.type(a) == AttrType::kDouble
                                   ? Value::Kind::kDouble
                                   : Value::Kind::kString;
      EXPECT_EQ(kind, want) << "row " << t << " col " << a;
    }
  }
}

/// ReadCsv on `doc`: true when it parsed, false when it threw
/// std::runtime_error. Any other exception fails the test.
bool Read(const std::string& doc) {
  std::istringstream in(doc);
  try {
    ExpectWellFormed(ReadCsv(in));
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "ReadCsv threw a non-runtime_error: " << e.what();
    return false;
  }
}

/// Session::OpenCsv on `doc` written to `path`: must return, never throw.
bool Open(const std::string& doc, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc;
  }
  Result<Session> session = Session::OpenCsv(path, kFds);
  return session.ok();
}

/// A file per test and process, so tests running in parallel (ctest -j
/// starts each in its own process) never share one.
std::string TempPath() {
  return ::testing::TempDir() + "retrust_csv_fuzz_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(getpid()) + ".csv";
}

TEST(CsvFuzz, CorpusParsesAndOpens) {
  const std::string path = TempPath();
  for (const std::string& doc : Corpus()) {
    EXPECT_TRUE(Read(doc)) << doc;
    EXPECT_TRUE(Open(doc, path)) << doc;
  }
  std::remove(path.c_str());
}

TEST(CsvFuzz, MutatedDocumentsParseOrThrowRuntimeError) {
  const std::vector<std::string> corpus = Corpus();
  const std::string path = TempPath();
  std::mt19937_64 rng(0xc5f0fa22ULL);
  int parsed = 0;
  int opened = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string doc = corpus[rng() % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations; ++k) Mutate(rng, corpus, &doc);
    const bool read = Read(doc);
    const bool open = Open(doc, path);
    parsed += read;
    opened += open;
    // OpenCsv reads the same bytes: it fails wherever ReadCsv does.
    if (!read) {
      EXPECT_FALSE(open);
    }
    if (HasFailure()) {
      ADD_FAILURE() << "mutant " << iter << ":\n" << doc;
      break;
    }
  }
  std::remove(path.c_str());
  // Many mutants (flipped letters, dropped quotes around plain text) stay
  // valid; many do not. Both sides must be exercised.
  EXPECT_GT(parsed, kIterations / 20);
  EXPECT_LT(parsed, kIterations - kIterations / 20);
  EXPECT_GT(opened, 0);
}

// ------------------------------------------------ regression cases

TEST(CsvFuzz, RepeatedHeaderNameIsARuntimeError) {
  // The schema's invalid_argument used to escape ReadCsv, whose contract
  // is runtime_error for malformed input.
  EXPECT_FALSE(Read("Zip,City,Zip\n1,a,2\n"));
  const std::string path = TempPath();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "Zip,City,Zip\n1,a,2\n";
  }
  Result<Session> session = Session::OpenCsv(path, kFds);
  std::remove(path.c_str());
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kIoError);
}

TEST(CsvFuzz, HeaderWiderThanTheSchemaCapIsARuntimeError) {
  std::string doc;
  for (int a = 0; a <= kMaxAttrs; ++a) {
    if (a > 0) doc += ',';
    doc += 'C';
    doc += std::to_string(a);
  }
  doc += '\n';
  EXPECT_FALSE(Read(doc));
}

}  // namespace
}  // namespace retrust
