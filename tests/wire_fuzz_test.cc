// Seeded mutation fuzzing of the wire request decoders: ParseJson and the
// per-verb decoders promise a Result/Status for any line, never a crash.
// Each iteration mutates a valid request line (bit flips, truncations,
// splices, number lies, array-length lies) and runs it through what the
// event loop does with a line before any tenant is touched: ParseJson,
// then RepairRequestFromJson (repair and each sweep entry) and
// DeltaBatchFromJson (apply_delta). Run under ASan+UBSan, an out-of-range
// read anywhere on that path fails the test.
//
// Beyond "no crash", two properties are checked on every mutant:
//  - a parsed document re-parses from its own Dump() to the same Dump();
//  - a decoder never reinterprets a number: every integer field it
//    accepts holds exactly the number the line carried.
// Findings are pinned as named regression cases below the fuzz loop.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/wire.h"

namespace retrust::service {
namespace {

constexpr int kIterations = 20000;

Schema DeltaSchema() {
  return Schema({{"Id", AttrType::kInt},
                 {"Score", AttrType::kDouble},
                 {"City", AttrType::kString}});
}

/// Valid request lines for the four verbs the fuzz loop decodes.
std::vector<std::string> Corpus() {
  return {
      R"({"op":"repair","tenant":"hosp","tau":3})",
      R"({"op":"repair","tenant":"hosp","tau_r":0.25,"mode":"best_first",)"
      R"("policy":"anytime","weight":2.5,"upper_bound":10,"seed":42,)"
      R"("budget":1000,"deadline_seconds":1.5,"trace":true,"id":[7,"x"]})",
      R"({"op":"sweep","tenant":"hosp","requests":[{"tau":0},)"
      R"({"tau_r":0.5,"seed":9},{"tau":12,"policy":"greedy"}]})",
      R"({"op":"apply_delta","tenant":"hosp",)"
      R"("inserts":[["1","2.5","Springfield"],["2","-0.5","Shelbyé"]],)"
      R"("updates":[[12,"City","Ogdenville"],[3,1,"7.25"]],)"
      R"("deletes":[3,9]})",
      R"({"op":"stats"})",
      R"({"op":"stats","tenant":"hosp","id":"s-1"})",
  };
}

/// Replaces a number at or after a random position with one that does not
/// fit where it stands (beyond 2^31, 2^53 or 2^63, fractional, negative,
/// denormal, out of double range).
void NumberLie(std::mt19937_64& rng, std::string* line) {
  static const char* const kLies[] = {
      "0",          "-1",         "1.5",        "2147483647",
      "2147483648", "4294967296", "4294967297", "-2147483649",
      "9007199254740993",         "9223372036854775807",
      "18446744073709551616",     "1e300",      "-1e300",
      "1e999",      "5e-324",     "-0",         "1e",
      "--1",        "0.0000001"};
  const size_t start = rng() % line->size();
  size_t b = line->find_first_of("0123456789", start);
  if (b == std::string::npos) return;
  while (b > 0 && ((*line)[b - 1] == '-' || std::isdigit(
                       static_cast<unsigned char>((*line)[b - 1])))) {
    --b;
  }
  size_t e = b;
  while (e < line->size() &&
         (std::isdigit(static_cast<unsigned char>((*line)[e])) ||
          (*line)[e] == '.' || (*line)[e] == '-' || (*line)[e] == 'e')) {
    ++e;
  }
  line->replace(b, e - b, kLies[rng() % std::size(kLies)]);
}

/// Drops or repeats the element that follows a random ',', so arrays and
/// objects come out one longer or shorter than the decoder expects.
void LengthLie(std::mt19937_64& rng, std::string* line) {
  const size_t comma = line->find(',', rng() % line->size());
  if (comma == std::string::npos) return;
  size_t end = line->find_first_of(",]}", comma + 1);
  if (end == std::string::npos) end = line->size();
  std::string element = line->substr(comma, end - comma);
  if (rng() % 2 == 0) {
    line->erase(comma, element.size());
  } else {
    line->insert(comma, element);
  }
}

void Mutate(std::mt19937_64& rng, const std::vector<std::string>& corpus,
            std::string* line) {
  if (line->empty()) return;
  auto pos = [&](size_t size) { return static_cast<size_t>(rng() % size); };
  switch (rng() % 5) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < flips; ++i) {
        (*line)[pos(line->size())] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    }
    case 1:  // truncation
      line->resize(pos(line->size()));
      break;
    case 2: {  // splice a span of any corpus line over or into this one
      const std::string& donor = corpus[pos(corpus.size())];
      const std::string span = donor.substr(pos(donor.size()), 1 + rng() % 24);
      const size_t to = pos(line->size());
      if (rng() % 2 == 0) {
        line->replace(to, std::min(span.size(), line->size() - to), span);
      } else {
        line->insert(to, span);
      }
      break;
    }
    case 3:
      NumberLie(rng, line);
      break;
    default:
      LengthLie(rng, line);
      break;
  }
}

/// True iff `v` is a number that `out` holds exactly.
template <typename Int>
bool SameNumber(const Json& v, Int out) {
  return v.is_number() && v.AsNumber() == static_cast<double>(out);
}

void CheckRepair(const Json& obj, const Result<RepairRequest>& req) {
  if (!req.ok()) return;
  if (const Json* tau = obj.Get("tau")) {
    EXPECT_TRUE(SameNumber(*tau, req->tau)) << obj.Dump();
  }
  if (const Json* budget = obj.Get("budget")) {
    EXPECT_TRUE(SameNumber(*budget, req->budget)) << obj.Dump();
  }
  if (const Json* seed = obj.Get("seed")) {
    EXPECT_TRUE(SameNumber(*seed, req->seed)) << obj.Dump();
  }
}

void CheckDelta(const Json& obj, const Schema& schema,
                const Result<DeltaBatch>& batch) {
  if (!batch.ok()) return;
  if (const Json* updates = obj.Get("updates")) {
    ASSERT_EQ(updates->AsArray().size(), batch->updates.size());
    for (size_t i = 0; i < batch->updates.size(); ++i) {
      const Json::Array& u = updates->AsArray()[i].AsArray();
      EXPECT_TRUE(SameNumber(u[0], batch->updates[i].tuple)) << obj.Dump();
      if (u[1].is_number()) {
        EXPECT_TRUE(SameNumber(u[1], batch->updates[i].attr)) << obj.Dump();
      }
      EXPECT_LT(batch->updates[i].attr, schema.NumAttrs());
    }
  }
  if (const Json* deletes = obj.Get("deletes")) {
    ASSERT_EQ(deletes->AsArray().size(), batch->deletes.size());
    for (size_t i = 0; i < batch->deletes.size(); ++i) {
      EXPECT_TRUE(SameNumber(deletes->AsArray()[i], batch->deletes[i]))
          << obj.Dump();
    }
  }
}

/// What the event loop does with one line, minus the tenant lookups.
/// Returns true when the line decoded into a request.
bool Decode(const std::string& line, const Schema& schema) {
  Result<Json> parsed = ParseJson(line);
  if (!parsed.ok()) return false;
  const std::string dump = parsed->Dump();
  Result<Json> again = ParseJson(dump);
  EXPECT_TRUE(again.ok()) << dump;
  if (again.ok()) {
    EXPECT_EQ(again->Dump(), dump);
  }

  const Json& req = *parsed;
  const Json* op = req.Get("op");
  const std::string verb = op != nullptr ? op->AsString() : "";
  if (verb == "repair") {
    Result<RepairRequest> repair = RepairRequestFromJson(req);
    CheckRepair(req, repair);
    return repair.ok();
  }
  if (verb == "sweep") {
    const Json* requests = req.Get("requests");
    if (requests == nullptr || requests->AsArray().empty()) return false;
    for (const Json& r : requests->AsArray()) {
      Result<RepairRequest> repair = RepairRequestFromJson(r);
      CheckRepair(r, repair);
      if (!repair.ok()) return false;
    }
    return true;
  }
  if (verb == "apply_delta") {
    Result<DeltaBatch> batch = DeltaBatchFromJson(req, schema);
    CheckDelta(req, schema, batch);
    return batch.ok();
  }
  if (verb == "stats") {
    const Json* tenant = req.Get("tenant");
    return tenant == nullptr || tenant->is_string();
  }
  return false;
}

TEST(ServiceWireFuzz, CorpusDecodes) {
  const Schema schema = DeltaSchema();
  for (const std::string& line : Corpus()) {
    EXPECT_TRUE(Decode(line, schema)) << line;
  }
}

TEST(ServiceWireFuzz, MutatedRequestLinesAlwaysReturnAStatus) {
  const Schema schema = DeltaSchema();
  const std::vector<std::string> corpus = Corpus();
  std::mt19937_64 rng(0x3157e5eedULL);
  int decoded = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string line = corpus[rng() % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations; ++k) Mutate(rng, corpus, &line);
    if (Decode(line, schema)) ++decoded;
    if (HasFailure()) {
      ADD_FAILURE() << "mutant " << iter << ": " << line;
      return;
    }
  }
  // Many mutants (digit flips, lies in range, dropped optional members)
  // stay valid; most do not. Both sides must be exercised.
  EXPECT_GT(decoded, kIterations / 20);
  EXPECT_LT(decoded, kIterations - kIterations / 20);
}

// ------------------------------------------------ regression cases

Result<DeltaBatch> DeltaFrom(const std::string& line) {
  Result<Json> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return DeltaBatchFromJson(*parsed, DeltaSchema());
}

Result<RepairRequest> RepairFrom(const std::string& line) {
  Result<Json> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return RepairRequestFromJson(*parsed);
}

TEST(ServiceWireFuzz, TupleIdsBeyondTupleIdRangeAreRejected) {
  // 2^32 used to wrap to tuple 0, so a delete aimed past the relation
  // silently deleted its first row.
  EXPECT_FALSE(DeltaFrom(R"({"deletes":[4294967296]})").ok());
  EXPECT_FALSE(DeltaFrom(R"({"deletes":[2147483648]})").ok());
  EXPECT_FALSE(DeltaFrom(R"({"deletes":[1.5]})").ok());
  EXPECT_FALSE(DeltaFrom(R"({"updates":[[4294967299,"City","x"]]})").ok());
  Result<DeltaBatch> ok = DeltaFrom(R"({"deletes":[2147483647,-1]})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->deletes, (std::vector<TupleId>{2147483647, -1}));
}

TEST(ServiceWireFuzz, AttributeIndicesBeyondIntRangeAreRejected) {
  // 2^32 + 1 used to wrap to attribute 1.
  EXPECT_FALSE(DeltaFrom(R"({"updates":[[0,4294967297,"7"]]})").ok());
  EXPECT_FALSE(DeltaFrom(R"({"updates":[[0,1.5,"7"]]})").ok());
  Result<DeltaBatch> ok = DeltaFrom(R"({"updates":[[0,1,"7"]]})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->updates[0].attr, 1);
}

TEST(ServiceWireFuzz, IntegerFieldsBeyondDoublePrecisionAreRejected) {
  // 1e300 does not fit int64_t; converting it was undefined behavior.
  EXPECT_FALSE(RepairFrom(R"({"tau":1e300})").ok());
  EXPECT_FALSE(RepairFrom(R"({"tau":9223372036854775807})").ok());
  EXPECT_FALSE(RepairFrom(R"({"tau":3,"budget":1e300})").ok());
  EXPECT_FALSE(RepairFrom(R"({"tau":3,"budget":2.5})").ok());
  Result<RepairRequest> ok =
      RepairFrom(R"({"tau":9007199254740992,"budget":7})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->tau, int64_t{1} << 53);
  EXPECT_EQ(ok->budget, 7);
}

TEST(ServiceWireFuzz, SeedMustBeAWholeNumberInRange) {
  // The seed used to be cast from AsInt(): 1.5 became 1 and -1 became
  // 2^64 - 1.
  EXPECT_FALSE(RepairFrom(R"({"tau":3,"seed":1.5})").ok());
  EXPECT_FALSE(RepairFrom(R"({"tau":3,"seed":-1})").ok());
  EXPECT_FALSE(RepairFrom(R"({"tau":3,"seed":"7"})").ok());
  EXPECT_EQ(RepairFrom(R"({"tau":3,"seed":1.5})").status().code(),
            StatusCode::kInvalidArgument);
  Result<RepairRequest> zero = RepairFrom(R"({"tau":3,"seed":0})");
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->seed, 0u);
  Result<RepairRequest> top =
      RepairFrom(R"({"tau":3,"seed":9007199254740992})");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->seed, uint64_t{1} << 53);
}

TEST(ServiceWireFuzz, AsIntIsDefinedForEveryNumber) {
  // Parsed, not literal, so the conversion happens at run time.
  auto as_int = [](const std::string& text) {
    Result<Json> parsed = ParseJson(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return parsed->AsInt();
  };
  EXPECT_EQ(as_int("1e300"), INT64_MAX);
  EXPECT_EQ(as_int("-1e300"), INT64_MIN);
  EXPECT_EQ(as_int("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(as_int("-2.5"), -2);
  EXPECT_EQ(as_int("9007199254740992"), int64_t{1} << 53);
}

// ------------------------------------------------ numbers against stod

/// What the number parser accepted before it read with std::from_chars:
/// std::stod over the whole run, refusing a partial read or a range error.
std::optional<double> StodNumber(const std::string& run) {
  try {
    size_t used = 0;
    const double value = std::stod(run, &used);
    if (used != run.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The exact decimal of k · 2^-1074 (a subnormal for k < 2^52): the digits
/// of k · 5^1074, then "e-1074".
std::string ExactSubnormal(uint32_t k) {
  std::vector<int> digits = {1};  // little-endian base 10
  auto times = [&](uint32_t f) {
    uint64_t carry = 0;
    for (int& d : digits) {
      carry += static_cast<uint64_t>(d) * f;
      d = static_cast<int>(carry % 10);
      carry /= 10;
    }
    for (; carry > 0; carry /= 10) {
      digits.push_back(static_cast<int>(carry % 10));
    }
  };
  for (int i = 0; i < 1074; ++i) times(5);
  times(k);
  std::string out;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    out.push_back(static_cast<char>('0' + *it));
  }
  return out + "e-1074";
}

void ExpectParsesLikeStod(const std::string& run) {
  // A trailing ']' ends the run, as any non-number character does.
  Result<Json> parsed = ParseJson("[" + run + "]");
  const std::optional<double> want = StodNumber(run);
  ASSERT_EQ(parsed.ok(), want.has_value()) << run;
  if (!want.has_value()) return;
  const double got = parsed->AsArray()[0].AsNumber();
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(*want))
      << run;
}

TEST(ServiceWireFuzz, NumbersParseExactlyAsStod) {
  const std::vector<std::string> edges = {
      "0", "-0", "1", "-1", "1.", "-1.", "-.5", "0.5", "00012", "1e", "1e+",
      "1e-", "1e-5", "1E5", "1E+5", "-", "--1", "-+1", "1-", "1+", "1e5.5",
      "1..2", ".", "-.", "-.e1", "9007199254740993", "123456789012345678901",
      "1e+0000000000000000000000005", "-0e-5", "-0.0e400", "0e999999999",
      "0.0e-999999",
      // Overflow: DBL_MAX's neighbours, and far beyond.
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "1e400", "-1e400", "1e999999999",
      // Underflow to zero, the subnormal range and the least normal.
      "1e-400", "1e-999999999", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "4.9406564584124654e-324", "4e-320",
      "-4e-320", "0.1e-307", "1e-308", "1e-307", "2.225073858507201e-308",
      "2.2250738585072011e-308", "2.2250738585072012e-308",
      "2.2250738585072013e-308", "2.2250738585072014e-308",
      "2.2250738585072015e-308",
      // Exact subnormals, which strtod takes without a range error.
      ExactSubnormal(1), "-" + ExactSubnormal(1), ExactSubnormal(2),
      ExactSubnormal(12345), ExactSubnormal((uint32_t{1} << 31) - 1),
      ExactSubnormal(1) + "1",
  };
  for (const std::string& run : edges) ExpectParsesLikeStod(run);

  // Random runs over the number alphabet, led by '-' or a digit as the
  // parser requires, and random mantissas around the subnormal range.
  std::mt19937_64 rng(0xd0b1e5eedULL);
  const std::string alphabet = "0123456789012345678901234567.eE+-";
  for (int iter = 0; iter < 20000; ++iter) {
    std::string run(1, "-0123456789"[rng() % 11]);
    const size_t length = rng() % 12;
    while (run.size() <= length) {
      run.push_back(alphabet[rng() % alphabet.size()]);
    }
    ExpectParsesLikeStod(run);
    const std::string digits = std::to_string(rng() % 100000);
    ExpectParsesLikeStod(digits.substr(0, 1) + "." + digits.substr(1) + "e-" +
                         std::to_string(300 + rng() % 30));
  }
}

}  // namespace
}  // namespace retrust::service
