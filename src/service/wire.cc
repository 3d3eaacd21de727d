#include "src/service/wire.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/relational/csv.h"

namespace retrust::service {

// ------------------------------------------------------------------ Json

const std::string Json::kEmptyString;
const Json::Array Json::kEmptyArray;
const Json::Object Json::kEmptyObject;

const Json* Json::Get(const std::string& key) const {
  const Object* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double n, std::string* out) {
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 9.0e15) {
    char buf[32];
    char* end =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(n)).ptr;
    out->append(buf, end);
  } else if (std::isfinite(n)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", n);
    *out += buf;
  } else {
    *out += "null";  // JSON has no NaN/Inf
  }
}

void DumpTo(const Json& v, std::string* out) {
  switch (v.type()) {
    case Json::Type::kNull: *out += "null"; break;
    case Json::Type::kBool: *out += v.AsBool() ? "true" : "false"; break;
    case Json::Type::kNumber: AppendNumber(v.AsNumber(), out); break;
    case Json::Type::kString: AppendEscaped(v.AsString(), out); break;
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& e : v.AsArray()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(e, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.AsObject()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(key, out);
        out->push_back(':');
        DumpTo(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

// ---------------------------------------------------------------- parser

/// Recursive-descent JSON parser over a string. Depth-limited so hostile
/// input cannot overflow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    Json value;
    Status status = ParseValue(&value, 0);
    if (!status.ok()) return status;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::Error(StatusCode::kInvalidArgument,
                         "json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') return ParseString(out);
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Error(std::string("unexpected character '") + c + "'");
  }

  Status ParseKeyword(Json* out) {
    auto match = [&](const char* kw) {
      size_t n = std::char_traits<char>::length(kw);
      if (text_.compare(pos_, n, kw) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    if (match("true")) {
      *out = Json(true);
      return Status::Ok();
    }
    if (match("false")) {
      *out = Json(false);
      return Status::Ok();
    }
    if (match("null")) {
      *out = Json();
      return Status::Ok();
    }
    return Error("invalid keyword");
  }

  /// Reads the longest run of number characters as one decimal float,
  /// accepting exactly what std::stod accepted over that run.
  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) return Error("malformed number");
    // from_chars keeps every subnormal, where strtod (under std::stod)
    // reports an inexact one as a range error. At or below the least
    // normal, ask strtod itself: the run is a whole decimal float, so it
    // stops where from_chars did.
    if (value != 0.0 &&
        std::fabs(value) <= std::numeric_limits<double>::min()) {
      errno = 0;
      std::strtod(first, nullptr);
      if (errno == ERANGE) return Error("malformed number");
    }
    *out = Json(value);
    return Status::Ok();
  }

  Status ParseString(Json* out) {
    std::string s;
    Status status = ParseRawString(&s);
    if (!status.ok()) return status;
    *out = Json(std::move(s));
    return Status::Ok();
  }

  Status ParseRawString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare in
            // this protocol; a lone surrogate encodes as-is).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(Json* out, int depth) {
    Consume('[');
    Json::Array array;
    SkipWs();
    if (Consume(']')) {
      *out = Json(std::move(array));
      return Status::Ok();
    }
    for (;;) {
      Json element;
      Status status = ParseValue(&element, depth + 1);
      if (!status.ok()) return status;
      array.push_back(std::move(element));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    *out = Json(std::move(array));
    return Status::Ok();
  }

  Status ParseObject(Json* out, int depth) {
    Consume('{');
    Json::Object object;
    SkipWs();
    if (Consume('}')) {
      *out = Json(std::move(object));
      return Status::Ok();
    }
    for (;;) {
      SkipWs();
      std::string key;
      Status status = ParseRawString(&key);
      if (!status.ok()) return status;
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      Json value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      object[std::move(key)] = std::move(value);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    *out = Json(std::move(object));
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

// --------------------------------------------------- wire -> api values

namespace {

Status WireError(const std::string& what) {
  return Status::Error(StatusCode::kInvalidArgument, "wire: " + what);
}

/// 2^53: doubles hold every integer up to it exactly, so it bounds the
/// protocol's counts (see Json).
constexpr int64_t kMaxExactInt = int64_t{1} << 53;

/// Reads `v` as a whole number in [lo, hi]; false for non-numbers,
/// fractions and values outside the range, so a field never holds a
/// number other than the one the line carried.
bool ExactInt(const Json& v, int64_t lo, int64_t hi, int64_t* out) {
  if (!v.is_number()) return false;
  const double n = v.AsNumber();
  if (n != std::floor(n) || n < static_cast<double>(lo) ||
      n > static_cast<double>(hi)) {
    return false;
  }
  *out = static_cast<int64_t>(n);
  return true;
}

bool ExactTupleId(const Json& v, TupleId* out) {
  int64_t id = 0;
  if (!ExactInt(v, std::numeric_limits<TupleId>::min(),
                std::numeric_limits<TupleId>::max(), &id)) {
    return false;
  }
  *out = static_cast<TupleId>(id);
  return true;
}

const char* TerminationName(SearchTermination t) {
  switch (t) {
    case SearchTermination::kCompleted: return "completed";
    case SearchTermination::kVisitBudget: return "visit_budget";
    case SearchTermination::kDeadline: return "deadline";
    case SearchTermination::kCancelled: return "cancelled";
  }
  return "unknown";
}

}  // namespace

Result<RepairRequest> RepairRequestFromJson(const Json& obj) {
  if (!obj.is_object()) return WireError("request must be an object");
  RepairRequest req;
  const Json* tau = obj.Get("tau");
  const Json* tau_r = obj.Get("tau_r");
  if (tau != nullptr) {
    if (!ExactInt(*tau, 0, kMaxExactInt, &req.tau)) {
      return WireError("'tau' must be a non-negative integer");
    }
  } else if (tau_r != nullptr) {
    if (!tau_r->is_number()) return WireError("'tau_r' must be a number");
    req.tau_r = tau_r->AsNumber();
  } else {
    return WireError("repair needs 'tau' or 'tau_r'");
  }
  if (const Json* mode = obj.Get("mode")) {
    if (!mode->is_string()) return WireError("'mode' must be a string");
    if (mode->AsString() == "astar") {
      req.mode = SearchMode::kAStar;
    } else if (mode->AsString() == "best_first") {
      req.mode = SearchMode::kBestFirst;
    } else {
      return WireError("unknown mode '" + mode->AsString() +
                       "' (astar|best_first)");
    }
  }
  if (const Json* policy = obj.Get("policy")) {
    if (!policy->is_string() ||
        !search::ParseSearchPolicy(policy->AsString(), &req.policy)) {
      return WireError("unknown policy (exact|anytime|greedy)");
    }
  }
  if (const Json* weight = obj.Get("weight")) {
    if (!weight->is_number() || weight->AsNumber() < 1.0) {
      return WireError("'weight' must be a number >= 1");
    }
    req.weight = weight->AsNumber();
  }
  if (const Json* ub = obj.Get("upper_bound")) {
    if (!ub->is_number() || ub->AsNumber() < 0.0) {
      return WireError("'upper_bound' must be a non-negative number");
    }
    req.upper_bound = ub->AsNumber();
  }
  if (const Json* seed = obj.Get("seed")) {
    int64_t value = 0;
    if (!ExactInt(*seed, 0, kMaxExactInt, &value)) {
      return WireError("'seed' must be a non-negative integer");
    }
    req.seed = static_cast<uint64_t>(value);
  }
  if (const Json* budget = obj.Get("budget")) {
    if (!ExactInt(*budget, 0, kMaxExactInt, &req.budget)) {
      return WireError("'budget' must be a non-negative integer");
    }
  }
  if (const Json* deadline = obj.Get("deadline_seconds")) {
    if (!deadline->is_number()) {
      return WireError("'deadline_seconds' must be a number");
    }
    req.deadline_seconds = deadline->AsNumber();
  }
  if (const Json* trace = obj.Get("trace")) {
    if (!trace->is_bool()) return WireError("'trace' must be a boolean");
    if (trace->AsBool()) req.trace = std::make_shared<obs::RequestTrace>();
  }
  return req;
}

Result<DeltaBatch> DeltaBatchFromJson(const Json& obj, const Schema& schema) {
  if (!obj.is_object()) return WireError("apply_delta must be an object");
  DeltaBatch batch;
  const int num_attrs = schema.NumAttrs();

  auto resolve_attr = [&](const Json& v, AttrId* out) -> Status {
    if (v.is_number()) {
      int64_t index = 0;
      if (!ExactInt(v, 0, num_attrs - 1, &index)) {
        return WireError("attribute out of range");
      }
      *out = static_cast<AttrId>(index);
    } else if (v.is_string()) {
      *out = -1;
      for (AttrId a = 0; a < num_attrs; ++a) {
        if (schema.name(a) == v.AsString()) {
          *out = a;
          break;
        }
      }
      if (*out < 0) return WireError("unknown attribute '" + v.AsString() + "'");
    } else {
      return WireError("attribute must be a name or an index");
    }
    if (*out < 0 || *out >= num_attrs) return WireError("attribute out of range");
    return Status::Ok();
  };
  auto parse_cell = [&](const std::string& text, AttrId attr,
                        Value* out) -> Status {
    if (!TryParseCsvField(text, schema.type(attr), out)) {
      return WireError("'" + text + "' is not a valid " + schema.name(attr) +
                       " value");
    }
    return Status::Ok();
  };

  if (const Json* inserts = obj.Get("inserts")) {
    if (!inserts->is_array()) return WireError("'inserts' must be an array");
    for (const Json& row : inserts->AsArray()) {
      if (!row.is_array() ||
          row.AsArray().size() != static_cast<size_t>(num_attrs)) {
        return WireError("each insert must be an array of " +
                         std::to_string(num_attrs) + " values");
      }
      Tuple t(num_attrs);
      for (AttrId a = 0; a < num_attrs; ++a) {
        const Json& cell = row.AsArray()[static_cast<size_t>(a)];
        if (!cell.is_string()) {
          return WireError("insert values must be strings (parsed per "
                           "column type)");
        }
        Status status = parse_cell(cell.AsString(), a, &t[a]);
        if (!status.ok()) return status;
      }
      batch.Insert(std::move(t));
    }
  }
  if (const Json* updates = obj.Get("updates")) {
    if (!updates->is_array()) return WireError("'updates' must be an array");
    for (const Json& u : updates->AsArray()) {
      TupleId tuple = 0;
      if (!u.is_array() || u.AsArray().size() != 3 ||
          !ExactTupleId(u.AsArray()[0], &tuple) ||
          !u.AsArray()[2].is_string()) {
        return WireError(
            "each update must be [tuple_id, attr, \"value\"]");
      }
      AttrId attr = -1;
      Status status = resolve_attr(u.AsArray()[1], &attr);
      if (!status.ok()) return status;
      Value value;
      status = parse_cell(u.AsArray()[2].AsString(), attr, &value);
      if (!status.ok()) return status;
      batch.Update(tuple, attr, std::move(value));
    }
  }
  if (const Json* deletes = obj.Get("deletes")) {
    if (!deletes->is_array()) return WireError("'deletes' must be an array");
    for (const Json& d : deletes->AsArray()) {
      TupleId tuple = 0;
      if (!ExactTupleId(d, &tuple)) {
        return WireError("delete ids must be integer tuple ids");
      }
      batch.Delete(tuple);
    }
  }
  if (batch.Empty()) {
    return WireError("apply_delta needs 'inserts', 'updates' or 'deletes'");
  }
  return batch;
}

// --------------------------------------------------- api values -> wire

Json ErrorJson(const Status& status) {
  Json::Object obj;
  obj["ok"] = Json(false);
  obj["error"] = Json(StatusCodeName(status.code()));
  obj["message"] = Json(status.message());
  return Json(std::move(obj));
}

Json ToJson(const RepairResponse& response, const Schema& schema) {
  Json::Object obj;
  obj["ok"] = Json(true);
  obj["tau"] = Json(response.tau);
  obj["distc"] = Json(response.repair.distc);
  obj["delta_p"] = Json(response.repair.delta_p);
  obj["seconds"] = Json(response.seconds);
  obj["termination"] = Json(TerminationName(response.termination));
  Json::Array sigma;
  for (const FD& fd : response.repair.sigma_prime.fds()) {
    sigma.push_back(Json(fd.ToString(schema)));
  }
  obj["sigma_prime"] = Json(std::move(sigma));
  Json::Array cells;
  cells.reserve(response.repair.changed_cells.size());
  for (const CellRef& c : response.repair.changed_cells) {
    Json::Array cell;
    cell.push_back(Json(static_cast<int64_t>(c.tuple)));
    cell.push_back(Json(schema.name(c.attr)));
    cells.push_back(Json(std::move(cell)));
  }
  obj["cell_changes"] = Json(response.repair.changed_cells.size());
  obj["changed_cells"] = Json(std::move(cells));
  return Json(std::move(obj));
}

Json ToJson(const ApplyStats& stats) {
  Json::Object obj;
  obj["ok"] = Json(true);
  obj["tuples_inserted"] = Json(stats.tuples_inserted);
  obj["tuples_updated"] = Json(stats.tuples_updated);
  obj["tuples_deleted"] = Json(stats.tuples_deleted);
  obj["num_tuples"] = Json(stats.num_tuples);
  obj["data_version"] = Json(stats.data_version);
  obj["groups_preserved"] = Json(stats.groups_preserved);
  obj["groups_changed"] = Json(stats.groups_changed);
  obj["reuse_ratio"] = Json(stats.reuse_ratio());
  obj["seconds"] = Json(stats.seconds);
  return Json(std::move(obj));
}

Json ToJson(const ServerStats& stats) {
  Json::Object obj;
  obj["ok"] = Json(true);
  obj["queue_depth"] = Json(stats.queue_depth);
  obj["in_flight"] = Json(stats.in_flight);
  obj["workers"] = Json(stats.workers);
  obj["submitted"] = Json(stats.submitted);
  obj["completed"] = Json(stats.completed);
  obj["cancelled"] = Json(stats.cancelled);
  obj["expired_in_queue"] = Json(stats.expired_in_queue);
  obj["rejected_queue_full"] = Json(stats.rejected_queue_full);
  obj["rejected_tenant_cap"] = Json(stats.rejected_tenant_cap);
  obj["rejected_deadline"] = Json(stats.rejected_deadline);
  obj["rejected_quota"] = Json(stats.rejected_quota);
  obj["rejected"] = Json(stats.rejected());
  obj["p50_latency_seconds"] = Json(stats.p50_latency_seconds);
  obj["p99_latency_seconds"] = Json(stats.p99_latency_seconds);
  obj["p50_queue_wait_seconds"] = Json(stats.p50_queue_wait_seconds);
  obj["p99_queue_wait_seconds"] = Json(stats.p99_queue_wait_seconds);
  obj["p50_service_seconds"] = Json(stats.p50_service_seconds);
  obj["p99_service_seconds"] = Json(stats.p99_service_seconds);
  obj["search_expansions"] = Json(static_cast<int64_t>(stats.search_expansions));
  obj["search_lb_prunes"] = Json(static_cast<int64_t>(stats.search_lb_prunes));
  obj["search_incumbent_improvements"] =
      Json(static_cast<int64_t>(stats.search_incumbent_improvements));
  return Json(std::move(obj));
}

Json ToJson(const TenantStats& stats) {
  Json::Object obj;
  obj["ok"] = Json(true);
  obj["tenant"] = Json(stats.name);
  obj["loaded"] = Json(stats.loaded);
  obj["queued"] = Json(stats.queued);
  obj["executing"] = Json(stats.executing);
  obj["completed"] = Json(stats.completed);
  if (stats.loaded) {
    obj["data_version"] = Json(stats.data_version);
    obj["root_delta_p"] = Json(stats.root_delta_p);
    obj["num_tuples"] = Json(stats.num_tuples);
    obj["bytes_estimate"] = Json(stats.bytes_estimate);
  }
  return Json(std::move(obj));
}

Json ToJson(const obs::TraceSpan& span) {
  Json::Object obj;
  obj["name"] = Json(span.name());
  obj["seconds"] = Json(span.seconds());
  if (span.count() != 1) obj["count"] = Json(span.count());
  if (!span.children().empty()) {
    Json::Array spans;
    spans.reserve(span.children().size());
    for (const auto& child : span.children()) spans.push_back(ToJson(*child));
    obj["spans"] = Json(std::move(spans));
  }
  return Json(std::move(obj));
}

Json ToJson(const obs::FlightRecord& record) {
  Json::Object obj;
  obj["id"] = Json(record.id);
  obj["tenant"] = Json(record.tenant);
  obj["verb"] = Json(record.verb);
  obj["status"] = Json(record.status);
  obj["queue_wait_seconds"] = Json(record.queue_wait_seconds);
  obj["service_seconds"] = Json(record.service_seconds);
  obj["total_seconds"] = Json(record.total_seconds);
  obj["search_states_visited"] = Json(record.search_states_visited);
  obj["search_expansions"] = Json(record.search_expansions);
  obj["traced"] = Json(record.traced);
  return Json(std::move(obj));
}

}  // namespace retrust::service
