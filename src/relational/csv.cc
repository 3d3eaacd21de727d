#include "src/relational/csv.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/string_util.h"

namespace retrust {
namespace {

// Parses one CSV record (handles quoted fields, embedded separators and
// doubled quotes). Returns false on EOF with no data.
bool ReadRecord(std::istream& in, std::vector<std::string>* fields) {
  fields->clear();
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int c;
  while ((c = in.get()) != EOF) {
    any = true;
    char ch = static_cast<char>(c);
    if (in_quotes) {
      if (ch == '"') {
        if (in.peek() == '"') {
          field += '"';
          in.get();
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      fields->push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      break;
    } else if (ch == '\r') {
      // swallow; \r\n handled by the \n branch next iteration
    } else {
      field += ch;
    }
  }
  if (!any) return false;
  fields->push_back(std::move(field));
  return true;
}

std::string EscapeField(const std::string& s) {
  bool needs_quote = s.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

// Per-column type-inference accumulator: int64 if every non-empty field
// parses as int64; else double; else string. A column with no values at
// all is string.
struct ColumnInference {
  bool all_int = true;
  bool all_double = true;
  bool any_value = false;

  void Observe(const std::string& field) {
    if (field.empty()) return;
    any_value = true;
    int64_t i;
    double d;
    if (!ParseInt64(field, &i)) all_int = false;
    if (!ParseDouble(field, &d)) all_double = false;
  }

  AttrType Resolve() const {
    if (!any_value) return AttrType::kString;
    if (all_int) return AttrType::kInt;
    if (all_double) return AttrType::kDouble;
    return AttrType::kString;
  }
};

// One cell under a resolved column type. A non-conforming field throws:
// unreachable when inference and parsing saw the same rows, but
// ReadCsvFile's two passes re-open the file — a row appended in between
// must error, not silently coerce to 0.
Value ParseField(const std::string& field, AttrType type) {
  Value out;
  if (!TryParseCsvField(field, type, &out)) {
    throw std::runtime_error("csv: field '" + field +
                             "' does not parse as the inferred column "
                             "type (file changed between passes?)");
  }
  return out;
}

// A header the schema rejects (a repeated name, more than kMaxAttrs
// columns) is malformed input like any other: it throws runtime_error.
Schema SchemaFrom(const std::vector<std::string>& header,
                  const std::vector<ColumnInference>& cols) {
  std::vector<Attribute> attrs(header.size());
  for (size_t a = 0; a < header.size(); ++a) {
    attrs[a] = {header[a], cols[a].Resolve()};
  }
  try {
    return Schema(std::move(attrs));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("csv: bad header: ") + e.what());
  }
}

}  // namespace

bool TryParseCsvField(const std::string& field, AttrType type, Value* out) {
  if (field.empty()) {
    *out = Value::Null();
    return true;
  }
  if (type == AttrType::kInt) {
    int64_t v = 0;
    if (!ParseInt64(field, &v)) return false;
    *out = Value(v);
    return true;
  }
  if (type == AttrType::kDouble) {
    double v = 0;
    if (!ParseDouble(field, &v)) return false;
    *out = Value(v);
    return true;
  }
  *out = Value(field);
  return true;
}

CsvReader::CsvReader(std::istream& in) : in_(in) {
  if (!ReadRecord(in_, &header_) || header_.empty()) {
    throw std::runtime_error("csv: missing header row");
  }
}

bool CsvReader::Next(std::vector<std::string>* fields) {
  while (ReadRecord(in_, fields)) {
    if (fields->size() == 1 && (*fields)[0].empty()) continue;  // blank line
    if (fields->size() != header_.size()) {
      throw std::runtime_error("csv: row arity mismatch");
    }
    return true;
  }
  return false;
}

Instance ReadCsv(std::istream& in) {
  // A generic istream cannot rewind, so the single-stream reader retains
  // the raw rows across the inference pass; ReadCsvFile below streams the
  // file twice instead.
  CsvReader reader(in);
  const int m = reader.num_fields();
  std::vector<std::vector<std::string>> raw_rows;
  std::vector<std::string> fields;
  std::vector<ColumnInference> cols(m);
  while (reader.Next(&fields)) {
    for (int a = 0; a < m; ++a) cols[a].Observe(fields[a]);
    raw_rows.push_back(fields);
  }
  Instance inst{SchemaFrom(reader.header(), cols)};
  for (const auto& row : raw_rows) {
    Tuple t(m);
    for (int a = 0; a < m; ++a) {
      t[a] = ParseField(row[a], inst.schema().type(a));
    }
    inst.AddTuple(std::move(t));
  }
  return inst;
}

Instance ReadCsvFile(const std::string& path) {
  // Pass 1: infer column types without retaining any rows.
  std::ifstream infer_in(path, std::ios::binary);
  if (!infer_in) throw std::runtime_error("csv: cannot open " + path);
  CsvReader infer(infer_in);
  const int m = infer.num_fields();
  std::vector<ColumnInference> cols(m);
  std::vector<std::string> fields;
  while (infer.Next(&fields)) {
    for (int a = 0; a < m; ++a) cols[a].Observe(fields[a]);
  }
  // Pass 2: stream the rows straight into the instance. The inference
  // state is only valid for the pass-1 header — a file whose header
  // changed between the opens must error, not index out of bounds.
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("csv: cannot open " + path);
  CsvReader reader(in);
  if (reader.header() != infer.header()) {
    throw std::runtime_error("csv: header of " + path +
                             " changed between read passes");
  }
  Instance inst{SchemaFrom(reader.header(), cols)};
  while (reader.Next(&fields)) {
    Tuple t(m);
    for (int a = 0; a < m; ++a) {
      t[a] = ParseField(fields[a], inst.schema().type(a));
    }
    inst.AddTuple(std::move(t));
  }
  return inst;
}

void WriteCsv(const Instance& inst, std::ostream& out) {
  const Schema& schema = inst.schema();
  for (AttrId a = 0; a < schema.NumAttrs(); ++a) {
    if (a > 0) out << ',';
    out << EscapeField(schema.name(a));
  }
  out << '\n';
  for (TupleId t = 0; t < inst.NumTuples(); ++t) {
    for (AttrId a = 0; a < schema.NumAttrs(); ++a) {
      if (a > 0) out << ',';
      const Value& v = inst.At(t, a);
      if (!v.is_null()) out << EscapeField(v.ToString(schema.name(a)));
    }
    out << '\n';
  }
}

void WriteCsvFile(const Instance& inst, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("csv: cannot open " + path);
  WriteCsv(inst, out);
}

}  // namespace retrust
