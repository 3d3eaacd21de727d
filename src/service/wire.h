// The wire format of tools/retrust_server: newline-delimited JSON over a
// loopback socket, one request object per line, one response object per
// line. This header is the self-contained JSON layer (value type, parser,
// writer — standard library only, since the container bakes in no JSON
// dependency) plus the converters between wire objects and the api/ and
// service/ value types, shared by the server binary and its tests.
//
// Requests ({"op": ...}):
//   {"op":"load_tenant","tenant":"hosp","csv":"hosp.csv",
//    "fds":["Zip->City"]}                        lazy CSV registration
//   {"op":"repair","tenant":"hosp","tau":3}      Algorithm 1; or "tau_r"
//   {"op":"sweep","tenant":"hosp",
//    "requests":[{"tau":0},{"tau_r":0.5}]}       batched RepairMany
//   {"op":"apply_delta","tenant":"hosp",
//    "inserts":[["a","b","c"]],
//    "updates":[[12,"City","Springfield"]],
//    "deletes":[3,9]}                            Session::Apply
//   {"op":"stats"} / {"op":"stats","tenant":"hosp"}
//   {"op":"load_snapshot_tenant","tenant":"hosp",
//    "snapshot":"hosp.snap"}                      lazy snapshot restore
//   {"op":"save_snapshot","tenant":"hosp",
//    "path":"hosp.snap"}                          consistent-cut snapshot
//   {"op":"unload_tenant","tenant":"hosp"}        release session memory
//   {"op":"metrics"}                              registry exposition text
//   {"op":"dump_recent"} / {...,"limit":20}       flight-recorder dump
//   {"op":"shutdown"}
//
// Optional repair fields: "mode" ("astar"|"best_first"), "seed",
// "budget", "deadline_seconds" (the END-TO-END service deadline), "id"
// (any JSON value, echoed in the response untouched), and "trace" (true =
// the reply carries a "trace" span tree of where the request spent its
// time; absent/false = the reply is byte-identical to the untraced one).
//
// Responses: {"ok":true, ...verb fields...} or
// {"ok":false,"error":"<StatusCodeName>","message":"..."} — plus the
// echoed "id" when the request carried one.

#ifndef RETRUST_SERVICE_WIRE_H_
#define RETRUST_SERVICE_WIRE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/api/session.h"
#include "src/obs/flight_recorder.h"
#include "src/service/stats.h"

namespace retrust::service {

// GCC 12 reports a false -Wmaybe-uninitialized on moving a Json into a
// std::optional (Result<Json>), GCC bug 80635; the implicit moves are
// defined inside this class.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// A JSON value. Numbers are doubles (every count this protocol carries
/// fits double's 2^53 integer range); objects keep sorted keys so Dump()
/// is deterministic.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;
  /// In the order of the alternatives `value_` holds.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : value_(b) {}                            // NOLINT: implicit
  Json(double n) : value_(n) {}                          // NOLINT
  Json(int64_t n) : value_(static_cast<double>(n)) {}    // NOLINT
  Json(int n) : value_(static_cast<double>(n)) {}        // NOLINT
  Json(uint64_t n) : value_(static_cast<double>(n)) {}   // NOLINT: covers size_t
  Json(std::string s) : value_(std::move(s)) {}          // NOLINT
  Json(const char* s) : value_(std::string(s)) {}        // NOLINT
  Json(Array a) : value_(std::move(a)) {}                // NOLINT
  Json(Object o) : value_(std::move(o)) {}               // NOLINT

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed reads; a value of another type reads as false, 0 or empty.
  bool AsBool() const {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr && *b;
  }
  double AsNumber() const {
    const double* n = std::get_if<double>(&value_);
    return n != nullptr ? *n : 0.0;
  }
  /// The number truncated toward zero and saturated to int64_t's range,
  /// so every value converts (NaN reads as 0).
  int64_t AsInt() const {
    const double n = AsNumber();
    if (std::isnan(n)) return 0;
    if (n >= 0x1p63) return std::numeric_limits<int64_t>::max();
    if (n <= -0x1p63) return std::numeric_limits<int64_t>::min();
    return static_cast<int64_t>(n);
  }
  const std::string& AsString() const { return Or(kEmptyString); }
  const Array& AsArray() const { return Or(kEmptyArray); }
  const Object& AsObject() const { return Or(kEmptyObject); }
  /// The members of an object; any other value becomes an empty object.
  Object& MutableObject() {
    if (!is_object()) value_ = Object();
    return std::get<Object>(value_);
  }

  /// Member lookup on objects; nullptr when absent or not an object.
  const Json* Get(const std::string& key) const;

  /// Compact single-line serialization (sorted keys, escaped strings;
  /// integral numbers print without a fraction).
  std::string Dump() const;

 private:
  static const std::string kEmptyString;
  static const Array kEmptyArray;
  static const Object kEmptyObject;

  template <typename T>
  const T& Or(const T& fallback) const {
    const T* v = std::get_if<T>(&value_);
    return v != nullptr ? *v : fallback;
  }

  // One alternative per Type: a node is the size of its largest
  // alternative, not the sum of all of them.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};
#pragma GCC diagnostic pop

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). kInvalidArgument with a position on malformed input.
Result<Json> ParseJson(const std::string& text);

// --- wire <-> api conversions -------------------------------------------

/// Reads the repair fields of a request object ("tau"/"tau_r", "mode",
/// "seed", "budget", "deadline_seconds") into a RepairRequest.
Result<RepairRequest> RepairRequestFromJson(const Json& obj);

/// Reads "inserts" (rows of per-column strings parsed against `schema`'s
/// types), "updates" ([tuple, attr name-or-index, value-string]) and
/// "deletes" (tuple ids) into a DeltaBatch.
Result<DeltaBatch> DeltaBatchFromJson(const Json& obj, const Schema& schema);

/// {"ok":false,"error":code_name,"message":...}.
Json ErrorJson(const Status& status);

Json ToJson(const RepairResponse& response, const Schema& schema);
Json ToJson(const ApplyStats& stats);
Json ToJson(const ServerStats& stats);
Json ToJson(const TenantStats& stats);
/// {"name":...,"seconds":...,"count":...,"spans":[...children...]} —
/// "count"/"spans" are omitted when 1/empty, so plain spans stay small.
Json ToJson(const obs::TraceSpan& span);
Json ToJson(const obs::FlightRecord& record);

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_WIRE_H_
