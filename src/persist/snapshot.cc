#include "src/persist/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "src/persist/io.h"
#include "src/util/hash.h"

namespace retrust::persist {

namespace {

// Payload field order (after the 12-byte magic+version prefix):
//   u64 fingerprint, u64 data_stamp, u64 data_version, i64 root_delta_p,
//   u8 weight_model, heuristic{i32 max_diffsets, i64 max_nodes, u8 strict},
//   schema{u32 m; per attr: str name, u8 type},
//   u32 n, per attr dictionary{u64 count; tagged values},
//   codes column-major (m columns of n i32 each, attribute order),
//   encoded next_var (m i32), instance next_var (m i32),
//   sigma{u32 count; per FD: u64 lhs, i32 rhs},
//   index{u32 groups; per group: u64 diff, u64 edge count,
//         edges (i32 u, i32 v each)},
//   covers{u64 set count; per entry: words + i32 value;
//          u64 seq count; per entry: u64 len, i32 ids, i32 value}.

constexpr uint8_t kValueNull = 0;
constexpr uint8_t kValueInt = 1;
constexpr uint8_t kValueDouble = 2;
constexpr uint8_t kValueString = 3;
constexpr uint8_t kValueVariable = 4;

void WriteValue(ByteWriter* w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w->U8(kValueNull);
      break;
    case Value::Kind::kInt:
      w->U8(kValueInt);
      w->I64(v.AsInt());
      break;
    case Value::Kind::kDouble:
      w->U8(kValueDouble);
      w->F64(v.AsDouble());
      break;
    case Value::Kind::kString:
      w->U8(kValueString);
      w->Str(v.AsString());
      break;
    case Value::Kind::kVariable: {
      VarRef var = v.AsVariable();
      w->U8(kValueVariable);
      w->I32(var.attr);
      w->I32(var.index);
      break;
    }
  }
}

Value ReadValue(ByteReader* r) {
  switch (r->U8()) {
    case kValueNull:
      return Value::Null();
    case kValueInt:
      return Value(r->I64());
    case kValueDouble:
      return Value(r->F64());
    case kValueString:
      return Value(r->Str());
    case kValueVariable: {
      AttrId attr = r->I32();
      int32_t index = r->I32();
      return Value::Variable(attr, index);
    }
    default:
      throw std::invalid_argument("unknown value tag");
  }
}

Status IoError(const std::string& message) {
  return Status::Error(StatusCode::kIoError, message);
}

/// Caps untrusted count fields: a corrupt length can at most name one unit
/// per remaining payload byte, so allocations stay proportional to the
/// actual file size instead of a 64-bit garbage value.
bool PlausibleCount(uint64_t count, const ByteReader& r) {
  return count <= r.remaining();
}

}  // namespace

uint64_t ConfigFingerprint(const FDSet& sigma, uint8_t weight_model,
                           const HeuristicOptions& heuristic) {
  uint64_t seed = 0x534e4150ULL;  // "SNAP"
  for (const FD& fd : sigma.fds()) {
    HashCombine(&seed, fd.lhs.bits());
    HashCombine(&seed, static_cast<uint64_t>(static_cast<uint32_t>(fd.rhs)));
  }
  HashCombine(&seed, weight_model);
  HashCombine(&seed, static_cast<uint64_t>(heuristic.max_diffsets));
  HashCombine(&seed, static_cast<uint64_t>(heuristic.max_nodes));
  HashCombine(&seed, heuristic.strict_leave_check ? 1u : 0u);
  return seed;
}

uint64_t DataStamp(const EncodedInstance& inst) {
  uint64_t seed = 0x5354414dULL;  // "STAM"
  HashCombine(&seed, static_cast<uint64_t>(inst.NumTuples()));
  HashCombine(&seed, static_cast<uint64_t>(inst.NumAttrs()));
  for (AttrId a = 0; a < inst.NumAttrs(); ++a) {
    for (int32_t code : inst.column(a)) {
      HashCombine(&seed, static_cast<uint64_t>(static_cast<uint32_t>(code)));
    }
  }
  for (AttrId a = 0; a < inst.NumAttrs(); ++a) {
    const Dictionary& dict = inst.dictionary(a);
    HashCombine(&seed, static_cast<uint64_t>(dict.size()));
    for (const Value& v : dict.values()) {
      HashCombine(&seed, static_cast<uint64_t>(v.Hash()));
    }
  }
  return seed;
}

Status WriteSnapshotFile(const std::string& path, const SnapshotView& view) {
  const EncodedInstance& inst = *view.encoded;
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();

  ByteWriter w;
  for (char c : kSnapshotMagic) w.U8(static_cast<uint8_t>(c));
  w.U32(kSnapshotFormatVersion);

  w.U64(view.fingerprint);
  w.U64(view.data_stamp);
  w.U64(view.data_version);
  w.I64(view.root_delta_p);
  w.U8(view.weight_model);
  w.I32(view.heuristic.max_diffsets);
  w.I64(view.heuristic.max_nodes);
  w.U8(view.heuristic.strict_leave_check ? 1 : 0);

  const Schema& schema = inst.schema();
  w.U32(static_cast<uint32_t>(m));
  for (AttrId a = 0; a < m; ++a) {
    w.Str(schema.name(a));
    w.U8(static_cast<uint8_t>(schema.type(a)));
  }

  w.U32(static_cast<uint32_t>(n));
  for (AttrId a = 0; a < m; ++a) {
    const Dictionary& dict = inst.dictionary(a);
    w.U64(static_cast<uint64_t>(dict.size()));
    for (const Value& v : dict.values()) WriteValue(&w, v);
  }
  for (AttrId a = 0; a < m; ++a) {
    for (int32_t code : inst.column(a)) w.I32(code);
  }
  for (int32_t counter : inst.next_var_counters()) w.I32(counter);
  for (int32_t counter : *view.instance_next_var) w.I32(counter);

  w.U32(static_cast<uint32_t>(view.sigma->size()));
  for (const FD& fd : view.sigma->fds()) {
    w.U64(fd.lhs.bits());
    w.I32(fd.rhs);
  }

  w.U32(static_cast<uint32_t>(view.index->size()));
  for (const DiffSetGroup& g : view.index->groups()) {
    w.U64(g.diff.bits());
    w.U64(g.edges.size());
    for (const Edge& e : g.edges) {
      w.I32(e.u);
      w.I32(e.v);
    }
  }

  w.U64(view.warm.covers.set_entries.size());
  for (const auto& [key, value] : view.warm.covers.set_entries) {
    for (uint64_t word : key.words()) w.U64(word);
    w.I32(value);
  }
  w.U64(view.warm.covers.seq_entries.size());
  for (const auto& [seq, value] : view.warm.covers.seq_entries) {
    w.U64(seq.size());
    for (int32_t g : seq) w.I32(g);
    w.I32(value);
  }

  w.U32(Crc32(w.buffer().data(), w.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
  out.flush();
  if (!out) return IoError("short write to '" + path + "'");
  return Status::Ok();
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open snapshot '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return IoError("read failure on snapshot '" + path + "'");

  // Magic and version come before the checksum test so an unsupported
  // version (whose payload layout we cannot parse anyway) reports as
  // kVersionMismatch, not as corruption.
  if (bytes.size() < sizeof(kSnapshotMagic) + sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return IoError("'" + path + "' is not a retrust snapshot");
  }
  ByteReader header(std::string_view(bytes).substr(sizeof(kSnapshotMagic)));
  const uint32_t version = header.U32();
  if (version != kSnapshotFormatVersion) {
    return Status::Error(
        StatusCode::kVersionMismatch,
        "snapshot '" + path + "' has format version " +
            std::to_string(version) + "; this build speaks version " +
            std::to_string(kSnapshotFormatVersion));
  }
  const size_t prefix = sizeof(kSnapshotMagic) + sizeof(uint32_t);
  if (bytes.size() < prefix + sizeof(uint32_t)) {
    return IoError("snapshot '" + path + "' is truncated");
  }
  const size_t body = bytes.size() - sizeof(uint32_t);
  ByteReader footer(std::string_view(bytes).substr(body));
  if (footer.U32() != Crc32(bytes.data(), body)) {
    return IoError("snapshot '" + path +
                   "' failed its checksum (truncated or corrupted)");
  }

  ByteReader r(std::string_view(bytes).substr(prefix, body - prefix));
  SnapshotData data;
  try {
    data.fingerprint = r.U64();
    data.data_stamp = r.U64();
    data.data_version = r.U64();
    data.root_delta_p = r.I64();
    data.weight_model = r.U8();
    data.heuristic.max_diffsets = r.I32();
    data.heuristic.max_nodes = r.I64();
    data.heuristic.strict_leave_check = r.U8() != 0;

    const uint32_t m = r.U32();
    if (m > static_cast<uint32_t>(kMaxAttrs) || !r.ok()) {
      return IoError("snapshot '" + path + "' has an implausible schema");
    }
    std::vector<Attribute> attrs(m);
    for (uint32_t a = 0; a < m; ++a) {
      attrs[a].name = r.Str();
      attrs[a].type = static_cast<AttrType>(r.U8());
    }
    Schema schema(std::move(attrs));

    const uint32_t n = r.U32();
    std::vector<Dictionary> dicts;
    dicts.reserve(m);
    for (uint32_t a = 0; a < m; ++a) {
      const uint64_t count = r.U64();
      if (!PlausibleCount(count, r)) {
        return IoError("snapshot '" + path + "' has an implausible dictionary");
      }
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) values.push_back(ReadValue(&r));
      dicts.push_back(Dictionary::FromValues(std::move(values)));
    }
    const uint64_t num_codes = static_cast<uint64_t>(n) * m;
    if (!PlausibleCount(num_codes, r)) {
      return IoError("snapshot '" + path + "' has an implausible cardinality");
    }
    std::vector<std::vector<int32_t>> columns(m);
    for (uint32_t a = 0; a < m; ++a) {
      columns[a].resize(n);
      for (int32_t& code : columns[a]) code = r.I32();
    }
    std::vector<int32_t> next_var(m);
    for (int32_t& counter : next_var) counter = r.I32();
    data.instance_next_var.resize(m);
    for (int32_t& counter : data.instance_next_var) counter = r.I32();
    const auto negative = [](int32_t counter) { return counter < 0; };
    if (std::any_of(next_var.begin(), next_var.end(), negative) ||
        std::any_of(data.instance_next_var.begin(),
                    data.instance_next_var.end(), negative)) {
      return IoError("snapshot '" + path +
                     "' has a negative fresh-variable counter");
    }
    data.encoded =
        EncodedInstance::Restore(std::move(schema), static_cast<int>(n),
                                 std::move(columns), std::move(dicts),
                                 std::move(next_var));

    const uint32_t num_fds = r.U32();
    if (num_fds > 64 || !r.ok()) {
      return IoError("snapshot '" + path + "' has an implausible FD set");
    }
    // Everything below indexes attributes, tuples, FDs or groups by what
    // the file says, so each is checked against the shape declared above:
    // a matching checksum proves the bytes were written, not that they fit.
    const AttrSet universe = AttrSet::Universe(static_cast<int>(m));
    std::vector<FD> fds(num_fds);
    for (FD& fd : fds) {
      fd.lhs = AttrSet(r.U64());
      fd.rhs = r.I32();
      if (!fd.lhs.SubsetOf(universe) || fd.rhs < 0 ||
          fd.rhs >= static_cast<int>(m)) {
        return IoError("snapshot '" + path + "' has an FD outside its schema");
      }
    }
    data.sigma = FDSet(std::move(fds));

    const uint32_t num_groups = r.U32();
    if (!PlausibleCount(num_groups, r)) {
      return IoError("snapshot '" + path + "' has an implausible index");
    }
    std::vector<DiffSetGroup> groups(num_groups);
    for (DiffSetGroup& g : groups) {
      g.diff = AttrSet(r.U64());
      const uint64_t num_edges = r.U64();
      if (!PlausibleCount(num_edges, r) || !g.diff.SubsetOf(universe)) {
        return IoError("snapshot '" + path + "' has an implausible group");
      }
      g.edges.resize(static_cast<size_t>(num_edges));
      for (size_t i = 0; i < g.edges.size(); ++i) {
        Edge& e = g.edges[i];
        e.u = r.I32();
        e.v = r.I32();
        // 0 <= u < v < n, strictly ascending within the group.
        if (e.u < 0 || e.u >= e.v || static_cast<uint32_t>(e.v) >= n ||
            (i > 0 && !(g.edges[i - 1] < e))) {
          return IoError("snapshot '" + path +
                         "' has an implausible edge list");
        }
      }
    }
    data.index = DifferenceSetIndex(std::move(groups));

    const size_t words_per_key = (static_cast<size_t>(num_groups) + 63) / 64;
    const uint64_t num_set = r.U64();
    if (!PlausibleCount(num_set, r)) {
      return IoError("snapshot '" + path + "' has an implausible cover memo");
    }
    data.warm.covers.set_entries.reserve(static_cast<size_t>(num_set));
    for (uint64_t i = 0; i < num_set; ++i) {
      GroupBitset key(static_cast<int>(num_groups));
      for (size_t word = 0; word < words_per_key; ++word) {
        uint64_t bits = r.U64();
        while (bits != 0) {
          const size_t g = word * 64 + std::countr_zero(bits);
          if (g >= num_groups) {
            return IoError("snapshot '" + path +
                           "' has a cover key naming a missing group");
          }
          key.Set(static_cast<int>(g));
          bits &= bits - 1;
        }
      }
      const int32_t value = r.I32();
      data.warm.covers.set_entries.emplace_back(std::move(key), value);
    }
    const uint64_t num_seq = r.U64();
    if (!PlausibleCount(num_seq, r)) {
      return IoError("snapshot '" + path + "' has an implausible cover memo");
    }
    data.warm.covers.seq_entries.reserve(static_cast<size_t>(num_seq));
    for (uint64_t i = 0; i < num_seq; ++i) {
      const uint64_t len = r.U64();
      if (!PlausibleCount(len, r)) {
        return IoError("snapshot '" + path + "' has an implausible cover key");
      }
      std::vector<int32_t> seq(static_cast<size_t>(len));
      for (int32_t& g : seq) g = r.I32();
      const int32_t value = r.I32();
      data.warm.covers.seq_entries.emplace_back(std::move(seq), value);
    }
  } catch (const std::exception& e) {
    return IoError("snapshot '" + path + "' is corrupt: " + e.what());
  }
  if (!r.ok() || r.remaining() != 0) {
    return IoError("snapshot '" + path + "' payload has the wrong length");
  }
  return data;
}

}  // namespace retrust::persist
