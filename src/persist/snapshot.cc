#include "src/persist/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "src/persist/io.h"
#include "src/util/hash.h"

namespace retrust::persist {

// Payload field order (after the 12-byte magic+version prefix):
//   u64 fingerprint, u64 data_stamp, u64 data_version, i64 root_delta_p,
//   u8 weight_model, heuristic{i32 max_diffsets, i64 max_nodes, u8 strict},
//   schema{u32 m; per attr: str name, u8 type},
//   u32 n, per attr dictionary{u64 count; tagged values},
//   codes column-major (m columns of n i32 each, attribute order),
//   encoded next_var (m i32), instance next_var (m i32),
//   sigma{u32 count; per FD: u64 lhs, i32 rhs},
//   index{u32 groups, u64 total edge count; per group: u64 diff,
//         u64 edge count, edges (u, v each: u16 ids when n <= 65,536,
//         i32 above — the width the index holds them at)},
//   covers{u64 set count; per entry: words + i32 value;
//          u64 seq count; per entry: u64 len, i32 ids, i32 value}.

// Edge lists move through the array codec as (u, v) pairs of ids.
static_assert(offsetof(Edge, u) == 0 && offsetof(Edge, v) == sizeof(Edge::u));
static_assert(offsetof(NarrowEdge, u) == 0 &&
              offsetof(NarrowEdge, v) == sizeof(NarrowEdge::u));

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
  WritePrefix(&w, kSnapshotMagic, kSnapshotFormatVersion);

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
  for (AttrId a = 0; a < m; ++a) w.Array(inst.column(a));
  w.Array(inst.next_var_counters());
  w.Array(*view.instance_next_var);

  w.U32(static_cast<uint32_t>(view.sigma->size()));
  for (const FD& fd : view.sigma->fds()) {
    w.U64(fd.lhs.bits());
    w.I32(fd.rhs);
  }

  // Edges are saved at the width the index holds them.
  w.U32(static_cast<uint32_t>(view.index->size()));
  w.U64(view.index->edges().size());
  for (int i = 0; i < view.index->size(); ++i) {
    const DiffSetGroup g = view.index->group(i);
    w.U64(g.diff.bits());
    w.U64(g.edges.size());
    g.edges.Visit([&w](auto edges) { w.Array(edges); });
  }

  w.U64(view.warm.covers.set_entries.size());
  for (const auto& [key, value] : view.warm.covers.set_entries) {
    for (uint64_t word : key.words()) w.U64(word);
    w.I32(value);
  }
  w.U64(view.warm.covers.seq_entries.size());
  for (const auto& [seq, value] : view.warm.covers.seq_entries) {
    w.U64(seq.size());
    w.Array(seq);
    w.I32(value);
  }

  w.U32(Crc32(w.buffer().data(), w.size()));

  // Write a sibling file and rename it over `path`, so a failed or
  // interrupted save leaves the previous snapshot intact.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
  out.close();
  std::error_code ec;
  if (!out) {
    std::filesystem::remove(tmp, ec);
    return IoError("short write to '" + path + "'");
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return IoError("cannot replace '" + path + "': " + ec.message());
  }
  return Status::Ok();
}

namespace {

/// Whether a group's `edges` (Edges or NarrowEdges) satisfy 0 <= u < v < n
/// in strictly ascending order. As unsigned values that is u < v < n, each
/// edge above the one before it. The pass is branch-free and compares each
/// edge with the one before it in memory, so it vectorizes — as its own
/// function: inlined into the reader's loop, which leaves on the first
/// failing group, it compiled to a scalar loop about three times slower.
template <typename E>
[[gnu::noinline]] bool PlausibleEdges(std::span<E> edges, uint32_t n) {
  const auto follows = [n](const E& a, const E& b) -> uint32_t {
    const auto u = static_cast<uint32_t>(b.u);
    const auto v = static_cast<uint32_t>(b.v);
    const auto pu = static_cast<uint32_t>(a.u);
    const auto pv = static_cast<uint32_t>(a.v);
    return (u < v) & (v < n) & ((u > pu) | ((u == pu) & (v > pv)));
  };
  if (edges.empty()) return true;
  // Any edge with u < v follows (0, 0).
  uint32_t ok = follows(E{}, edges[0]);
  for (size_t i = 1; i < edges.size(); ++i) {
    ok &= follows(edges[i - 1], edges[i]);
  }
  return ok != 0;
}

/// Parses the payload `r` streams (everything between the prefix and the
/// checksum footer) into `*data`. The index's edges are read from the file
/// straight into one array, sized by the total the file states.
Status ParsePayload(ByteReader* r, const std::string& path,
                    SnapshotData* data) {
  try {
    data->fingerprint = r->U64();
    data->data_stamp = r->U64();
    data->data_version = r->U64();
    data->root_delta_p = r->I64();
    data->weight_model = r->U8();
    data->heuristic.max_diffsets = r->I32();
    data->heuristic.max_nodes = r->I64();
    data->heuristic.strict_leave_check = r->U8() != 0;

    const uint32_t m = r->U32();
    if (m > static_cast<uint32_t>(kMaxAttrs) || !r->ok()) {
      return IoError("snapshot '" + path + "' has an implausible schema");
    }
    std::vector<Attribute> attrs(m);
    for (uint32_t a = 0; a < m; ++a) {
      attrs[a].name = r->Str();
      attrs[a].type = static_cast<AttrType>(r->U8());
    }
    Schema schema(std::move(attrs));

    const uint32_t n = r->U32();
    std::vector<Dictionary> dicts;
    dicts.reserve(m);
    for (uint32_t a = 0; a < m; ++a) {
      const uint64_t count = r->U64();
      if (!PlausibleCount(count, *r)) {
        return IoError("snapshot '" + path + "' has an implausible dictionary");
      }
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) values.push_back(ReadValue(r));
      dicts.push_back(Dictionary::FromValues(std::move(values)));
    }
    // n·m codes fit in the bytes left; with no attributes that bounds
    // nothing, and no session has zero attributes.
    const uint64_t num_codes = static_cast<uint64_t>(n) * m;
    if (!PlausibleCount(num_codes, *r) || (m == 0 && n != 0) ||
        n > static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
      return IoError("snapshot '" + path + "' has an implausible cardinality");
    }
    std::vector<std::vector<int32_t>> columns(m, std::vector<int32_t>(n));
    for (std::vector<int32_t>& column : columns) r->Array(&column);
    std::vector<int32_t> next_var(m);
    r->Array(&next_var);
    data->instance_next_var.resize(m);
    r->Array(&data->instance_next_var);
    const auto negative = [](int32_t counter) { return counter < 0; };
    if (std::any_of(next_var.begin(), next_var.end(), negative) ||
        std::any_of(data->instance_next_var.begin(),
                    data->instance_next_var.end(), negative)) {
      return IoError("snapshot '" + path +
                     "' has a negative fresh-variable counter");
    }
    data->encoded =
        EncodedInstance::Restore(std::move(schema), static_cast<int>(n),
                                 std::move(columns), std::move(dicts),
                                 std::move(next_var));

    const uint32_t num_fds = r->U32();
    if (num_fds > 64 || !r->ok()) {
      return IoError("snapshot '" + path + "' has an implausible FD set");
    }
    // Everything below indexes attributes, tuples, FDs or groups by what
    // the file says, so each is checked against the shape declared above:
    // a matching checksum proves the bytes were written, not that they fit.
    const AttrSet universe = AttrSet::Universe(static_cast<int>(m));
    std::vector<FD> fds(num_fds);
    for (FD& fd : fds) {
      fd.lhs = AttrSet(r->U64());
      fd.rhs = r->I32();
      if (!fd.lhs.SubsetOf(universe) || fd.rhs < 0 ||
          fd.rhs >= static_cast<int>(m)) {
        return IoError("snapshot '" + path + "' has an FD outside its schema");
      }
    }
    data->sigma = FDSet(std::move(fds));

    const uint32_t num_groups = r->U32();
    if (!PlausibleCount(num_groups, *r)) {
      return IoError("snapshot '" + path + "' has an implausible index");
    }
    const uint64_t total = r->U64();
    if (total > r->remaining() / EdgeArray::EdgeBytes(static_cast<int>(n))) {
      return IoError("snapshot '" + path + "' has an implausible edge total");
    }
    std::vector<AttrSet> diffs(num_groups);
    std::vector<size_t> begins = {0};
    begins.reserve(static_cast<size_t>(num_groups) + 1);
    EdgeArray edges(static_cast<size_t>(total), static_cast<int>(n));
    // Each group's edges land in their slice of the array at the index's
    // own width and are checked in place.
    const char* implausible = edges.Visit([&](auto all) -> const char* {
      for (AttrSet& diff : diffs) {
        diff = AttrSet(r->U64());
        const uint64_t num_edges = r->U64();
        if (num_edges > all.size() - begins.back() ||
            !diff.SubsetOf(universe)) {
          return "group";
        }
        const auto group =
            all.subspan(begins.back(), static_cast<size_t>(num_edges));
        begins.push_back(begins.back() + group.size());
        r->Array(group);
        if (!PlausibleEdges(group, n)) return "edge list";
      }
      return begins.back() != all.size() ? "index" : nullptr;
    });
    if (implausible != nullptr) {
      return IoError("snapshot '" + path + "' has an implausible " +
                     implausible);
    }
    data->index = DifferenceSetIndex(std::move(diffs), std::move(begins),
                                    std::move(edges));

    const size_t words_per_key = (static_cast<size_t>(num_groups) + 63) / 64;
    const uint64_t num_set = r->U64();
    if (!PlausibleCount(num_set, *r)) {
      return IoError("snapshot '" + path + "' has an implausible cover memo");
    }
    data->warm.covers.set_entries.reserve(static_cast<size_t>(num_set));
    for (uint64_t i = 0; i < num_set; ++i) {
      GroupBitset key(static_cast<int>(num_groups));
      for (size_t word = 0; word < words_per_key; ++word) {
        uint64_t bits = r->U64();
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
      const int32_t value = r->I32();
      data->warm.covers.set_entries.emplace_back(std::move(key), value);
    }
    const uint64_t num_seq = r->U64();
    if (!PlausibleCount(num_seq, *r)) {
      return IoError("snapshot '" + path + "' has an implausible cover memo");
    }
    data->warm.covers.seq_entries.reserve(static_cast<size_t>(num_seq));
    for (uint64_t i = 0; i < num_seq; ++i) {
      const uint64_t len = r->U64();
      if (!PlausibleCount(len, *r)) {
        return IoError("snapshot '" + path + "' has an implausible cover key");
      }
      std::vector<int32_t> seq(static_cast<size_t>(len));
      r->Array(&seq);
      const int32_t value = r->I32();
      data->warm.covers.seq_entries.emplace_back(std::move(seq), value);
    }
  } catch (const std::exception& e) {
    return IoError("snapshot '" + path + "' is corrupt: " + e.what());
  }
  if (!r->ok() || r->remaining() != 0) {
    return IoError("snapshot '" + path + "' payload has the wrong length");
  }
  return Status::Ok();
}

}  // namespace

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  Result<std::unique_ptr<FileSource>> opened =
      FileSource::Open(path, "snapshot");
  if (!opened.ok()) return opened.status();
  FileSource& file = **opened;

  char prefix_bytes[kPrefixSize];
  const size_t prefix_size = std::min(file.size(), kPrefixSize);
  if (!file.Read(prefix_bytes, prefix_size)) {
    return IoError("read failure on snapshot '" + path + "'");
  }
  Status prefix = CheckPrefix(std::string_view(prefix_bytes, prefix_size),
                              kSnapshotMagic, kSnapshotFormatVersion,
                              kPrefixSize, "snapshot", path);
  if (!prefix.ok()) return prefix;
  if (file.size() < kPrefixSize + sizeof(uint32_t)) {
    return IoError("snapshot '" + path + "' is truncated");
  }

  // The payload is parsed as it streams in, but a checksum failure takes
  // precedence over whatever the parse made of the damaged bytes.
  file.set_limit(file.size() - sizeof(uint32_t));
  ByteReader r(&file);
  SnapshotData data;
  Status parsed = ParsePayload(&r, path, &data);
  if (!file.ChecksumMatches()) {
    return IoError("snapshot '" + path +
                   "' failed its checksum (truncated or corrupted)");
  }
  if (!parsed.ok()) return parsed;
  return data;
}

}  // namespace retrust::persist
