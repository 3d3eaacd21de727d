#include "src/fd/difference_set.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "src/exec/parallel_for.h"
#include "src/fd/partition.h"

namespace retrust {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The canonical group order: descending frequency, ties broken by
/// the smaller attribute mask. Shared by every builder and by ApplyDelta.
void RankGroups(std::vector<DiffSetGroup>* groups) {
  std::sort(groups->begin(), groups->end(),
            [](const DiffSetGroup& a, const DiffSetGroup& b) {
              if (a.frequency() != b.frequency()) {
                return a.frequency() > b.frequency();
              }
              return a.diff < b.diff;
            });
}

/// Groups (edge, diff) records — already in canonical ascending edge
/// order — into DiffSetGroups, preserving that order inside each group.
/// Pre-sizes the map and each group's edge vector (one counting pass) so
/// the serial phase never rehashes or reallocates on large inputs.
std::vector<DiffSetGroup> GroupEdges(
    const std::vector<std::pair<Edge, AttrSet>>& records) {
  std::unordered_map<AttrSet, int64_t, AttrSetHash> freq;
  freq.reserve(64);
  for (const auto& [edge, diff] : records) ++freq[diff];

  std::vector<DiffSetGroup> groups;
  groups.reserve(freq.size());
  std::unordered_map<AttrSet, int, AttrSetHash> index;
  index.reserve(freq.size());
  for (const auto& [edge, diff] : records) {
    auto [it, inserted] = index.emplace(diff, static_cast<int>(groups.size()));
    if (inserted) {
      groups.push_back({diff, {}});
      groups.back().edges.reserve(static_cast<size_t>(freq[diff]));
    }
    groups[it->second].edges.push_back(edge);
  }
  return groups;
}

}  // namespace

AttrSet DiffSetOfPair(const EncodedInstance& inst, TupleId t1, TupleId t2) {
  const int m = inst.NumAttrs();
  const AttrSet universe = AttrSet::Universe(m);
  AttrSet diff;
  for (AttrId a = 0; a < m; ++a) {
    if (inst.At(t1, a) != inst.At(t2, a)) {
      diff.Add(a);
      if (diff == universe) break;
    }
  }
  return diff;
}

AttrSet DiffSetOfPair(const int32_t* const* cols, int num_attrs, TupleId t1,
                      TupleId t2) {
  const AttrSet universe = AttrSet::Universe(num_attrs);
  AttrSet diff;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (cols[a][t1] != cols[a][t2]) {
      diff.Add(a);
      if (diff == universe) break;
    }
  }
  return diff;
}

IndexPatch DifferenceSetIndex::ApplyDelta(const EncodedInstance& inst,
                                          const FDSet& sigma,
                                          const std::vector<TupleId>& dirty,
                                          const std::vector<TupleId>& remap,
                                          exec::ThreadPool* pool) {
  IndexPatch patch;
  const int new_n = inst.NumTuples();
  std::vector<char> is_dirty(new_n, 0);
  for (TupleId t : dirty) is_dirty[t] = 1;

  // 1. Filter: drop every edge with a deleted or dirty endpoint. Relocated
  // tuples are dirty by construction (delta.h), so every kept edge's
  // endpoints still carry their old ids and the kept lists stay sorted.
  struct Work {
    AttrSet diff;
    std::vector<Edge> edges;
    bool changed = false;
  };
  std::vector<Work> work;
  work.reserve(groups_.size());
  for (const DiffSetGroup& group : groups_) {
    Work w;
    w.diff = group.diff;
    w.edges.reserve(group.edges.size());
    for (const Edge& e : group.edges) {
      if (remap[e.u] < 0 || remap[e.v] < 0 || is_dirty[remap[e.u]] ||
          is_dirty[remap[e.v]]) {
        ++patch.edges_removed;
        w.changed = true;
      } else {
        w.edges.push_back(e);
      }
    }
    work.push_back(std::move(w));
  }

  // 2. Discover the edges in the delta's blast radius: every pair with a
  // dirty endpoint, each unordered pair examined exactly once. Sharded
  // over the relation; the canonical sort below erases chunk boundaries,
  // so the result is identical for any thread count.
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);
  std::vector<std::pair<Edge, AttrSet>> found;
  {
    exec::ChunkPlan chunks = exec::PlanChunks(new_n, pool);
    std::vector<std::vector<std::pair<Edge, AttrSet>>> per_chunk(
        std::max(chunks.num_chunks, 1));
    exec::ParallelFor(pool, chunks,
                      [&](int64_t begin, int64_t end, int chunk) {
                        auto& out = per_chunk[chunk];
                        for (int64_t s = begin; s < end; ++s) {
                          for (TupleId t : dirty) {
                            if (is_dirty[s] && s >= t) continue;
                            AttrSet diff = DiffSetOfPair(
                                cols.data(), m, t, static_cast<TupleId>(s));
                            if (DiffSetViolates(diff, sigma)) {
                              out.emplace_back(
                                  Edge(t, static_cast<TupleId>(s)), diff);
                            }
                          }
                        }
                      });
    for (auto& buf : per_chunk) {
      found.insert(found.end(), buf.begin(), buf.end());
    }
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  patch.edges_added = static_cast<int64_t>(found.size());

  // 3. Merge the new edges into their groups (kept and new lists are both
  // sorted, and all pairs are distinct, so the merge reproduces the
  // canonical ascending edge order of a from-scratch build).
  std::unordered_map<AttrSet, int, AttrSetHash> by_diff;
  by_diff.reserve(work.size());
  for (size_t i = 0; i < work.size(); ++i) by_diff.emplace(work[i].diff, i);
  std::vector<std::vector<Edge>> added(work.size());
  for (const auto& [edge, diff] : found) {
    auto [it, inserted] = by_diff.emplace(diff, static_cast<int>(work.size()));
    if (inserted) {
      work.push_back(Work{diff, {}, true});
      added.emplace_back();
    }
    work[it->second].changed = true;
    added[it->second].push_back(edge);
  }
  for (size_t i = 0; i < work.size(); ++i) {
    if (added[i].empty()) continue;
    std::vector<Edge> merged;
    merged.reserve(work[i].edges.size() + added[i].size());
    std::merge(work[i].edges.begin(), work[i].edges.end(), added[i].begin(),
               added[i].end(), std::back_inserter(merged));
    work[i].edges = std::move(merged);
  }

  // 4. Re-rank in the canonical (frequency desc, diff asc) order and
  // count the groups that came through untouched.
  work.erase(std::remove_if(work.begin(), work.end(),
                            [](const Work& w) { return w.edges.empty(); }),
             work.end());
  std::sort(work.begin(), work.end(), [](const Work& a, const Work& b) {
    if (a.edges.size() != b.edges.size()) {
      return a.edges.size() > b.edges.size();
    }
    return a.diff < b.diff;
  });
  groups_.clear();
  groups_.reserve(work.size());
  for (Work& w : work) {
    if (!w.changed) ++patch.groups_preserved;
    groups_.push_back({w.diff, std::move(w.edges)});
  }
  patch.groups_changed = static_cast<int>(groups_.size()) -
                         patch.groups_preserved;
  return patch;
}

std::vector<int> DifferenceSetIndex::ViolatingGroups(const FDSet& fds) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (DiffSetViolates(groups_[i].diff, fds)) out.push_back(i);
  }
  return out;
}

std::string DifferenceSetIndex::ToString(const Schema& schema) const {
  std::string out;
  for (const DiffSetGroup& g : groups_) {
    out += g.diff.ToString(schema.Names());
    out += " x" + std::to_string(g.frequency()) + "\n";
  }
  return out;
}

DifferenceSetIndex BuildDifferenceSetIndexBlocked(const EncodedInstance& inst,
                                                  const FDSet& sigma,
                                                  exec::ThreadPool* pool,
                                                  DiffSetBuildStats* stats) {
  if (sigma.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  const auto t_start = std::chrono::steady_clock::now();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);

  // Phase 1 — blocking keys and their stripped partitions. A pair violating
  // X -> A agrees on X, hence on every LHS inside X, so only the minimal
  // distinct LHSs are keys: a duplicate or a superset of another LHS would
  // only re-enumerate pairs an earlier key already owns. Ascending mask
  // order puts every subset of a key before it. Work units are (key, class)
  // spans in a flat deterministic order: keys ascending, classes in label
  // (first-occurrence) order, members ascending.
  std::vector<AttrSet> lhs;
  for (const FD& fd : sigma.fds()) lhs.push_back(fd.lhs);
  std::sort(lhs.begin(), lhs.end());
  std::vector<AttrSet> keys;
  for (AttrSet x : lhs) {
    if (std::none_of(keys.begin(), keys.end(),
                     [x](AttrSet k) { return k.SubsetOf(x); })) {
      keys.push_back(x);
    }
  }
  struct Unit {
    int key;
    int32_t begin;  ///< span into members[key]
    int32_t end;
  };
  std::vector<std::vector<TupleId>> members(keys.size());
  std::vector<Unit> units;
  for (size_t k = 0; k < keys.size(); ++k) {
    std::vector<std::vector<TupleId>> classes =
        PartitionBy(inst, keys[k]).StrippedClasses();
    size_t total = 0;
    for (const auto& c : classes) total += c.size();
    members[k].reserve(total);
    for (const auto& c : classes) {
      units.push_back({static_cast<int>(k),
                       static_cast<int32_t>(members[k].size()),
                       static_cast<int32_t>(members[k].size() + c.size())});
      members[k].insert(members[k].end(), c.begin(), c.end());
    }
  }
  const double partition_seconds = SecondsSince(t_start);

  // Phase 2 — in-class pair enumeration, sharded over units. A pair inside
  // a class of key k is OWNED by k iff it disagrees somewhere on every
  // earlier key (the first-agreeing-key rule): each pair that agrees on
  // some LHS is examined by exactly one unit, so the concatenated chunk
  // buffers hold globally distinct edges and one canonical sort makes the
  // order thread-count independent.
  const auto t_enumerate = std::chrono::steady_clock::now();
  struct ChunkOut {
    std::vector<std::pair<Edge, AttrSet>> records;
    int64_t candidate = 0;
    int64_t owned = 0;
  };
  exec::ChunkPlan plan =
      exec::PlanChunks(static_cast<int64_t>(units.size()), pool);
  std::vector<ChunkOut> per_chunk(
      static_cast<size_t>(std::max(plan.num_chunks, 1)));
  exec::ParallelFor(
      pool, plan, [&](int64_t begin, int64_t end, int chunk) {
        ChunkOut& out = per_chunk[chunk];
        for (int64_t ui = begin; ui < end; ++ui) {
          const Unit& unit = units[ui];
          const TupleId* cls = members[unit.key].data();
          for (int32_t i = unit.begin; i < unit.end; ++i) {
            const TupleId u = cls[i];
            for (int32_t j = i + 1; j < unit.end; ++j) {
              const TupleId v = cls[j];
              ++out.candidate;
              const AttrSet diff = DiffSetOfPair(cols.data(), m, u, v);
              bool owned = true;
              for (int k = 0; k < unit.key; ++k) {
                if (!keys[k].Intersects(diff)) {
                  owned = false;
                  break;
                }
              }
              if (!owned) continue;
              ++out.owned;
              if (DiffSetViolates(diff, sigma)) {
                out.records.emplace_back(Edge(u, v), diff);
              }
            }
          }
        }
      });
  std::vector<std::pair<Edge, AttrSet>> records;
  int64_t candidate = 0, owned = 0;
  {
    size_t total = 0;
    for (const ChunkOut& c : per_chunk) total += c.records.size();
    records.reserve(total);
    for (ChunkOut& c : per_chunk) {
      records.insert(records.end(), c.records.begin(), c.records.end());
      candidate += c.candidate;
      owned += c.owned;
    }
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const double enumerate_seconds = SecondsSince(t_enumerate);

  // Phase 3 — group in canonical edge order and rank.
  const auto t_group = std::chrono::steady_clock::now();
  std::vector<DiffSetGroup> groups = GroupEdges(records);
  RankGroups(&groups);
  DifferenceSetIndex index(std::move(groups));
  const double group_seconds = SecondsSince(t_group);

  if (stats != nullptr) {
    stats->pairs_candidate = candidate;
    stats->pairs_owned = owned;
    stats->pairs_materialized = static_cast<int64_t>(records.size());
    stats->partition_seconds = partition_seconds;
    stats->enumerate_seconds = enumerate_seconds;
    stats->group_seconds = group_seconds;
    stats->total_seconds = SecondsSince(t_start);
  }
  return index;
}

DifferenceSetIndex BuildDifferenceSetIndex(const EncodedInstance& inst,
                                           const FDSet& sigma,
                                           const exec::Options& eopts,
                                           DiffSetBuildMode mode,
                                           DiffSetBuildStats* stats) {
  std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(eopts);
  if (mode == DiffSetBuildMode::kBlocked) {
    return BuildDifferenceSetIndexBlocked(inst, sigma, pool.get(), stats);
  }

  // kNaive: the quadratic oracle — a direct scan over all C(n,2) tuple
  // pairs, each difference set computed from the columns. Deliberately free
  // of the blocking machinery (partitions, ownership) so the blocked
  // builder has an independent witness and the scaling bench an honest
  // baseline; shares the grouping/ranking conventions of phase 3 so the two
  // builders emit bit-identical indexes.
  if (sigma.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  const auto t_start = std::chrono::steady_clock::now();
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);

  exec::ChunkPlan plan = exec::PlanChunks(n, pool.get());
  std::vector<std::vector<std::pair<Edge, AttrSet>>> per_chunk(
      static_cast<size_t>(std::max(plan.num_chunks, 1)));
  exec::ParallelFor(
      pool.get(), plan, [&](int64_t begin, int64_t end, int chunk) {
    auto& out = per_chunk[chunk];
    for (TupleId u = static_cast<TupleId>(begin);
         u < static_cast<TupleId>(end); ++u) {
      for (TupleId v = u + 1; v < n; ++v) {
        AttrSet diff = DiffSetOfPair(cols.data(), m, u, v);
        if (DiffSetViolates(diff, sigma)) out.emplace_back(Edge(u, v), diff);
      }
    }
  });
  // Chunks are contiguous u-ranges and each inner loop ascends, so plain
  // chunk-order concatenation is already the canonical ascending edge order.
  std::vector<std::pair<Edge, AttrSet>> records;
  {
    size_t total = 0;
    for (const auto& c : per_chunk) total += c.size();
    records.reserve(total);
    for (const auto& c : per_chunk) {
      records.insert(records.end(), c.begin(), c.end());
    }
  }
  const double enumerate_seconds = SecondsSince(t_start);

  const auto t_group = std::chrono::steady_clock::now();
  std::vector<DiffSetGroup> groups = GroupEdges(records);
  RankGroups(&groups);
  DifferenceSetIndex index(std::move(groups));
  const double group_seconds = SecondsSince(t_group);

  if (stats != nullptr) {
    *stats = DiffSetBuildStats{};
    stats->pairs_candidate = static_cast<int64_t>(n) * (n - 1) / 2;
    stats->pairs_owned = stats->pairs_candidate;
    stats->pairs_materialized = static_cast<int64_t>(records.size());
    stats->enumerate_seconds = enumerate_seconds;
    stats->group_seconds = group_seconds;
    stats->total_seconds = SecondsSince(t_start);
  }
  return index;
}

bool DiffSetViolates(AttrSet diff, const FDSet& fds) {
  for (const FD& fd : fds.fds()) {
    if (fd.ViolatedByDiffSet(diff)) return true;
  }
  return false;
}

}  // namespace retrust
