#include "src/fd/difference_set.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
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

/// One enumeration chunk's conflict edges, bucketed by difference set in
/// first-seen order. Runs of equal difference sets (common on dense data)
/// hit a last-diff cache in front of the map.
class EdgeBuckets {
 public:
  void Add(AttrSet diff, Edge e) {
    if (last_ < 0 || buckets_[last_].diff != diff) {
      auto [it, inserted] =
          slot_.emplace(diff, static_cast<int>(buckets_.size()));
      if (inserted) buckets_.push_back({diff, {}});
      last_ = it->second;
    }
    buckets_[last_].edges.push_back(e);
  }

  std::vector<DiffSetGroup>& buckets() { return buckets_; }

 private:
  std::vector<DiffSetGroup> buckets_;
  std::unordered_map<AttrSet, int, AttrSetHash> slot_;
  int last_ = -1;
};

/// Reused buffers of GatherGroup: the n+1 counters and the first counting
/// pass's output.
struct GatherScratch {
  std::vector<size_t> counts;
  std::vector<Edge> by_v;
};

/// Moves one group's `size` distinct edges over tuple ids [0, n) out of
/// its chunk buckets, freeing each bucket as it is read, into `*out`:
/// exactly sized and ascending by (u, v). Groups much smaller than n are
/// concatenated and std::sort-ed; the rest take two stable counting
/// passes, by v (straight from the buckets) and then by u, in
/// O(edges + n).
void GatherGroup(const std::vector<std::vector<Edge>*>& buckets, size_t size,
                 int n, GatherScratch* scratch, std::vector<Edge>* out) {
  if (size < static_cast<size_t>(n) / 8) {
    out->reserve(size);
    for (std::vector<Edge>* bucket : buckets) {
      out->insert(out->end(), bucket->begin(), bucket->end());
      std::vector<Edge>().swap(*bucket);
    }
    std::sort(out->begin(), out->end());
    return;
  }
  std::vector<size_t>& counts = scratch->counts;
  const auto prefix_sums = [&] {
    for (int i = 0; i < n; ++i) counts[i + 1] += counts[i];
  };
  counts.assign(static_cast<size_t>(n) + 1, 0);
  for (const std::vector<Edge>* bucket : buckets) {
    for (const Edge& e : *bucket) ++counts[e.v + 1];
  }
  prefix_sums();
  std::vector<Edge>& by_v = scratch->by_v;
  by_v.resize(size);
  for (std::vector<Edge>* bucket : buckets) {
    for (const Edge& e : *bucket) by_v[counts[e.v]++] = e;
    std::vector<Edge>().swap(*bucket);
  }
  counts.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : by_v) ++counts[e.u + 1];
  prefix_sums();
  out->resize(size);
  for (const Edge& e : by_v) (*out)[counts[e.u]++] = e;
}

/// Turns the chunks' buckets into one group per difference set, each
/// gathered in chunk order by GatherGroup; with a pool, groups are
/// gathered in parallel, largest first. A group's edges are a function of
/// its pairs alone, so the result is the same for any chunking and thread
/// count. The groups come back unranked.
std::vector<DiffSetGroup> GroupBuckets(std::vector<EdgeBuckets>* chunks,
                                       int n, exec::ThreadPool* pool) {
  std::vector<DiffSetGroup> groups;
  std::vector<std::vector<std::vector<Edge>*>> sources;
  std::vector<size_t> sizes;
  std::unordered_map<AttrSet, int, AttrSetHash> slot;
  for (EdgeBuckets& chunk : *chunks) {
    for (DiffSetGroup& bucket : chunk.buckets()) {
      auto [it, inserted] =
          slot.emplace(bucket.diff, static_cast<int>(groups.size()));
      if (inserted) {
        groups.push_back({bucket.diff, {}});
        sources.emplace_back();
        sizes.push_back(0);
      }
      sources[it->second].push_back(&bucket.edges);
      sizes[it->second] += bucket.edges.size();
    }
  }

  const auto gather = [&](size_t g, GatherScratch* scratch) {
    GatherGroup(sources[g], sizes[g], n, scratch, &groups[g].edges);
  };
  const int workers =
      pool == nullptr ? 1
                      : std::min(pool->num_threads(),
                                 static_cast<int>(groups.size()));
  if (workers <= 1) {
    GatherScratch scratch;
    for (size_t g = 0; g < groups.size(); ++g) gather(g, &scratch);
    return groups;
  }
  std::vector<size_t> largest_first(groups.size());
  std::iota(largest_first.begin(), largest_first.end(), size_t{0});
  std::stable_sort(largest_first.begin(), largest_first.end(),
                   [&](size_t a, size_t b) { return sizes[a] > sizes[b]; });
  std::atomic<size_t> next{0};
  exec::TaskGroup tasks(pool);
  for (int w = 0; w < workers; ++w) {
    tasks.Run([&] {
      GatherScratch scratch;
      for (size_t i; (i = next.fetch_add(1)) < largest_first.size();) {
        gather(largest_first[i], &scratch);
      }
    });
  }
  tasks.Wait();
  return groups;
}

/// The builders' last phase: the chunks' buckets as a ranked index. When
/// `stats` is non-null, records the phase's time and the edge count.
DifferenceSetIndex RankedIndex(std::vector<EdgeBuckets>* chunks, int n,
                               exec::ThreadPool* pool,
                               DiffSetBuildStats* stats) {
  const auto t_group = std::chrono::steady_clock::now();
  std::vector<DiffSetGroup> groups = GroupBuckets(chunks, n, pool);
  RankGroups(&groups);
  if (stats != nullptr) {
    stats->pairs_materialized = 0;
    for (const DiffSetGroup& g : groups) {
      stats->pairs_materialized += g.frequency();
    }
    stats->group_seconds = SecondsSince(t_group);
  }
  return DifferenceSetIndex(std::move(groups));
}

}  // namespace

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

  // 1. Filter in place: drop every edge with a deleted or dirty endpoint.
  // Relocated tuples are dirty by construction (delta.h), so every kept
  // edge's endpoints still carry their old ids and the kept lists stay
  // sorted.
  const auto stale = [&](const Edge& e) {
    return remap[e.u] < 0 || remap[e.v] < 0 || is_dirty[remap[e.u]] ||
           is_dirty[remap[e.v]];
  };
  std::vector<char> changed(groups_.size(), 0);
  for (size_t g = 0; g < groups_.size(); ++g) {
    const size_t removed = std::erase_if(groups_[g].edges, stale);
    patch.edges_removed += static_cast<int64_t>(removed);
    changed[g] = removed > 0;
  }

  // 2. Discover the edges in the delta's blast radius: every pair with a
  // dirty endpoint, each unordered pair examined exactly once. Sharded
  // over the relation into per-chunk buckets; GroupBuckets orders each
  // difference set's new edges, so the result is identical for any thread
  // count.
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);
  exec::ChunkPlan chunks = exec::PlanChunks(new_n, pool);
  std::vector<EdgeBuckets> per_chunk(std::max(chunks.num_chunks, 1));
  exec::ParallelFor(pool, chunks,
                    [&](int64_t begin, int64_t end, int chunk) {
                      EdgeBuckets& out = per_chunk[chunk];
                      for (int64_t s = begin; s < end; ++s) {
                        for (TupleId t : dirty) {
                          if (is_dirty[s] && s >= t) continue;
                          AttrSet diff = DiffSetOfPair(
                              cols.data(), m, t, static_cast<TupleId>(s));
                          if (DiffSetViolates(diff, sigma)) {
                            out.Add(diff, Edge(t, static_cast<TupleId>(s)));
                          }
                        }
                      }
                    });
  std::vector<DiffSetGroup> found = GroupBuckets(&per_chunk, new_n, pool);

  // 3. Merge the new edges into their groups in place (kept and new lists
  // are both sorted, and all pairs are distinct, so the merge reproduces
  // the canonical ascending edge order of a from-scratch build).
  std::unordered_map<AttrSet, int, AttrSetHash> by_diff;
  by_diff.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    by_diff.emplace(groups_[g].diff, static_cast<int>(g));
  }
  for (DiffSetGroup& add : found) {
    patch.edges_added += add.frequency();
    auto it = by_diff.find(add.diff);
    if (it == by_diff.end()) {
      groups_.push_back(std::move(add));
      changed.push_back(1);
      continue;
    }
    std::vector<Edge>& edges = groups_[it->second].edges;
    const auto kept = static_cast<std::ptrdiff_t>(edges.size());
    edges.reserve(edges.size() + add.edges.size());
    edges.insert(edges.end(), add.edges.begin(), add.edges.end());
    std::inplace_merge(edges.begin(), edges.begin() + kept, edges.end());
    changed[it->second] = 1;
  }

  // 4. Count the groups that came through untouched, drop emptied ones,
  // then re-rank in the canonical order.
  for (size_t g = 0; g < groups_.size(); ++g) {
    patch.groups_preserved += !changed[g] && !groups_[g].edges.empty();
  }
  std::erase_if(groups_,
                [](const DiffSetGroup& g) { return g.edges.empty(); });
  RankGroups(&groups_);
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
    int32_t begin;  ///< span into stripped[key].members
    int32_t end;
  };
  std::vector<StrippedCsr> stripped(keys.size());
  std::vector<Unit> units;
  for (size_t k = 0; k < keys.size(); ++k) {
    stripped[k] = StripClasses(PartitionBy(inst, keys[k]));
    const std::vector<int32_t>& offsets = stripped[k].offsets;
    for (int c = 0; c < stripped[k].num_classes(); ++c) {
      units.push_back({static_cast<int>(k), offsets[c], offsets[c + 1]});
    }
  }
  const double partition_seconds = SecondsSince(t_start);

  // Phase 2 — in-class pair enumeration, sharded over units. A pair inside
  // a class of key k is OWNED by k iff it disagrees somewhere on every
  // earlier key (the first-agreeing-key rule): each pair that agrees on
  // some LHS is examined by exactly one unit, so the chunks' buckets hold
  // globally distinct edges, and each chunk files its owned conflict edges
  // under their difference set as it finds them.
  const auto t_enumerate = std::chrono::steady_clock::now();
  struct PairCounts {
    int64_t candidate = 0;
    int64_t owned = 0;
  };
  exec::ChunkPlan plan =
      exec::PlanChunks(static_cast<int64_t>(units.size()), pool);
  const size_t num_chunks = static_cast<size_t>(std::max(plan.num_chunks, 1));
  std::vector<EdgeBuckets> buckets(num_chunks);
  std::vector<PairCounts> counts(num_chunks);
  exec::ParallelFor(
      pool, plan, [&](int64_t begin, int64_t end, int chunk) {
        EdgeBuckets& out = buckets[chunk];
        PairCounts& count = counts[chunk];
        for (int64_t ui = begin; ui < end; ++ui) {
          const Unit& unit = units[ui];
          const TupleId* cls = stripped[unit.key].members.data();
          for (int32_t i = unit.begin; i < unit.end; ++i) {
            const TupleId u = cls[i];
            for (int32_t j = i + 1; j < unit.end; ++j) {
              const TupleId v = cls[j];
              ++count.candidate;
              const AttrSet diff = DiffSetOfPair(cols.data(), m, u, v);
              bool owned = true;
              for (int k = 0; k < unit.key; ++k) {
                if (!keys[k].Intersects(diff)) {
                  owned = false;
                  break;
                }
              }
              if (!owned) continue;
              ++count.owned;
              if (DiffSetViolates(diff, sigma)) out.Add(diff, Edge(u, v));
            }
          }
        }
      });
  if (stats != nullptr) {
    *stats = DiffSetBuildStats{};
    for (const PairCounts& count : counts) {
      stats->pairs_candidate += count.candidate;
      stats->pairs_owned += count.owned;
    }
    stats->partition_seconds = partition_seconds;
    stats->enumerate_seconds = SecondsSince(t_enumerate);
  }

  // Phase 3 — one group per difference set, each in canonical edge order,
  // then rank.
  DifferenceSetIndex index =
      RankedIndex(&buckets, inst.NumTuples(), pool, stats);
  if (stats != nullptr) stats->total_seconds = SecondsSince(t_start);
  return index;
}

DifferenceSetIndex BuildDifferenceSetIndex(const EncodedInstance& inst,
                                           const FDSet& sigma,
                                           exec::ThreadPool* pool,
                                           DiffSetBuildMode mode,
                                           DiffSetBuildStats* stats) {
  if (mode == DiffSetBuildMode::kBlocked) {
    return BuildDifferenceSetIndexBlocked(inst, sigma, pool, stats);
  }

  // kNaive: the quadratic oracle — a direct scan over all C(n,2) tuple
  // pairs, each difference set computed from the columns. Deliberately free
  // of the blocking machinery (partitions, ownership) so the blocked
  // builder has an independent witness and the scaling bench an honest
  // baseline. It shares phase 3's bucket -> order -> rank helpers, so the
  // two builders emit bit-identical indexes; BlockedOracle's reference
  // index, built in the test, checks those helpers independently.
  if (sigma.size() > 64) {
    throw std::invalid_argument("conflict graph supports at most 64 FDs");
  }
  const auto t_start = std::chrono::steady_clock::now();
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);

  exec::ChunkPlan plan = exec::PlanChunks(n, pool);
  std::vector<EdgeBuckets> per_chunk(
      static_cast<size_t>(std::max(plan.num_chunks, 1)));
  exec::ParallelFor(
      pool, plan, [&](int64_t begin, int64_t end, int chunk) {
    EdgeBuckets& out = per_chunk[chunk];
    for (TupleId u = static_cast<TupleId>(begin);
         u < static_cast<TupleId>(end); ++u) {
      for (TupleId v = u + 1; v < n; ++v) {
        AttrSet diff = DiffSetOfPair(cols.data(), m, u, v);
        if (DiffSetViolates(diff, sigma)) out.Add(diff, Edge(u, v));
      }
    }
  });
  if (stats != nullptr) {
    *stats = DiffSetBuildStats{};
    stats->pairs_candidate = static_cast<int64_t>(n) * (n - 1) / 2;
    stats->pairs_owned = stats->pairs_candidate;
    stats->enumerate_seconds = SecondsSince(t_start);
  }
  DifferenceSetIndex index = RankedIndex(&per_chunk, n, pool, stats);
  if (stats != nullptr) stats->total_seconds = SecondsSince(t_start);
  return index;
}

bool DiffSetViolates(AttrSet diff, const FDSet& fds) {
  for (const FD& fd : fds.fds()) {
    if (fd.ViolatedByDiffSet(diff)) return true;
  }
  return false;
}

}  // namespace retrust
