#include "src/fd/difference_set.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "src/exec/parallel_for.h"
#include "src/fd/partition.h"

namespace retrust {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Open-addressing map from a nonempty difference set to a dense slot
/// number, assigned in first-insertion order. Starts at 8 entries and
/// doubles at half load, so a small relation pays for a few entries only.
/// The empty set marks a free entry: a conflict edge always differs on
/// the right-hand side of an FD it violates.
class DiffSlots {
 public:
  /// The slot of `diff`; a set not seen before gets slot size().
  int Slot(AttrSet diff) {
    const uint64_t key = diff.bits();
    for (size_t i = Home(key);; i = (i + 1) & (table_.size() - 1)) {
      if (table_[i].key == key) return table_[i].slot;
      if (table_[i].key != 0) continue;
      if (2 * (static_cast<size_t>(size_) + 1) > table_.size()) {
        Grow();
        return Slot(diff);
      }
      table_[i] = {key, size_};
      return size_++;
    }
  }

  int size() const { return size_; }

 private:
  struct Entry {
    uint64_t key = 0;
    int slot = 0;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Entry> old(table_.size() * 2);
    old.swap(table_);
    --shift_;
    for (const Entry& e : old) {
      if (e.key == 0) continue;
      size_t i = Home(e.key);
      while (table_[i].key != 0) i = (i + 1) & (table_.size() - 1);
      table_[i] = e;
    }
  }

  std::vector<Entry> table_ = std::vector<Entry>(8);
  int shift_ = 61;  ///< 64 - log2(table_.size())
  int size_ = 0;
};

/// One enumeration chunk's conflict edges, bucketed by difference set in
/// first-seen order.
class EdgeBuckets {
 public:
  struct Bucket {
    AttrSet diff;
    std::vector<Edge> edges;
  };

  void Add(AttrSet diff, Edge e) {
    const int slot = slots_.Slot(diff);
    if (slot == static_cast<int>(buckets_.size())) {
      buckets_.push_back({diff, {}});
    }
    buckets_[slot].edges.push_back(e);
  }

  std::vector<Bucket>& buckets() { return buckets_; }

 private:
  std::vector<Bucket> buckets_;
  DiffSlots slots_;
};

/// `e` as edge type E; its ids must fit E's.
template <typename E, typename From>
E StoreAs(const From& e) {
  E out;
  out.u = static_cast<decltype(out.u)>(e.u);
  out.v = static_cast<decltype(out.v)>(e.v);
  return out;
}

/// Whether edge `a` precedes edge `b` in ascending (u, v) order, at any
/// widths.
template <typename A, typename B>
bool EdgeBefore(const A& a, const B& b) {
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

/// The scratch of a per-group pass that needs none.
struct NoScratch {};

/// Runs fn(g, &scratch) for every g in [0, count), on `pool` (nullable =
/// serial) with one Scratch per worker. Groups are handed out in index
/// order, and callers rank them largest first, so the big ones start first.
template <typename Scratch, typename Fn>
void ForEachGroup(exec::ThreadPool* pool, size_t count, const Fn& fn) {
  const int workers =
      pool == nullptr
          ? 1
          : static_cast<int>(std::min<size_t>(pool->num_threads(), count));
  if (workers <= 1) {
    Scratch scratch;
    for (size_t g = 0; g < count; ++g) fn(g, &scratch);
    return;
  }
  std::atomic<size_t> next{0};
  exec::TaskGroup tasks(pool);
  for (int w = 0; w < workers; ++w) {
    tasks.Run([&] {
      Scratch scratch;
      for (size_t g; (g = next.fetch_add(1)) < count;) fn(g, &scratch);
    });
  }
  tasks.Wait();
}

/// The skeleton of an index: groups of the given difference sets and
/// sizes in the canonical order — descending size, ties broken by the
/// smaller mask — with their edge array sized but not yet written. Empty
/// groups are dropped; `order[r]` is the input group ranked r-th.
struct RankedLayout {
  std::vector<int> order;
  std::vector<AttrSet> diffs;
  std::vector<size_t> begins;
  EdgeArray edges;

  DifferenceSetIndex Finish() {
    return DifferenceSetIndex(std::move(diffs), std::move(begins),
                              std::move(edges));
  }
};

RankedLayout RankLayout(const std::vector<AttrSet>& diffs,
                        const std::vector<size_t>& sizes, int n) {
  RankedLayout layout;
  for (size_t g = 0; g < diffs.size(); ++g) {
    if (sizes[g] > 0) layout.order.push_back(static_cast<int>(g));
  }
  std::sort(layout.order.begin(), layout.order.end(), [&](int a, int b) {
    if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
    return diffs[a] < diffs[b];
  });
  layout.begins.push_back(0);
  for (int g : layout.order) {
    layout.diffs.push_back(diffs[g]);
    layout.begins.push_back(layout.begins.back() + sizes[g]);
  }
  layout.edges = EdgeArray(layout.begins.back(), n);
  return layout;
}

/// Reused buffers of GatherGroup: the n+1 counters and the first counting
/// pass's output.
struct GatherScratch {
  std::vector<size_t> counts;
  std::vector<Edge> by_v;
};

/// Moves one group's `size` distinct edges over tuple ids [0, n) out of
/// its chunk buckets, freeing each bucket as it is read, to `out` as the
/// index's edge type Out, ascending by (u, v). Groups much smaller than n
/// are concatenated and std::sort-ed; the rest take two stable counting
/// passes, by v (straight from the buckets) and then by u, in
/// O(edges + n).
template <typename Out>
void GatherGroup(const std::vector<std::vector<Edge>*>& buckets, size_t size,
                 int n, GatherScratch* scratch, Out* out) {
  if (size < static_cast<size_t>(n) / 8) {
    Out* end = out;
    for (std::vector<Edge>* bucket : buckets) {
      end = std::transform(bucket->begin(), bucket->end(), end,
                           StoreAs<Out, Edge>);
      std::vector<Edge>().swap(*bucket);
    }
    std::sort(out, end);
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
  for (const Edge& e : by_v) out[counts[e.u]++] = StoreAs<Out>(e);
}

/// The builders' last phase: the chunks' buckets merged into one group per
/// difference set, ranked, and each group gathered by GatherGroup at its
/// final offset of the edge array — on `pool`, largest group first. A
/// group's edges are a function of its pairs alone, so the result is the
/// same for any chunking and thread count. When `stats` is non-null,
/// records the phase's time and the edge count.
DifferenceSetIndex RankedIndex(std::vector<EdgeBuckets>* chunks, int n,
                               exec::ThreadPool* pool,
                               DiffSetBuildStats* stats) {
  const auto t_group = std::chrono::steady_clock::now();
  std::vector<AttrSet> diffs;
  std::vector<std::vector<std::vector<Edge>*>> sources;
  std::vector<size_t> sizes;
  DiffSlots slots;
  for (EdgeBuckets& chunk : *chunks) {
    for (EdgeBuckets::Bucket& bucket : chunk.buckets()) {
      const int g = slots.Slot(bucket.diff);
      if (g == static_cast<int>(diffs.size())) {
        diffs.push_back(bucket.diff);
        sources.emplace_back();
        sizes.push_back(0);
      }
      sources[g].push_back(&bucket.edges);
      sizes[g] += bucket.edges.size();
    }
  }
  RankedLayout layout = RankLayout(diffs, sizes, n);
  layout.edges.Visit([&](auto edges) {
    ForEachGroup<GatherScratch>(
        pool, layout.order.size(), [&](size_t r, GatherScratch* scratch) {
          const int g = layout.order[r];
          GatherGroup(sources[g], sizes[g], n, scratch,
                      edges.data() + layout.begins[r]);
        });
  });
  if (stats != nullptr) {
    stats->pairs_materialized = static_cast<int64_t>(layout.edges.size());
    stats->group_seconds = SecondsSince(t_group);
  }
  return layout.Finish();
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

PackedRows::PackedRows(const EncodedInstance& inst) {
  const int n = inst.NumTuples();
  const int m = inst.NumAttrs();
  int32_t lo = 0;
  int32_t hi = 0;
  for (AttrId a = 0; a < m; ++a) {
    const auto [lo_it, hi_it] = std::minmax_element(inst.column(a).begin(),
                                                    inst.column(a).end());
    if (lo_it == inst.column(a).end()) continue;
    lo = std::min(lo, *lo_it);
    hi = std::max(hi, *hi_it);
  }
  if (lo < 0 || hi >= 65536 || m == 0) return;
  lane_bits_ = hi < 256 ? 8 : 16;
  const int lanes = 64 / lane_bits_;
  stride_ = (m + lanes - 1) / lanes;
  words_.assign(static_cast<size_t>(n) * stride_, 0);
  for (AttrId a = 0; a < m; ++a) {
    const int32_t* col = inst.ColumnData(a);
    const int word = a / lanes;
    const int shift = (a % lanes) * lane_bits_;
    for (TupleId t = 0; t < n; ++t) {
      words_[static_cast<size_t>(t) * stride_ + word] |=
          static_cast<uint64_t>(col[t]) << shift;
    }
  }
}

EdgeArray::EdgeArray(size_t size, int num_tuples)
    : size_(size), narrow_(num_tuples <= kMaxNarrowTuples) {
  Allocate();
}

EdgeArray::EdgeArray(const EdgeArray& other)
    : size_(other.size_), narrow_(other.narrow_) {
  Allocate();
  if (size_ > 0) {
    std::memcpy(data_.get(), other.data_.get(), view().size_bytes());
  }
}

void EdgeArray::Allocate() {
  if (size_ == 0) return;
  // Both edge types are trivially copyable, so the raw storage holds edges
  // as soon as they are written or read into it. Exactly size() edges: the
  // heap accounting counts a block at its allocated size.
  data_.reset(std::malloc(view().size_bytes()));
  if (data_ == nullptr) throw std::bad_alloc();
}

void EdgeArray::Free::operator()(void* p) const { std::free(p); }

IndexPatch DifferenceSetIndex::ApplyDelta(const EncodedInstance& inst,
                                          const FDSet& sigma,
                                          const std::vector<TupleId>& dirty,
                                          const std::vector<TupleId>& remap,
                                          exec::ThreadPool* pool) {
  IndexPatch patch;
  const int new_n = inst.NumTuples();
  std::vector<char> is_dirty(new_n, 0);
  for (TupleId t : dirty) is_dirty[t] = 1;

  // 1. Which pre-delta tuples are stale: deleted or dirty. Relocated
  // tuples are dirty by construction (delta.h), so every kept edge's
  // endpoints still carry their old ids and the kept lists stay sorted.
  // An insert-only delta leaves every old tuple clean, and the filter
  // below is skipped.
  std::vector<char> stale(remap.size(), 0);
  bool any_stale = false;
  for (size_t t = 0; t < remap.size(); ++t) {
    stale[t] = remap[t] < 0 || is_dirty[remap[t]];
    any_stale |= stale[t] != 0;
  }
  const auto kept_edge = [&](const auto& e) {
    return !stale[e.u] && !stale[e.v];
  };
  std::vector<size_t> kept(diffs_.size());
  for (size_t g = 0; g < kept.size(); ++g) {
    kept[g] = begins_[g + 1] - begins_[g];
  }
  if (any_stale) {
    VisitGroups([&](auto edges_of) {
      ForEachGroup<NoScratch>(pool, kept.size(), [&](size_t g, NoScratch*) {
        const auto old = edges_of(static_cast<int>(g));
        kept[g] = static_cast<size_t>(
            std::count_if(old.begin(), old.end(), kept_edge));
      });
    });
  }

  // 2. Discover the edges in the delta's blast radius: every pair with a
  // dirty endpoint, each unordered pair examined exactly once. Sharded
  // over the relation into per-chunk buckets and ranked like a build, so
  // the new edges are identical for any thread count.
  const int m = inst.NumAttrs();
  std::vector<const int32_t*> cols(m);
  for (AttrId a = 0; a < m; ++a) cols[a] = inst.ColumnData(a);
  const PackedRows packed(inst);
  exec::ChunkPlan chunks = exec::PlanChunks(new_n, pool);
  std::vector<EdgeBuckets> per_chunk(std::max(chunks.num_chunks, 1));
  WithPairKernel(packed, cols.data(), m, [&](auto diff_of) {
    exec::ParallelFor(pool, chunks,
                      [&](int64_t begin, int64_t end, int chunk) {
                        EdgeBuckets& out = per_chunk[chunk];
                        for (auto s = static_cast<TupleId>(begin); s < end;
                             ++s) {
                          for (TupleId t : dirty) {
                            if (is_dirty[s] && s >= t) continue;
                            const AttrSet diff = diff_of(t, s);
                            if (DiffSetViolates(diff, sigma)) {
                              out.Add(diff, Edge(t, s));
                            }
                          }
                        }
                      });
  });
  const DifferenceSetIndex found =
      RankedIndex(&per_chunk, new_n, pool, nullptr);

  // 3. One filter + merge pass into the next edge array, at the post-delta
  // width: each group's kept edges and its new ones are both sorted, and
  // all pairs are distinct, so the merge reproduces the canonical
  // ascending edge order of a from-scratch build. Group u of the union is
  // old group u when u < size(), and/or found group found_of[u] (-1 when
  // absent).
  std::vector<AttrSet> diffs = diffs_;
  std::vector<size_t> sizes = kept;
  std::vector<int> found_of(diffs_.size(), -1);
  DiffSlots slots;
  for (AttrSet diff : diffs_) slots.Slot(diff);
  for (int f = 0; f < found.size(); ++f) {
    const DiffSetGroup add = found.group(f);
    patch.edges_added += add.frequency();
    const int u = slots.Slot(add.diff);
    if (u == static_cast<int>(diffs.size())) {
      diffs.push_back(add.diff);
      sizes.push_back(0);
      found_of.push_back(-1);
    }
    sizes[u] += add.edges.size();
    found_of[u] = f;
  }
  for (int g = 0; g < size(); ++g) {
    const size_t before = begins_[g + 1] - begins_[g];
    patch.edges_removed += static_cast<int64_t>(before - kept[g]);
    patch.groups_preserved += kept[g] == before && found_of[g] < 0;
  }
  RankedLayout layout = RankLayout(diffs, sizes, new_n);
  VisitGroups([&](auto old_of) {
    found.VisitGroups([&](auto found_group) {
      layout.edges.Visit([&](auto next_edges) {
        using Out = typename decltype(next_edges)::value_type;
        const auto store = [](const auto& e) { return StoreAs<Out>(e); };
        ForEachGroup<NoScratch>(pool, layout.order.size(),
                                [&](size_t r, NoScratch*) {
          const int u = layout.order[r];
          decltype(found_group(0)) add;
          if (found_of[u] >= 0) add = found_group(found_of[u]);
          auto next = add.begin();
          Out* out = next_edges.data() + layout.begins[r];
          if (u < size()) {
            for (const auto& e : old_of(u)) {
              if (any_stale && !kept_edge(e)) continue;
              while (next != add.end() && EdgeBefore(*next, e)) {
                *out++ = store(*next++);
              }
              *out++ = store(e);
            }
          }
          std::transform(next, add.end(), out, store);
        });
      });
    });
  });
  *this = layout.Finish();
  patch.groups_changed = size() - patch.groups_preserved;
  return patch;
}

std::vector<int> DifferenceSetIndex::ViolatingGroups(const FDSet& fds) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (DiffSetViolates(diffs_[i], fds)) out.push_back(i);
  }
  return out;
}

std::string DifferenceSetIndex::ToString(const Schema& schema) const {
  std::string out;
  for (int i = 0; i < size(); ++i) {
    out += diffs_[i].ToString(schema.Names());
    out += " x" + std::to_string(group(i).frequency()) + "\n";
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
  // (first-occurrence) order, members ascending. The rows are packed for
  // the pair kernel here too.
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
  const PackedRows packed(inst);
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
  WithPairKernel(packed, cols.data(), m, [&](auto diff_of) {
    exec::ParallelFor(
        pool, plan, [&](int64_t begin, int64_t end, int chunk) {
          EdgeBuckets& out = buckets[chunk];
          PairCounts& count = counts[chunk];
          for (int64_t ui = begin; ui < end; ++ui) {
            const Unit& unit = units[ui];
            const TupleId* cls = stripped[unit.key].members.data();
            for (int32_t i = unit.begin; i < unit.end; ++i) {
              const TupleId u = cls[i];
              count.candidate += unit.end - i - 1;
              for (int32_t j = i + 1; j < unit.end; ++j) {
                const TupleId v = cls[j];
                const AttrSet diff = diff_of(u, v);
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
  });
  if (stats != nullptr) {
    *stats = DiffSetBuildStats{};
    for (const PairCounts& count : counts) {
      stats->pairs_candidate += count.candidate;
      stats->pairs_owned += count.owned;
    }
    stats->partition_seconds = partition_seconds;
    stats->enumerate_seconds = SecondsSince(t_enumerate);
    stats->lane_bits = packed.lane_bits();
  }

  // Phase 3 — one group per difference set, ranked, each written in
  // canonical edge order at its final offset.
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
  // of the blocking machinery (partitions, ownership) and of the packed
  // kernel, so the blocked builder has an independent witness and the
  // scaling bench an honest baseline. It shares phase 3's bucket -> order
  // -> rank helpers, so the two builders emit bit-identical indexes;
  // BlockedOracle's reference index, built in the test, checks those
  // helpers independently.
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
