// Difference sets (paper §5.2): for a conflict-graph edge (t_i, t_j), the
// set of attributes on which the two tuples disagree.
//
// Key property (the gc heuristic's atomicity trick): whether an edge
// violates an FD X -> A depends only on its difference set d —
// the pair agrees on X iff X ∩ d = ∅ and disagrees on A iff A ∈ d.
// DifferenceSetIndex therefore groups conflict edges by difference set and
// treats each group atomically.
//
// Two builders produce the same index (DESIGN.md "Blocked difference-set
// construction"):
//   * naive  — all O(n²) pairs, each difference set computed directly (the
//     oracle);
//   * blocked — a pair can only be a conflict edge of Σ (or of any Σ' the
//     search reaches, which only extends left-hand sides) if it agrees on
//     some FD's whole LHS X, so pairs are enumerated inside the stripped
//     classes of π_X for the minimal distinct LHSs of Σ, each pair owned by
//     the first such X it agrees on. An empty LHS makes π_∅ one class, so
//     pairs that disagree everywhere come out as ordinary edges.
// Both are bit-identical at any thread count; blocked is the default.

#ifndef RETRUST_FD_DIFFERENCE_SET_H_
#define RETRUST_FD_DIFFERENCE_SET_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/fd/conflict_graph.h"

namespace retrust {

/// Difference set of a tuple pair: attributes with unequal codes. Exits as
/// soon as the set reaches all attributes. `cols[a]` is
/// inst.ColumnData(a), so each cell test is one indexed load with no
/// Flat(t, a) multiply.
AttrSet DiffSetOfPair(const int32_t* const* cols, int num_attrs, TupleId t1,
                      TupleId t2);

/// An instance's rows packed for the pair kernel: each tuple's m codes in
/// consecutive 64-bit words, 8-bit lanes when every code is in [0, 256),
/// 16-bit lanes when every code is in [0, 65536). Any other code (a
/// negative variable code included) leaves the rows unpacked, and callers
/// keep DiffSetOfPair's column loop. A packed pair's difference set is an
/// XOR per word, a lane-nonzero mask and a multiply-shift that collapses
/// the mask's lane bits to consecutive attribute bits.
class PackedRows {
 public:
  explicit PackedRows(const EncodedInstance& inst);

  /// 8 or 16; 0 when the rows are not packed.
  int lane_bits() const { return lane_bits_; }

  /// DiffSetOfPair(cols, m, u, v) for rows packed with kLaneBits lanes.
  template <int kLaneBits>
  AttrSet Diff(TupleId u, TupleId v) const {
    static_assert(kLaneBits == 8 || kLaneBits == 16);
    constexpr uint64_t kHigh = kLaneBits == 8 ? 0x8080808080808080ULL
                                              : 0x8000800080008000ULL;
    constexpr uint64_t kLow = ~kHigh;
    const uint64_t* a = words_.data() + static_cast<size_t>(u) * stride_;
    const uint64_t* b = words_.data() + static_cast<size_t>(v) * stride_;
    uint64_t bits = 0;
    for (int w = 0; w < stride_; ++w) {
      const uint64_t x = a[w] ^ b[w];
      // The high bit of each lane is set iff the lane is nonzero; the low
      // bits' sum cannot carry out of the lane.
      const uint64_t nonzero = (((x & kLow) + kLow) | x) & kHigh;
      // Every lane bit lands in the top byte (nibble) at its lane's rank,
      // and no two partial products share a bit, so nothing carries.
      const uint64_t lanes =
          kLaneBits == 8 ? (nonzero >> 7) * 0x0102040810204080ULL >> 56
                         : (nonzero >> 15) * 0x1000200040008000ULL >> 60;
      bits |= lanes << (w * (64 / kLaneBits));
    }
    return AttrSet(bits);
  }

 private:
  int lane_bits_ = 0;
  int stride_ = 0;  ///< words per row
  std::vector<uint64_t> words_;
};

/// Calls `fn` with the fastest pair kernel `rows` allows: a callable
/// (u, v) -> AttrSet equal to DiffSetOfPair(cols, m, u, v). Each kernel is
/// its own instantiation of `fn`, so the lane width is not re-tested per
/// pair.
template <typename Fn>
void WithPairKernel(const PackedRows& rows, const int32_t* const* cols,
                    int m, Fn&& fn) {
  switch (rows.lane_bits()) {
    case 8:
      fn([&rows](TupleId u, TupleId v) { return rows.Diff<8>(u, v); });
      break;
    case 16:
      fn([&rows](TupleId u, TupleId v) { return rows.Diff<16>(u, v); });
      break;
    default:
      fn([cols, m](TupleId u, TupleId v) {
        return DiffSetOfPair(cols, m, u, v);
      });
  }
}

/// The most tuples an index stores with 16-bit ids: an index over
/// n <= kMaxNarrowTuples tuples holds each edge as a NarrowEdge (4 B), a
/// larger one as an Edge (8 B). The width is a function of n alone, fixed
/// when the index is built, restored or patched by a delta.
inline constexpr int kMaxNarrowTuples = 65536;

/// A conflict edge (u < v) with 16-bit tuple ids, as a narrow index stores
/// it.
struct NarrowEdge {
  uint16_t u = 0;
  uint16_t v = 0;

  friend bool operator<(const NarrowEdge& a, const NarrowEdge& b) {
    return (uint32_t{a.u} << 16 | a.v) < (uint32_t{b.u} << 16 | b.v);
  }
};

/// A read-only run of an index's edges at whichever width they are
/// stored. Iterating or indexing it yields Edges by value; Visit hands a
/// hot loop the run as a std::span of the stored edge type instead, with
/// the width tested once. Valid while the index it views lives.
class EdgeSpan {
 public:
  /// Forward iterator yielding each edge as an Edge value.
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Edge;

    Iterator() = default;
    Edge operator*() const { return Load(data_, i_, narrow_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class EdgeSpan;
    Iterator(const void* data, size_t i, bool narrow)
        : data_(data), i_(i), narrow_(narrow) {}

    const void* data_ = nullptr;
    size_t i_ = 0;
    bool narrow_ = false;
  };

  EdgeSpan() = default;
  /// `size` edges at `data`: NarrowEdges when `narrow`, else Edges.
  EdgeSpan(const void* data, size_t size, bool narrow)
      : data_(data), size_(size), narrow_(narrow) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Whether the edges are stored as NarrowEdges.
  bool narrow() const { return narrow_; }
  /// Bytes the edges occupy at their stored width.
  size_t size_bytes() const {
    return size_ * (narrow_ ? sizeof(NarrowEdge) : sizeof(Edge));
  }

  Edge operator[](size_t i) const { return Load(data_, i, narrow_); }
  Iterator begin() const { return Iterator(data_, 0, narrow_); }
  Iterator end() const { return Iterator(data_, size_, narrow_); }

  /// The `count` edges from offset `at`.
  EdgeSpan subspan(size_t at, size_t count) const {
    const size_t bytes = at * (narrow_ ? sizeof(NarrowEdge) : sizeof(Edge));
    return EdgeSpan(static_cast<const char*>(data_) + bytes, count, narrow_);
  }

  /// Calls fn(std::span<const NarrowEdge>) or fn(std::span<const Edge>)
  /// with the stored edges. Each width is its own instantiation of `fn`,
  /// so a loop inside it does not re-test the width per edge.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    if (narrow_) {
      return fn(std::span<const NarrowEdge>(
          static_cast<const NarrowEdge*>(data_), size_));
    }
    return fn(std::span<const Edge>(static_cast<const Edge*>(data_), size_));
  }

 private:
  static Edge Load(const void* data, size_t i, bool narrow) {
    if (!narrow) return static_cast<const Edge*>(data)[i];
    const NarrowEdge e = static_cast<const NarrowEdge*>(data)[i];
    Edge out;
    out.u = e.u;
    out.v = e.v;
    return out;
  }

  const void* data_ = nullptr;
  size_t size_ = 0;
  bool narrow_ = false;
};

/// One group of conflict edges sharing a difference set: a view into its
/// index's edge array, valid while the index lives. `edges` is in
/// canonical ascending (u, v) order.
struct DiffSetGroup {
  AttrSet diff;
  EdgeSpan edges;

  /// Number of conflict pairs in the group — the heuristic's ranking key.
  int64_t frequency() const { return static_cast<int64_t>(edges.size()); }
};

/// A fixed-size edge array at the width of its instance's tuple count
/// (kMaxNarrowTuples), whose storage starts uninitialized: the build, the
/// delta patch and the snapshot reader each write every element once, so
/// no page is written twice. The allocation is exactly size() edges.
/// Copies are deep.
class EdgeArray {
 public:
  EdgeArray() = default;
  /// `size` unwritten edges over tuple ids [0, num_tuples).
  EdgeArray(size_t size, int num_tuples);
  /// Bytes one edge takes in an array over `num_tuples` tuples.
  static size_t EdgeBytes(int num_tuples) {
    return num_tuples <= kMaxNarrowTuples ? sizeof(NarrowEdge) : sizeof(Edge);
  }
  EdgeArray(const EdgeArray& other);
  EdgeArray(EdgeArray&& other) noexcept
      : data_(std::move(other.data_)),
        size_(std::exchange(other.size_, 0)),
        narrow_(other.narrow_) {}
  EdgeArray& operator=(EdgeArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(narrow_, other.narrow_);
    return *this;
  }

  size_t size() const { return size_; }
  EdgeSpan view() const { return EdgeSpan(data_.get(), size_, narrow_); }

  /// Calls fn(std::span<NarrowEdge>) or fn(std::span<Edge>) with the
  /// array's storage, each width its own instantiation of `fn`.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) {
    if (narrow_) {
      return fn(std::span<NarrowEdge>(static_cast<NarrowEdge*>(data_.get()),
                                      size_));
    }
    return fn(std::span<Edge>(static_cast<Edge*>(data_.get()), size_));
  }

 private:
  struct Free {
    void operator()(void* p) const;
  };
  /// Allocates size_ edges at the width narrow_ says.
  void Allocate();

  std::unique_ptr<void, Free> data_;
  size_t size_ = 0;
  bool narrow_ = true;
};

/// Per-phase observability of one index build (the --timing surface of
/// csv_repair_tool and the scaling bench).
struct DiffSetBuildStats {
  int64_t pairs_candidate = 0;     ///< pairs enumerated inside classes
  int64_t pairs_owned = 0;         ///< pairs passing the ownership rule
  int64_t pairs_materialized = 0;  ///< conflict edges stored in groups
  double partition_seconds = 0.0;  ///< per-LHS partition phase
  double enumerate_seconds = 0.0;  ///< in-class pair enumeration phase
  double group_seconds = 0.0;      ///< merge + group + rank phase
  double total_seconds = 0.0;
  /// PackedRows lane width of the blocked build's pair kernel (8 or 16);
  /// 0 when it ran the column loop (and always for the naive build).
  int lane_bits = 0;
};

/// Which front door BuildDifferenceSetIndex uses. kNaive (all pairs, each
/// difference set computed directly) stays available as the oracle the
/// blocked build is tested and benchmarked against.
enum class DiffSetBuildMode { kBlocked, kNaive };

/// How a delta landed on a DifferenceSetIndex: blast-radius counters for
/// observability (the wire reply and ApplyStats::reuse_ratio report them).
struct IndexPatch {
  int64_t edges_removed = 0;
  int64_t edges_added = 0;
  int groups_preserved = 0;  ///< old groups whose edge list survived intact
  int groups_changed = 0;    ///< post-patch groups that are new or changed
};

/// Conflict edges grouped by difference set, ordered by descending edge
/// frequency (ties: smaller attribute mask first) — the order in which the
/// heuristic prefers to pick them. All edges live in one array in that
/// group order, at the width kMaxNarrowTuples picks for the instance;
/// group i is the span [begin(i), begin(i + 1)) of it.
class DifferenceSetIndex {
 public:
  DifferenceSetIndex() = default;

  /// Restores an index from its parts (src/persist/): `diffs` in the
  /// canonical (descending frequency, smaller mask) order a live index
  /// produced, `begins` the size() + 1 ascending offsets of each group's
  /// edges in `edges`, from 0 to edges.size(), and `edges` sized for the
  /// instance's tuple count. Snapshots save groups in
  /// that order, and the reader rejects edges and difference sets outside
  /// the instance's shape.
  DifferenceSetIndex(std::vector<AttrSet> diffs, std::vector<size_t> begins,
                     EdgeArray edges)
      : diffs_(std::move(diffs)),
        begins_(std::move(begins)),
        edges_(std::move(edges)) {}

  /// Incrementally maintains the index after `inst` had a delta applied
  /// (delta.h). `dirty` is the plan's post-delta dirty id set (ascending)
  /// and `remap` its old->new id map; the index must have been built over
  /// the pre-delta instance with the same `sigma`. Surviving clean edges
  /// are kept as-is, only pairs with a dirty endpoint are (re)examined —
  /// O(Δ·n) packed comparisons sharded on `pool` (nullable = serial) — and
  /// the result is BIT-IDENTICAL to BuildDifferenceSetIndex over the
  /// post-delta instance for any thread count (the index is a pure
  /// function of {pair -> difference set}, and the delta only changes
  /// pairs with a dirty endpoint). The scan compares each dirty tuple
  /// with every partner, so an empty-LHS FD's full-disagreement pairs take
  /// the same path as every other edge. The next edge array is written in
  /// one filter + merge pass at the post-delta width, so a delta that takes
  /// the relation across kMaxNarrowTuples widens or narrows the index; the
  /// filter is skipped when no pre-delta tuple was deleted, moved or
  /// dirtied (an insert-only delta).
  IndexPatch ApplyDelta(const EncodedInstance& inst, const FDSet& sigma,
                        const std::vector<TupleId>& dirty,
                        const std::vector<TupleId>& remap,
                        exec::ThreadPool* pool);

  int size() const { return static_cast<int>(diffs_.size()); }
  bool empty() const { return diffs_.empty(); }
  DiffSetGroup group(int i) const {
    return {diffs_[i], edges().subspan(begins_[i], begins_[i + 1] - begins_[i])};
  }
  /// Every group's difference set, in group order.
  const std::vector<AttrSet>& diffs() const { return diffs_; }
  /// All edges, group after group.
  EdgeSpan edges() const { return edges_.view(); }

  /// Calls fn(edges_of) once, where edges_of(g) is group g's edges as a
  /// std::span of the stored edge type (EdgeSpan::Visit): the one width
  /// dispatch of a loop over many groups' edges.
  template <typename Fn>
  decltype(auto) VisitGroups(Fn&& fn) const {
    return edges().Visit([&](auto all) {
      return fn([this, all](int g) {
        return all.subspan(begins_[g], begins_[g + 1] - begins_[g]);
      });
    });
  }

  /// Indices of groups whose difference set violates at least one FD of
  /// `fds` (i.e. groups still in conflict under a candidate Σ').
  std::vector<int> ViolatingGroups(const FDSet& fds) const;

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<AttrSet> diffs_;
  std::vector<size_t> begins_ = {0};
  EdgeArray edges_;
};

/// True iff difference set `diff` violates at least one FD in `fds`.
bool DiffSetViolates(AttrSet diff, const FDSet& fds);

/// The blocked front door: pairs are enumerated only inside the stripped
/// classes of π_X, X ranging over the minimal distinct LHSs of `sigma` in
/// ascending mask order (duplicates and supersets of another LHS add no
/// pair, so they are skipped). A pair is owned by the first such X it
/// agrees on, so each candidate edge is examined once. Work is sharded
/// over (LHS, class) units on `pool` (nullable = serial); each chunk files
/// its conflict edges under their difference set, and each group is then
/// ordered on its own in O(edges + n), written at its final offset of the
/// edge array — BIT-IDENTICAL to the naive build for any thread count.
/// O(Σ_classes |c|²) pair compares instead of O(n²), each one a few words
/// of PackedRows when the codes fit its lanes and m column loads when not.
DifferenceSetIndex BuildDifferenceSetIndexBlocked(
    const EncodedInstance& inst, const FDSet& sigma, exec::ThreadPool* pool,
    DiffSetBuildStats* stats = nullptr);

/// Builds the difference-set index of (inst, sigma), sharded on the
/// borrowed `pool` (nullable = serial). The result is BIT-IDENTICAL for
/// any thread count and for either build mode.
/// FdSearchContext builds Σ's index with it (Algorithm 4 reads its covers
/// from that index); the standalone RepairData oracle builds a Σ' index.
/// `stats`, when non-null, receives the build's per-phase breakdown.
DifferenceSetIndex BuildDifferenceSetIndex(
    const EncodedInstance& inst, const FDSet& sigma, exec::ThreadPool* pool,
    DiffSetBuildMode mode = DiffSetBuildMode::kBlocked,
    DiffSetBuildStats* stats = nullptr);

}  // namespace retrust

#endif  // RETRUST_FD_DIFFERENCE_SET_H_
