// Memoized, resumable greedy matching covers over a fixed family of edge
// groups (the δP evaluation pipeline's second stage; see DESIGN.md).
//
// The repair search evaluates |C2opt(Σ', I)| for thousands of states, each
// a maximal-matching vertex cover over the union of the conflict-edge
// groups still violated under Σ'. Two observations make that cheap:
//
//  1. Many evaluations share the SAME group subset — near the goal
//     frontier sibling states often violate identical group sets, and the
//     gc recursion re-derives identical "unresolved" sets along different
//     branches — so cover sizes are memoized keyed by the subset.
//  2. A child state's violated set agrees with its parent's on a prefix of
//     the scan order, and the greedy scan's mark state after that prefix
//     depends only on the prefix — so a memo miss resumes matching from
//     the longest common prefix with the previous computation on the same
//     scratch instead of re-matching from empty.
//
// Greedy matching is ORDER-SENSITIVE, so there are two keying modes over
// the same infrastructure:
//  - subset keys (GroupBitset): groups scanned in ascending canonical
//    index order — the state-evaluation path (FdSearchContext::CoverSize);
//  - sequence keys (explicit group-id lists): groups scanned in the given
//    order — Algorithm 3 accumulates unresolved groups in selection order,
//    which is part of the key.
//
// Values are pure functions of the key, so caching can never change a
// result — only wall-clock time. The memo is only ever filled or preloaded
// from a snapshot, and it is bound to one group family for life: a delta
// that re-ranks the groups builds a new context with a new, empty memo, so
// keys are never translated between group families. The class is
// safe to share across threads: lookups/inserts are mutex-guarded,
// computations run outside the lock on pooled scratch owned by the memo
// and released when it dies (no process-lifetime thread_local pinning).

#ifndef RETRUST_GRAPH_COVER_MEMO_H_
#define RETRUST_GRAPH_COVER_MEMO_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/fd/difference_set.h"
#include "src/graph/graph.h"
#include "src/graph/group_bitset.h"

namespace retrust {

/// Memoized 2-approximate vertex covers over subsets/sequences of a fixed
/// group family. One instance serves one (Σ, I) context; every const
/// method is thread-safe.
class CoverMemo {
 public:
  /// Effectiveness counters (monotone; snapshot via stats()).
  struct Stats {
    int64_t hits = 0;            ///< covers answered from the memo
    int64_t misses = 0;          ///< covers actually (re)computed
    int64_t groups_scanned = 0;  ///< group edge lists scanned on misses
    int64_t groups_resumed = 0;  ///< group scans skipped via prefix resume

    double HitRate() const {
      int64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// The memo's cached covers in serialization form (src/persist/). Values
  /// are pure functions of their keys, so carrying entries across a
  /// save/load can only change wall-clock time, never a result.
  struct SnapshotEntries {
    std::vector<std::pair<GroupBitset, int32_t>> set_entries;
    std::vector<std::pair<std::vector<int32_t>, int32_t>> seq_entries;
  };

  /// The group family is `index`'s groups; the index must outlive the
  /// memo (FdSearchContext owns both, index first). `max_entries` caps
  /// EACH memo map; overflow disables insertion but never lookup (results
  /// stay exact, only colder).
  CoverMemo(const DifferenceSetIndex& index, int32_t num_vertices,
            size_t max_entries = size_t{1} << 20);

  /// Matching-cover size of the union of the set groups' edges, scanned in
  /// ascending group-index order (the canonical state-evaluation order).
  /// `key.num_bits()` must equal num_groups(). Sets *memo_hit when given.
  int32_t CoverSize(const GroupBitset& key, bool* memo_hit = nullptr) const;

  /// Matching-cover size of the union of `seq`'s groups scanned in the
  /// GIVEN order (greedy covers are order-sensitive; the order is part of
  /// the key). Ids may repeat; each occurrence is scanned like the legacy
  /// concatenation did.
  int32_t CoverSizeOrdered(const std::vector<int32_t>& seq,
                           bool* memo_hit = nullptr) const;

  /// Copies every cached cover, sorted by key so the export (and therefore
  /// a snapshot's bytes) is deterministic regardless of the unordered
  /// maps' iteration order.
  SnapshotEntries ExportEntries() const;

  /// Seeds the memo maps from exported entries (subject to max_entries).
  /// Entries whose keys do not fit this memo's group family — wrong bitset
  /// width, out-of-range group ids — are skipped rather than trusted.
  void Preload(SnapshotEntries entries);

  int num_groups() const { return index_.size(); }
  Stats stats() const;
  size_t entries() const;

 private:
  /// Epoch-marked vertex marks (same trick as MatchingCoverScratch).
  struct MarkArray {
    std::vector<uint32_t> mark;
    uint32_t epoch = 0;

    void Next(int32_t num_vertices) {
      if (static_cast<size_t>(num_vertices) > mark.size()) {
        mark.resize(static_cast<size_t>(num_vertices), 0);
      }
      if (++epoch == 0) {
        std::fill(mark.begin(), mark.end(), 0);
        epoch = 1;
      }
    }
    void Mark(int32_t v) { mark[v] = epoch; }
    bool Marked(int32_t v) const { return mark[v] == epoch; }
  };

  /// Scratch for subset-keyed computations. The hint is the previous
  /// query's key plus its matching, attributed to group indices.
  struct SetScratch {
    MarkArray marks;
    bool has_hint = false;
    GroupBitset last_key;
    std::vector<Edge> matched;
    std::vector<int32_t> matched_group;  // ascending, parallel to matched
  };

  /// Scratch for sequence-keyed computations; matches are attributed to
  /// sequence POSITIONS (the same id may occur at several positions).
  struct SeqScratch {
    MarkArray marks;
    bool has_hint = false;
    std::vector<int32_t> last_seq;
    std::vector<Edge> matched;
    std::vector<int32_t> matched_pos;  // ascending, parallel to matched
  };

  /// The memo lookup both keying modes share: `memo`'s value for `key`, or
  /// `compute` run outside the lock on scratch from `pool`, counted in
  /// stats_ and memoized while `memo` has room.
  template <typename Key, typename Map, typename Scratch>
  int32_t Lookup(const Key& key, Map& memo,
                 std::vector<std::unique_ptr<Scratch>>& pool,
                 int32_t (CoverMemo::*compute)(const Key&, Scratch*, int64_t*,
                                               int64_t*) const,
                 bool* memo_hit) const;

  int32_t ComputeSet(const GroupBitset& key, SetScratch* s, int64_t* scanned,
                     int64_t* resumed) const;
  int32_t ComputeSeq(const std::vector<int32_t>& seq, SeqScratch* s,
                     int64_t* scanned, int64_t* resumed) const;

  const DifferenceSetIndex& index_;
  const int32_t num_vertices_;
  const size_t max_entries_;

  mutable std::mutex mu_;
  mutable std::unordered_map<GroupBitset, int32_t, GroupBitsetHash> set_memo_;
  mutable std::unordered_map<std::vector<int32_t>, int32_t, CodeVectorHash>
      seq_memo_;
  mutable std::vector<std::unique_ptr<SetScratch>> set_scratch_;
  mutable std::vector<std::unique_ptr<SeqScratch>> seq_scratch_;
  mutable Stats stats_;
};

}  // namespace retrust

#endif  // RETRUST_GRAPH_COVER_MEMO_H_
