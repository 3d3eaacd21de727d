#include "src/graph/cover_memo.h"

namespace retrust {

CoverMemo::CoverMemo(std::vector<const std::vector<Edge>*> groups,
                     int32_t num_vertices, size_t max_entries)
    : groups_(std::move(groups)),
      num_vertices_(num_vertices),
      max_entries_(max_entries) {}

size_t CoverMemo::Reset(std::vector<const std::vector<Edge>*> groups,
                        int32_t num_vertices) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t dropped = set_memo_.size() + seq_memo_.size();
  set_memo_.clear();
  seq_memo_.clear();
  set_scratch_.clear();
  seq_scratch_.clear();
  groups_ = std::move(groups);
  num_vertices_ = num_vertices;
  return dropped;
}

int32_t CoverMemo::CoverSize(const GroupBitset& key, bool* memo_hit) const {
  std::unique_ptr<SetScratch> scratch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = set_memo_.find(key);
    if (it != set_memo_.end()) {
      ++stats_.hits;
      if (memo_hit != nullptr) *memo_hit = true;
      return it->second;
    }
    if (!set_scratch_.empty()) {
      scratch = std::move(set_scratch_.back());
      set_scratch_.pop_back();
    }
  }
  if (scratch == nullptr) scratch = std::make_unique<SetScratch>();
  int64_t scanned = 0;
  int64_t resumed = 0;
  int32_t size = ComputeSet(key, scratch.get(), &scanned, &resumed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    stats_.groups_scanned += scanned;
    stats_.groups_resumed += resumed;
    if (set_memo_.size() < max_entries_) set_memo_.emplace(key, size);
    set_scratch_.push_back(std::move(scratch));
  }
  if (memo_hit != nullptr) *memo_hit = false;
  return size;
}

int32_t CoverMemo::CoverSizeOrdered(const std::vector<int32_t>& seq,
                                    bool* memo_hit) const {
  std::unique_ptr<SeqScratch> scratch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = seq_memo_.find(seq);
    if (it != seq_memo_.end()) {
      ++stats_.hits;
      if (memo_hit != nullptr) *memo_hit = true;
      return it->second;
    }
    if (!seq_scratch_.empty()) {
      scratch = std::move(seq_scratch_.back());
      seq_scratch_.pop_back();
    }
  }
  if (scratch == nullptr) scratch = std::make_unique<SeqScratch>();
  int64_t scanned = 0;
  int64_t resumed = 0;
  int32_t size = ComputeSeq(seq, scratch.get(), &scanned, &resumed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    stats_.groups_scanned += scanned;
    stats_.groups_resumed += resumed;
    if (seq_memo_.size() < max_entries_) seq_memo_.emplace(seq, size);
    seq_scratch_.push_back(std::move(scratch));
  }
  if (memo_hit != nullptr) *memo_hit = false;
  return size;
}

// The prefix-resume argument, for both Compute variants: the greedy scan
// processes groups in key order, and its mark state after the first k
// groups is a pure function of those k groups. The hint's key agrees with
// the query on everything before `divergence`, so the hint's matched pairs
// attributed to that prefix ARE the from-scratch matching of the prefix;
// re-marking them and continuing the scan at `divergence` is bit-identical
// to a full recomputation (inductively, since the hint itself was computed
// this way).

int32_t CoverMemo::ComputeSet(const GroupBitset& key, SetScratch* s,
                              int64_t* scanned, int64_t* resumed) const {
  int divergence = s->has_hint ? s->last_key.FirstDifference(key) : 0;
  size_t keep = 0;
  while (keep < s->matched_group.size() &&
         s->matched_group[keep] < divergence) {
    ++keep;
  }
  s->matched.resize(keep);
  s->matched_group.resize(keep);

  s->marks.Next(num_vertices_);
  int32_t size = 0;
  for (size_t k = 0; k < keep; ++k) {
    s->marks.Mark(s->matched[k].u);
    s->marks.Mark(s->matched[k].v);
    size += 2;
  }
  *resumed += key.CountBefore(divergence);
  key.ForEachSet(
      [&](int g) {
        ++*scanned;
        for (const Edge& e : *groups_[g]) {
          if (!s->marks.Marked(e.u) && !s->marks.Marked(e.v)) {
            s->marks.Mark(e.u);
            s->marks.Mark(e.v);
            s->matched.push_back(e);
            s->matched_group.push_back(g);
            size += 2;
          }
        }
      },
      divergence);
  s->last_key = key;
  s->has_hint = true;
  return size;
}

int32_t CoverMemo::ComputeSeq(const std::vector<int32_t>& seq, SeqScratch* s,
                              int64_t* scanned, int64_t* resumed) const {
  size_t divergence = 0;
  if (s->has_hint) {
    size_t lim = std::min(s->last_seq.size(), seq.size());
    while (divergence < lim && s->last_seq[divergence] == seq[divergence]) {
      ++divergence;
    }
  }
  size_t keep = 0;
  while (keep < s->matched_pos.size() &&
         static_cast<size_t>(s->matched_pos[keep]) < divergence) {
    ++keep;
  }
  s->matched.resize(keep);
  s->matched_pos.resize(keep);

  s->marks.Next(num_vertices_);
  int32_t size = 0;
  for (size_t k = 0; k < keep; ++k) {
    s->marks.Mark(s->matched[k].u);
    s->marks.Mark(s->matched[k].v);
    size += 2;
  }
  *resumed += static_cast<int64_t>(divergence);
  for (size_t p = divergence; p < seq.size(); ++p) {
    ++*scanned;
    for (const Edge& e : *groups_[seq[p]]) {
      if (!s->marks.Marked(e.u) && !s->marks.Marked(e.v)) {
        s->marks.Mark(e.u);
        s->marks.Mark(e.v);
        s->matched.push_back(e);
        s->matched_pos.push_back(static_cast<int32_t>(p));
        size += 2;
      }
    }
  }
  s->last_seq = seq;
  s->has_hint = true;
  return size;
}

CoverMemo::SnapshotEntries CoverMemo::ExportEntries() const {
  SnapshotEntries out;
  std::lock_guard<std::mutex> lock(mu_);
  out.set_entries.assign(set_memo_.begin(), set_memo_.end());
  out.seq_entries.assign(seq_memo_.begin(), seq_memo_.end());
  std::sort(out.set_entries.begin(), out.set_entries.end(),
            [](const auto& a, const auto& b) {
              return a.first.words() < b.first.words();
            });
  std::sort(out.seq_entries.begin(), out.seq_entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void CoverMemo::Preload(SnapshotEntries entries) {
  const int n = num_groups();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, value] : entries.set_entries) {
    if (key.num_bits() != n) continue;
    if (set_memo_.size() >= max_entries_) break;
    set_memo_.emplace(std::move(key), value);
  }
  for (auto& [seq, value] : entries.seq_entries) {
    bool in_range = true;
    for (int32_t g : seq) in_range = in_range && g >= 0 && g < n;
    if (!in_range) continue;
    if (seq_memo_.size() >= max_entries_) break;
    seq_memo_.emplace(std::move(seq), value);
  }
}

CoverMemo::Stats CoverMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t CoverMemo::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return set_memo_.size() + seq_memo_.size();
}

}  // namespace retrust
