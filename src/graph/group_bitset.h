// A dynamic bitset over group indices.
//
// The δP evaluation pipeline (see DESIGN.md) represents "which
// difference-set groups does a search state violate" as a bitset over the
// canonical group order: ViolationTable produces it, CoverMemo keys its
// cover cache on it, and the prefix-resume optimization compares two keys
// word-by-word to find the first group where they diverge. Kept header-only
// and dependency-free so both src/fd/ and src/graph/ can use it.

#ifndef RETRUST_GRAPH_GROUP_BITSET_H_
#define RETRUST_GRAPH_GROUP_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/hash.h"

namespace retrust {

/// A fixed-universe set of group indices [0, num_bits), packed 64 per word.
class GroupBitset {
 public:
  GroupBitset() = default;
  explicit GroupBitset(int num_bits) { Reset(num_bits); }

  /// Resizes to `num_bits` and clears every bit.
  void Reset(int num_bits) {
    num_bits_ = num_bits;
    words_.assign(static_cast<size_t>(num_bits + 63) / 64, 0);
  }

  int num_bits() const { return num_bits_; }
  const std::vector<uint64_t>& words() const { return words_; }
  /// The packed words, for word-parallel writers. Bits at or above
  /// num_bits() must stay clear.
  uint64_t* mutable_words() { return words_.data(); }

  void Set(int i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(int i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  int Count() const {
    int c = 0;
    for (uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Number of set bits with index < i.
  int CountBefore(int i) const {
    if (i > num_bits_) i = num_bits_;
    if (i <= 0) return 0;
    int full = i >> 6;
    int c = 0;
    for (int w = 0; w < full; ++w) c += std::popcount(words_[w]);
    if ((i & 63) != 0) {
      c += std::popcount(words_[full] & ((uint64_t{1} << (i & 63)) - 1));
    }
    return c;
  }

  /// Index of the first bit on which *this and `o` differ; num_bits() when
  /// equal. Differently-sized bitsets differ everywhere (returns 0).
  int FirstDifference(const GroupBitset& o) const {
    if (o.num_bits_ != num_bits_) return 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t x = words_[w] ^ o.words_[w];
      if (x != 0) {
        return static_cast<int>(w * 64) + std::countr_zero(x);
      }
    }
    return num_bits_;
  }

  /// Calls fn(index) for every set bit >= `from`, in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn, int from = 0) const {
    if (from < 0) from = 0;
    size_t w = static_cast<size_t>(from) >> 6;
    if (w >= words_.size()) return;
    uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
    while (true) {
      while (word != 0) {
        fn(static_cast<int>(w * 64) + std::countr_zero(word));
        word &= word - 1;
      }
      if (++w >= words_.size()) return;
      word = words_[w];
    }
  }

  friend bool operator==(const GroupBitset& a, const GroupBitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const GroupBitset& a, const GroupBitset& b) {
    return !(a == b);
  }

 private:
  std::vector<uint64_t> words_;
  int num_bits_ = 0;
};

/// Hasher so GroupBitset can key unordered containers (the cover memo).
struct GroupBitsetHash {
  size_t operator()(const GroupBitset& s) const {
    uint64_t seed = 0x2545f4914f6cdd1dULL ^
                    static_cast<uint64_t>(static_cast<uint32_t>(s.num_bits()));
    for (uint64_t w : s.words()) HashCombine(&seed, w);
    return static_cast<size_t>(seed);
  }
};

}  // namespace retrust

#endif  // RETRUST_GRAPH_GROUP_BITSET_H_
