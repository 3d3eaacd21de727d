// Dictionary-encoded instances: the representation all algorithm kernels
// run on.
//
// Each attribute gets a Dictionary mapping constants to dense non-negative
// codes; variables are encoded as negative codes (variable index i maps to
// code -(i+1)). Under this encoding, V-instance cell equality is exactly
// int32 equality:
//   * equal constants share a code;
//   * a variable equals only itself (same negative code);
//   * variables never collide with constants (sign differs).
//
// Storage is column-major (SoA): one contiguous int32_t column per
// attribute. Per-attribute kernels — partitioning, agree/disagree tests,
// the blocked difference-set build — stream a single cache-friendly array
// instead of striding row-major cells; At(t, a) remains the row-oriented
// compatibility accessor for everything else.

#ifndef RETRUST_RELATIONAL_DICTIONARY_H_
#define RETRUST_RELATIONAL_DICTIONARY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/relational/instance.h"

namespace retrust {

/// Per-attribute constant dictionary (code <-> Value).
class Dictionary {
 public:
  /// Returns the code for `v`, interning it if new. `v` must be a constant.
  int32_t Intern(const Value& v);

  /// Returns the code for `v` or -1 if absent (for lookups; note -1 is never
  /// a constant code).
  int32_t Lookup(const Value& v) const;

  const Value& value(int32_t code) const { return values_[code]; }
  int32_t size() const { return static_cast<int32_t>(values_.size()); }

  /// All interned constants in code order (code i is values()[i]) — the
  /// serialization surface of src/persist/.
  const std::vector<Value>& values() const { return values_; }

  /// Rebuilds a dictionary from a code-ordered constant list (the inverse
  /// of values()); the lookup index is reconstructed. Throws
  /// std::invalid_argument on duplicate or non-constant values.
  static Dictionary FromValues(std::vector<Value> values);

 private:
  std::vector<Value> values_;
  std::unordered_map<Value, int32_t, ValueHash> index_;
};

/// Encodes a variable index as a cell code and back.
inline int32_t VariableCode(int32_t var_index) { return -(var_index + 1); }
inline int32_t VariableIndexOfCode(int32_t code) { return -code - 1; }
inline bool IsVariableCode(int32_t code) { return code < 0; }

/// A dictionary-encoded (V-)instance. Mutable: the repair algorithms edit
/// cells in place (constants from the dictionary, or fresh variables).
class EncodedInstance {
 public:
  EncodedInstance() = default;

  /// Encodes `inst`. Variables keep their indices (as negative codes).
  explicit EncodedInstance(const Instance& inst);

  /// Applies a mutation batch in the canonical order (delta.h), mirroring
  /// Instance::ApplyDelta positionally. Updated and inserted constants
  /// reuse existing dictionary codes (new values are interned, the
  /// dictionaries only ever grow — codes are stable across deltas, so
  /// untouched cells keep their codes and derived structures can be
  /// patched instead of rebuilt). `plan` must come from PlanDelta against
  /// this instance's current shape. O(Δ·m + moved rows) per column set.
  void ApplyDelta(const DeltaBatch& delta, const DeltaPlan& plan);

  const Schema& schema() const { return schema_; }
  int NumTuples() const { return n_; }
  int NumAttrs() const { return m_; }

  int32_t At(TupleId t, AttrId a) const { return cols_[a][t]; }
  void SetCode(TupleId t, AttrId a, int32_t code) { cols_[a][t] = code; }

  /// Sets t[a] to a fresh variable and returns its code.
  int32_t SetFreshVariable(TupleId t, AttrId a);

  /// Returns a fresh variable code for attribute `a` without assigning it.
  int32_t NewVariableCode(AttrId a) {
    return VariableCode(TakeFreshVariableIndex(&next_var_[a], a));
  }

  /// Takes counts[a] fresh indices of every attribute a at once (the ones
  /// from next_var_counters()[a] on), as rounds j = 0, 1, ... of
  /// NewVariableCode over the attributes with counts[a] > j, in ascending
  /// order, would. When a counter would reach the cap, throws what the
  /// first of those calls to reach it would, and takes nothing.
  void TakeFreshVariableRounds(const std::vector<int32_t>& counts);

  /// One attribute's column of cell codes, indexed by TupleId — the
  /// streaming surface of the blocked build and of src/persist/.
  const std::vector<int32_t>& column(AttrId a) const { return cols_[a]; }
  /// Raw pointer form of column(): kernels hoist this out of pair loops so
  /// each cell test is a single indexed load (no Flat(t, a) multiply).
  const int32_t* ColumnData(AttrId a) const { return cols_[a].data(); }

  const std::vector<int32_t>& next_var_counters() const { return next_var_; }

  /// Rebuilds an encoded instance from its serialized parts (the inverse
  /// of column()/dictionary()/next_var_counters()): one code vector per
  /// attribute, each of length `num_tuples`. Throws std::invalid_argument
  /// on shape mismatches (columns/dicts/counters not matching the schema
  /// and cardinality).
  static EncodedInstance Restore(Schema schema, int num_tuples,
                                 std::vector<std::vector<int32_t>> columns,
                                 std::vector<Dictionary> dicts,
                                 std::vector<int32_t> next_var);

  /// Decodes one cell back to a Value.
  Value DecodeCell(TupleId t, AttrId a) const;

  /// Decodes the whole instance.
  Instance Decode() const;

  /// Number of constants interned for attribute `a` (from the encoded
  /// snapshot; used by distinct-count weighting).
  int32_t DictionarySize(AttrId a) const { return dicts_[a].size(); }

  const Dictionary& dictionary(AttrId a) const { return dicts_[a]; }

  /// Number of distinct rows of the projection onto `attrs`, scanning the
  /// current cell codes (the paper's F_count(Y) = |π_Y(I)|).
  int64_t CountDistinctProjection(AttrSet attrs) const;

  /// Cells whose codes differ from `other` (same shape required), in
  /// (tuple, attr) order.
  std::vector<CellRef> DiffCells(const EncodedInstance& other) const;

  /// |Δd| against `other`.
  int DistdTo(const EncodedInstance& other) const {
    return static_cast<int>(DiffCells(other).size());
  }

 private:
  /// Encodes one value for attribute `a` (interning constants, keeping
  /// variable indices; ApplyDelta advances the counters).
  int32_t EncodeValue(const Value& v, AttrId a);

  Schema schema_;
  int n_ = 0;
  int m_ = 0;
  std::vector<std::vector<int32_t>> cols_;  ///< cols_[a][t], m_ columns
  std::vector<Dictionary> dicts_;
  std::vector<int32_t> next_var_;
};

}  // namespace retrust

#endif  // RETRUST_RELATIONAL_DICTIONARY_H_
