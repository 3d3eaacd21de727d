// Relation instances with V-instance semantics (paper Definition 1).
//
// An Instance is a bag of tuples over a Schema. Cells hold Values, which may
// be attribute-scoped variables; Ground() materializes one representative
// ground instance by instantiating each variable to a fresh constant outside
// the attribute's active domain (distinct variables get distinct constants),
// exactly the paper's instantiation rule.

#ifndef RETRUST_RELATIONAL_INSTANCE_H_
#define RETRUST_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/relational/schema.h"
#include "src/relational/value.h"

namespace retrust {

/// Throws std::overflow_error: attribute `a` has no fresh-variable index
/// left.
[[noreturn]] void ThrowFreshVariablesExhausted(AttrId a);

/// Returns `*next` as attribute `a`'s next fresh-variable index and
/// advances it. Throws std::overflow_error once the index space is spent:
/// INT32_MAX is never handed out, since a variable's code is −(index + 1).
inline int32_t TakeFreshVariableIndex(int32_t* next, AttrId a) {
  if (*next == std::numeric_limits<int32_t>::max()) {
    ThrowFreshVariablesExhausted(a);
  }
  return (*next)++;
}

struct DeltaBatch;
struct DeltaPlan;

/// Index of a tuple within an instance.
using TupleId = int32_t;

/// One row; cells are positionally aligned with the schema.
using Tuple = std::vector<Value>;

/// Identifies a cell t[A].
struct CellRef {
  TupleId tuple = -1;
  AttrId attr = -1;

  friend bool operator==(const CellRef& a, const CellRef& b) {
    return a.tuple == b.tuple && a.attr == b.attr;
  }
  friend bool operator<(const CellRef& a, const CellRef& b) {
    return a.tuple != b.tuple ? a.tuple < b.tuple : a.attr < b.attr;
  }
};

/// A (V-)instance of a schema.
class Instance {
 public:
  Instance() = default;
  explicit Instance(Schema schema)
      : schema_(std::move(schema)),
        next_var_index_(schema_.NumAttrs(), 0) {}

  const Schema& schema() const { return schema_; }
  int NumAttrs() const { return schema_.NumAttrs(); }
  int NumTuples() const { return static_cast<int>(rows_.size()); }

  /// Appends a tuple; must have exactly NumAttrs() cells.
  void AddTuple(Tuple t);

  /// Applies a mutation batch in the canonical order (delta.h): updates,
  /// swap-remove deletes, appends. `plan` must come from PlanDelta against
  /// this instance's current shape; all validation happened there.
  void ApplyDelta(const DeltaBatch& delta, const DeltaPlan& plan);

  const Tuple& row(TupleId t) const { return rows_[t]; }
  const Value& At(TupleId t, AttrId a) const { return rows_[t][a]; }
  void Set(TupleId t, AttrId a, Value v) { rows_[t][a] = std::move(v); }

  /// Returns a fresh variable value for attribute `a` (new index each call).
  Value NewVariable(AttrId a) {
    return Value::Variable(a, TakeFreshVariableIndex(&next_var_index_[a], a));
  }

  /// Per-attribute fresh-variable counters — serialized by src/persist/ so
  /// a restored instance keeps allocating variables where this one stopped
  /// (cell values alone don't determine the counters: a repair may have
  /// consumed indices whose variables were later overwritten).
  const std::vector<int32_t>& next_var_counters() const {
    return next_var_index_;
  }
  void RestoreNextVarCounters(std::vector<int32_t> counters) {
    next_var_index_ = std::move(counters);
  }

  /// Cells whose values differ between *this and `other` (same schema &
  /// cardinality required): the paper's Δd(I, I').
  std::vector<CellRef> DiffCells(const Instance& other) const;

  /// |Δd(I, other)| — the paper's distd.
  int DistdTo(const Instance& other) const {
    return static_cast<int>(DiffCells(other).size());
  }

  /// Replaces every variable with a fresh constant outside the attribute's
  /// active domain; distinct variables map to distinct constants.
  Instance Ground() const;

  /// True if no cell is a variable.
  bool IsGround() const;

  /// Pretty-prints as an aligned table (for examples and debugging).
  std::string ToTable() const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
  // Next fresh variable index per attribute.
  std::vector<int32_t> next_var_index_;
};

}  // namespace retrust

#endif  // RETRUST_RELATIONAL_INSTANCE_H_
