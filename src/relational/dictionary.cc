#include "src/relational/dictionary.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/relational/delta.h"

namespace retrust {

int32_t Dictionary::Intern(const Value& v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(values_.size());
  values_.push_back(v);
  index_.emplace(v, code);
  return code;
}

int32_t Dictionary::Lookup(const Value& v) const {
  auto it = index_.find(v);
  return it == index_.end() ? -1 : it->second;
}

Dictionary Dictionary::FromValues(std::vector<Value> values) {
  Dictionary d;
  d.values_ = std::move(values);
  d.index_.reserve(d.values_.size());
  for (size_t i = 0; i < d.values_.size(); ++i) {
    if (d.values_[i].is_variable()) {
      throw std::invalid_argument("dictionary values must be constants");
    }
    auto [it, inserted] =
        d.index_.emplace(d.values_[i], static_cast<int32_t>(i));
    if (!inserted) {
      throw std::invalid_argument("duplicate dictionary value at code " +
                                  std::to_string(i));
    }
  }
  return d;
}

EncodedInstance::EncodedInstance(const Instance& inst)
    : schema_(inst.schema()), n_(inst.NumTuples()), m_(inst.NumAttrs()) {
  cols_.resize(m_);
  for (AttrId a = 0; a < m_; ++a) cols_[a].resize(n_);
  dicts_.resize(m_);
  next_var_.assign(m_, 0);
  for (TupleId t = 0; t < n_; ++t) {
    for (AttrId a = 0; a < m_; ++a) {
      const Value& v = inst.At(t, a);
      int32_t code;
      if (v.is_variable()) {
        int32_t idx = v.AsVariable().index;
        code = VariableCode(idx);
        if (idx + 1 > next_var_[a]) next_var_[a] = idx + 1;
      } else {
        code = dicts_[a].Intern(v);
      }
      cols_[a][t] = code;
    }
  }
}

int32_t EncodedInstance::EncodeValue(const Value& v, AttrId a) {
  if (v.is_variable()) return VariableCode(v.AsVariable().index);
  return dicts_[a].Intern(v);
}

void EncodedInstance::ApplyDelta(const DeltaBatch& delta,
                                 const DeltaPlan& plan) {
  AdvanceFreshVariableCounters(delta, &next_var_);
  for (const CellUpdate& u : delta.updates) {
    cols_[u.attr][u.tuple] = EncodeValue(u.value, u.attr);
  }
  for (const auto& [dst, src] : plan.moves) {
    for (AttrId a = 0; a < m_; ++a) cols_[a][dst] = cols_[a][src];
  }
  const int live = plan.new_num_tuples - static_cast<int>(delta.inserts.size());
  n_ = plan.new_num_tuples;
  for (AttrId a = 0; a < m_; ++a) cols_[a].resize(n_);
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    const Tuple& t = delta.inserts[i];
    TupleId row = live + static_cast<TupleId>(i);
    for (AttrId a = 0; a < m_; ++a) {
      cols_[a][row] = EncodeValue(t[a], a);
    }
  }
}

EncodedInstance EncodedInstance::Restore(
    Schema schema, int num_tuples, std::vector<std::vector<int32_t>> columns,
    std::vector<Dictionary> dicts, std::vector<int32_t> next_var) {
  const int m = schema.NumAttrs();
  if (num_tuples < 0 || columns.size() != static_cast<size_t>(m) ||
      dicts.size() != static_cast<size_t>(m) ||
      next_var.size() != static_cast<size_t>(m)) {
    throw std::invalid_argument("encoded-instance parts do not match shape");
  }
  for (AttrId a = 0; a < m; ++a) {
    if (columns[a].size() != static_cast<size_t>(num_tuples)) {
      throw std::invalid_argument("column length mismatch for attribute " +
                                  std::to_string(a));
    }
    for (const int32_t code : columns[a]) {
      if (IsVariableCode(code) ? VariableIndexOfCode(code) >= next_var[a]
                               : code >= dicts[a].size()) {
        throw std::invalid_argument("cell code out of range for attribute " +
                                    std::to_string(a));
      }
    }
  }
  EncodedInstance out;
  out.schema_ = std::move(schema);
  out.n_ = num_tuples;
  out.m_ = m;
  out.cols_ = std::move(columns);
  out.dicts_ = std::move(dicts);
  out.next_var_ = std::move(next_var);
  return out;
}

void EncodedInstance::TakeFreshVariableRounds(
    const std::vector<int32_t>& counts) {
  // Round j would hand attribute a the index next_var_[a] + j, which
  // reaches the cap in round `left`: the first failing call is the one with
  // the fewest indices left, the lowest attribute among equals.
  AttrId exhausted = -1;
  int32_t exhausted_left = 0;
  for (AttrId a = 0; a < m_; ++a) {
    const int32_t left = std::numeric_limits<int32_t>::max() - next_var_[a];
    if (counts[a] > left && (exhausted < 0 || left < exhausted_left)) {
      exhausted = a;
      exhausted_left = left;
    }
  }
  if (exhausted >= 0) ThrowFreshVariablesExhausted(exhausted);
  for (AttrId a = 0; a < m_; ++a) next_var_[a] += counts[a];
}

int32_t EncodedInstance::SetFreshVariable(TupleId t, AttrId a) {
  int32_t code = NewVariableCode(a);
  SetCode(t, a, code);
  return code;
}

Value EncodedInstance::DecodeCell(TupleId t, AttrId a) const {
  int32_t code = At(t, a);
  if (IsVariableCode(code)) {
    return Value::Variable(a, VariableIndexOfCode(code));
  }
  return dicts_[a].value(code);
}

Instance EncodedInstance::Decode() const {
  Instance out(schema_);
  for (TupleId t = 0; t < n_; ++t) {
    Tuple row(m_);
    for (AttrId a = 0; a < m_; ++a) row[a] = DecodeCell(t, a);
    out.AddTuple(std::move(row));
  }
  return out;
}

int64_t EncodedInstance::CountDistinctProjection(AttrSet attrs) const {
  if (n_ == 0) return 0;
  // Each tuple's class on the attributes so far is refined by one column
  // at a time: its next class is the dense number of (class, code), given
  // in first-seen order through one flat open-addressing table. The empty
  // key marks a free slot; a class is below n, so no real key has its
  // high word all ones.
  struct Slot {
    uint64_t key;
    int32_t next;
  };
  constexpr uint64_t kFree = ~uint64_t{0};
  int shift = 63;
  while ((size_t{1} << (64 - shift)) < 2 * static_cast<size_t>(n_)) --shift;
  const size_t mask = (size_t{1} << (64 - shift)) - 1;
  std::vector<Slot> table(mask + 1);
  std::vector<int32_t> cls(n_, 0);
  int32_t classes = 1;
  for (AttrId a : attrs) {
    if (classes == n_) break;  // every tuple is alone already
    std::fill(table.begin(), table.end(), Slot{kFree, 0});
    const int32_t* col = ColumnData(a);
    classes = 0;
    for (TupleId t = 0; t < n_; ++t) {
      const uint64_t key = uint64_t{static_cast<uint32_t>(cls[t])} << 32 |
                           static_cast<uint32_t>(col[t]);
      size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
      while (table[i].key != key && table[i].key != kFree) i = (i + 1) & mask;
      if (table[i].key == kFree) table[i] = {key, classes++};
      cls[t] = table[i].next;
    }
  }
  return classes;
}

std::vector<CellRef> EncodedInstance::DiffCells(
    const EncodedInstance& other) const {
  if (n_ != other.n_ || m_ != other.m_) {
    throw std::invalid_argument("DiffCells requires same shape");
  }
  std::vector<CellRef> out;
  for (TupleId t = 0; t < n_; ++t) {
    for (AttrId a = 0; a < m_; ++a) {
      if (At(t, a) != other.At(t, a)) out.push_back({t, a});
    }
  }
  return out;
}

}  // namespace retrust
