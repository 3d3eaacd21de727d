#include "src/relational/instance.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/relational/delta.h"

namespace retrust {

void ThrowFreshVariablesExhausted(AttrId a) {
  throw std::overflow_error("attribute " + std::to_string(a) +
                            " has no fresh variable index left");
}

void Instance::AddTuple(Tuple t) {
  if (static_cast<int>(t.size()) != NumAttrs()) {
    throw std::invalid_argument("tuple arity does not match schema");
  }
  // Keep the per-attribute fresh-variable counters ahead of any variables
  // already present in inserted tuples.
  for (int a = 0; a < NumAttrs(); ++a) {
    if (t[a].is_variable()) {
      next_var_index_[a] = std::max(next_var_index_[a],
                                    t[a].AsVariable().index + 1);
    }
  }
  rows_.push_back(std::move(t));
}

void Instance::ApplyDelta(const DeltaBatch& delta, const DeltaPlan& plan) {
  AdvanceFreshVariableCounters(delta, &next_var_index_);
  for (const CellUpdate& u : delta.updates) rows_[u.tuple][u.attr] = u.value;
  for (const auto& [dst, src] : plan.moves) rows_[dst] = std::move(rows_[src]);
  rows_.resize(static_cast<size_t>(plan.new_num_tuples) -
               delta.inserts.size());
  rows_.insert(rows_.end(), delta.inserts.begin(), delta.inserts.end());
}

std::vector<CellRef> Instance::DiffCells(const Instance& other) const {
  if (NumTuples() != other.NumTuples() || !(schema_ == other.schema_)) {
    throw std::invalid_argument("DiffCells requires same schema/cardinality");
  }
  std::vector<CellRef> out;
  for (TupleId t = 0; t < NumTuples(); ++t) {
    for (AttrId a = 0; a < NumAttrs(); ++a) {
      if (At(t, a) != other.At(t, a)) out.push_back({t, a});
    }
  }
  return out;
}

Instance Instance::Ground() const {
  Instance out(schema_);
  // Per attribute: the set of used string renderings (to stay outside the
  // active domain) and the max int used (for integer attributes).
  std::vector<std::unordered_set<std::string>> used_strings(NumAttrs());
  std::vector<int64_t> max_int(NumAttrs(), 0);
  for (TupleId t = 0; t < NumTuples(); ++t) {
    for (AttrId a = 0; a < NumAttrs(); ++a) {
      const Value& v = At(t, a);
      if (v.kind() == Value::Kind::kInt) {
        max_int[a] = std::max(max_int[a], v.AsInt());
      } else if (v.kind() == Value::Kind::kString) {
        used_strings[a].insert(v.AsString());
      }
    }
  }
  for (TupleId t = 0; t < NumTuples(); ++t) {
    Tuple row = rows_[t];
    for (AttrId a = 0; a < NumAttrs(); ++a) {
      if (!row[a].is_variable()) continue;
      VarRef var = row[a].AsVariable();
      switch (schema_.type(a)) {
        case AttrType::kInt:
          // Fresh, distinct, outside the active domain.
          row[a] = Value(max_int[a] + 1 + var.index);
          break;
        case AttrType::kDouble:
          row[a] = Value(1e18 + static_cast<double>(var.index));
          break;
        case AttrType::kString: {
          std::string s = "_v" + std::to_string(a) + "_" +
                          std::to_string(var.index);
          while (used_strings[a].count(s)) s += "'";
          row[a] = Value(s);
          break;
        }
      }
    }
    out.AddTuple(std::move(row));
  }
  return out;
}

bool Instance::IsGround() const {
  for (TupleId t = 0; t < NumTuples(); ++t) {
    for (AttrId a = 0; a < NumAttrs(); ++a) {
      if (At(t, a).is_variable()) return false;
    }
  }
  return true;
}

std::string Instance::ToTable() const {
  std::vector<size_t> width(NumAttrs());
  std::vector<std::vector<std::string>> cells(NumTuples());
  for (AttrId a = 0; a < NumAttrs(); ++a) width[a] = schema_.name(a).size();
  for (TupleId t = 0; t < NumTuples(); ++t) {
    cells[t].resize(NumAttrs());
    for (AttrId a = 0; a < NumAttrs(); ++a) {
      cells[t][a] = At(t, a).ToString(schema_.name(a));
      width[a] = std::max(width[a], cells[t][a].size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (AttrId a = 0; a < NumAttrs(); ++a) {
    out += pad(schema_.name(a), width[a]) + (a + 1 < NumAttrs() ? " | " : "\n");
  }
  for (TupleId t = 0; t < NumTuples(); ++t) {
    for (AttrId a = 0; a < NumAttrs(); ++a) {
      out += pad(cells[t][a], width[a]) + (a + 1 < NumAttrs() ? " | " : "\n");
    }
  }
  return out;
}

}  // namespace retrust
