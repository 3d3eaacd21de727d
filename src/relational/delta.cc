#include "src/relational/delta.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace retrust {

namespace {

/// A variable written to column `attr` must name that column, and its
/// index must be non-negative (a negative one encodes to a constant's
/// dictionary code) with `index + 1` representable (the fresh-variable
/// counters store it).
void CheckVariable(const Value& v, AttrId attr, const char* where) {
  if (!v.is_variable()) return;
  const VarRef var = v.AsVariable();
  if (var.attr != attr) {
    throw std::invalid_argument(
        std::string(where) + " writes a variable of attribute " +
        std::to_string(var.attr) + " into attribute " + std::to_string(attr));
  }
  if (var.index < 0 || var.index == std::numeric_limits<int32_t>::max()) {
    throw std::invalid_argument(std::string(where) +
                                " variable index " +
                                std::to_string(var.index) + " out of range");
  }
}

}  // namespace

DeltaPlan PlanDelta(const DeltaBatch& delta, int num_tuples, int num_attrs) {
  DeltaPlan plan;
  plan.old_num_tuples = num_tuples;

  for (const Tuple& t : delta.inserts) {
    if (static_cast<int>(t.size()) != num_attrs) {
      throw std::invalid_argument(
          "delta insert arity " + std::to_string(t.size()) +
          " does not match the " + std::to_string(num_attrs) +
          "-attribute schema");
    }
    for (AttrId a = 0; a < num_attrs; ++a) {
      CheckVariable(t[a], a, "delta insert");
    }
  }
  for (const CellUpdate& u : delta.updates) {
    if (u.tuple < 0 || u.tuple >= num_tuples) {
      throw std::invalid_argument("delta update tuple id " +
                                  std::to_string(u.tuple) + " out of range");
    }
    if (u.attr < 0 || u.attr >= num_attrs) {
      throw std::invalid_argument("delta update attribute " +
                                  std::to_string(u.attr) + " out of range");
    }
    CheckVariable(u.value, u.attr, "delta update");
  }
  std::vector<TupleId> dels = delta.deletes;
  std::sort(dels.begin(), dels.end(), std::greater<TupleId>());
  for (size_t i = 0; i < dels.size(); ++i) {
    if (dels[i] < 0 || dels[i] >= num_tuples) {
      throw std::invalid_argument("delta delete tuple id " +
                                  std::to_string(dels[i]) + " out of range");
    }
    if (i > 0 && dels[i] == dels[i - 1]) {
      throw std::invalid_argument("duplicate delete of tuple id " +
                                  std::to_string(dels[i]));
    }
  }

  // Simulate the swap-removes (descending ids): slot_of tracks where each
  // pre-delta tuple currently lives, owner the reverse.
  std::vector<TupleId> slot_of(num_tuples);
  std::vector<TupleId> owner(num_tuples);
  for (TupleId t = 0; t < num_tuples; ++t) slot_of[t] = owner[t] = t;
  int live = num_tuples;
  for (TupleId d : dels) {
    TupleId hole = slot_of[d];
    TupleId last = owner[live - 1];
    if (hole != live - 1) {
      plan.moves.emplace_back(hole, live - 1);
      owner[hole] = last;
      slot_of[last] = hole;
    }
    slot_of[d] = -1;
    --live;
  }
  plan.remap = std::move(slot_of);

  plan.new_num_tuples = live + static_cast<int>(delta.inserts.size());

  // Dirty = updated survivors + relocated survivors + inserts, in
  // post-delta ids.
  std::vector<char> dirty(plan.new_num_tuples, 0);
  for (const CellUpdate& u : delta.updates) {
    TupleId t = plan.remap[u.tuple];
    if (t >= 0) dirty[t] = 1;
  }
  for (TupleId t = 0; t < num_tuples; ++t) {
    TupleId nt = plan.remap[t];
    if (nt >= 0 && nt != t) dirty[nt] = 1;
  }
  for (int i = 0; i < static_cast<int>(delta.inserts.size()); ++i) {
    dirty[live + i] = 1;
  }
  for (TupleId t = 0; t < plan.new_num_tuples; ++t) {
    if (dirty[t]) plan.dirty.push_back(t);
  }
  return plan;
}

void AdvanceFreshVariableCounters(const DeltaBatch& delta,
                                  std::vector<int32_t>* counters) {
  auto advance = [counters](AttrId a, const Value& v) {
    if (v.is_variable()) {
      (*counters)[a] = std::max((*counters)[a], v.AsVariable().index + 1);
    }
  };
  for (const CellUpdate& u : delta.updates) advance(u.attr, u.value);
  for (const Tuple& t : delta.inserts) {
    for (AttrId a = 0; a < static_cast<AttrId>(t.size()); ++a) {
      advance(a, t[a]);
    }
  }
}

}  // namespace retrust
