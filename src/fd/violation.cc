#include "src/fd/violation.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/exec/parallel_for.h"
#include "src/fd/partition.h"

namespace retrust {
namespace {

// Emits all violating pairs of one LHS class: sub-partition on the RHS
// code, then all cross-group pairs.
void EmitClassPairs(const int32_t* rhs_col, const TupleId* tuples, int count,
                    std::vector<Edge>* out) {
  std::unordered_map<int32_t, std::vector<TupleId>> groups;
  for (int i = 0; i < count; ++i) {
    groups[rhs_col[tuples[i]]].push_back(tuples[i]);
  }
  if (groups.size() < 2) return;
  for (auto it = groups.begin(); it != groups.end(); ++it) {
    auto jt = it;
    for (++jt; jt != groups.end(); ++jt) {
      for (TupleId u : it->second) {
        for (TupleId v : jt->second) out->emplace_back(u, v);
      }
    }
  }
}

}  // namespace

bool Satisfies(const EncodedInstance& inst, const FD& fd) {
  if (fd.IsTrivial()) return true;
  Partition p = PartitionBy(inst, fd.lhs);
  const int32_t* rhs_col = inst.ColumnData(fd.rhs);
  // X -> A holds iff every X-class sees a single RHS code: one streaming
  // pass recording the first code per class.
  std::vector<int32_t> first(p.num_classes);
  std::vector<char> seen(p.num_classes, 0);
  for (TupleId t = 0; t < inst.NumTuples(); ++t) {
    const int32_t label = p.labels[t];
    if (!seen[label]) {
      seen[label] = 1;
      first[label] = rhs_col[t];
    } else if (first[label] != rhs_col[t]) {
      return false;
    }
  }
  return true;
}

bool Satisfies(const EncodedInstance& inst, const FDSet& fds) {
  for (const FD& fd : fds.fds()) {
    if (!Satisfies(inst, fd)) return false;
  }
  return true;
}

std::vector<Edge> ViolatingPairs(const EncodedInstance& inst, const FD& fd,
                                 exec::ThreadPool* pool) {
  std::vector<Edge> out;
  if (fd.IsTrivial()) return out;
  // The violating pairs of X -> A are exactly the same-X-class,
  // different-A pairs, so the partition machinery (partition.h) does the
  // heavy lifting: no pair outside an X-class is ever looked at.
  const StrippedCsr csr = StripClasses(PartitionBy(inst, fd.lhs));
  const int32_t* rhs_col = inst.ColumnData(fd.rhs);

  // Sharded quadratic phase over classes: each chunk emits into its own
  // buffer; buffers are concatenated in chunk order and the final sort
  // makes the output canonical for any thread count.
  exec::ChunkPlan plan =
      exec::PlanChunks(static_cast<int64_t>(csr.num_classes()), pool);
  std::vector<std::vector<Edge>> buffers(
      static_cast<size_t>(std::max(plan.num_chunks, 0)));
  exec::ParallelFor(pool, plan,
                    [&](int64_t begin, int64_t end, int chunk) {
                      for (int64_t c = begin; c < end; ++c) {
                        EmitClassPairs(rhs_col,
                                       csr.members.data() + csr.offsets[c],
                                       csr.offsets[c + 1] - csr.offsets[c],
                                       &buffers[chunk]);
                      }
                    });
  size_t total = 0;
  for (const auto& b : buffers) total += b.size();
  out.reserve(total);
  for (const auto& b : buffers) out.insert(out.end(), b.begin(), b.end());
  std::sort(out.begin(), out.end());
  return out;
}

int64_t CountViolatingTuples(const EncodedInstance& inst, const FDSet& fds) {
  std::unordered_set<TupleId> violating;
  for (const FD& fd : fds.fds()) {
    if (fd.IsTrivial()) continue;
    const StrippedCsr csr = StripClasses(PartitionBy(inst, fd.lhs));
    const int32_t* rhs_col = inst.ColumnData(fd.rhs);
    for (int c = 0; c < csr.num_classes(); ++c) {
      const TupleId* tuples = csr.members.data() + csr.offsets[c];
      const int count = csr.offsets[c + 1] - csr.offsets[c];
      bool mixed = false;
      for (int i = 1; i < count && !mixed; ++i) {
        mixed = rhs_col[tuples[i]] != rhs_col[tuples[0]];
      }
      if (mixed) {
        for (int i = 0; i < count; ++i) violating.insert(tuples[i]);
      }
    }
  }
  return static_cast<int64_t>(violating.size());
}

}  // namespace retrust
