// Near-optimal data modification (paper §6, Algorithms 4 and 5).
//
// Given Σ' and I, produces a V-instance I' |= Σ' changing at most
// |C2opt(Σ', I)| · min(|R|-1, |Σ'|) cells — a 2·min(|R|-1, |Σ|)-approximation
// of the minimum (Theorem 3). Tuples outside a 2-approximate vertex cover of
// the conflict graph are kept verbatim; each cover tuple is repaired
// attribute-by-attribute in random order, keeping a cell whenever some
// assignment to the still-free attributes avoids all violations against the
// clean set (Algorithm 5), and overwriting it from the last valid assignment
// otherwise.
//
// Where the cover comes from. Σ' only extends left-hand sides, so every
// Σ'-violating pair also violates Σ, and whether a pair violates Σ' depends
// only on its difference set. The Σ' difference-set index is therefore Σ's
// index filtered to the groups still violated under Σ' — same edges, same
// relative (frequency, diff) order. A search context already holds Σ's
// index and knows which groups its goal state violates, so the context
// front door reads the cover straight from it; the standalone front door
// builds the Σ' index itself and stays as the oracle for the context path.
// Both run one routine: the greedy matching over the given groups in
// ascending canonical order — the same cover whose size the search
// certified against τ (Theorem 2 consistency) — then the chase.

#ifndef RETRUST_REPAIR_REPAIR_DATA_H_
#define RETRUST_REPAIR_REPAIR_DATA_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/exec/options.h"
#include "src/fd/fdset.h"
#include "src/relational/dictionary.h"
#include "src/repair/modify_fds.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace retrust {

/// Result of RepairData.
struct DataRepairResult {
  EncodedInstance repaired;          ///< I' |= Σ' (a V-instance)
  std::vector<CellRef> changed_cells;  ///< Δd(I, I')
  int64_t cover_size = 0;            ///< |C2opt(Σ', I)|
  /// The paper's per-repair change bound: cover_size * min(|R|-1, |Σ'|).
  int64_t change_bound = 0;
};

/// Algorithm 4 from a search context: repairs `inst` — the instance `ctx`
/// was built over — for Σ' = `goal` applied to ctx.sigma(). The cover is
/// read from ctx.index() over the groups ctx.evaluator() marks violated
/// under `goal`; no index is built. `rng` drives the random tuple/attribute
/// orders; fix the seed for reproducible repairs. BIT-IDENTICAL to the
/// standalone overload below with the same seed. Thread-safe against other
/// const use of `ctx`.
DataRepairResult RepairData(const FdSearchContext& ctx,
                            const EncodedInstance& inst,
                            const SearchState& goal, Rng* rng);

/// Algorithm 4, standalone: builds the Σ' difference-set index of `inst`
/// (sharded per `eopts`; identical for any thread count) and repairs over
/// all of its groups. The oracle the context overload is tested against.
DataRepairResult RepairData(const EncodedInstance& inst,
                            const FDSet& sigma_prime, Rng* rng,
                            const exec::Options& eopts = {});

namespace internal {

/// Hash index over "clean" tuples, one map per FD: LHS projection codes ->
/// (RHS code, witness tuple). Clean tuples satisfy Σ', so the RHS is unique
/// per key. Exposed for unit tests.
class CleanIndex {
 public:
  CleanIndex(const EncodedInstance& inst, const FDSet& sigma_prime);

  /// Inserts tuple `t` of `inst` into every per-FD map.
  void Insert(const EncodedInstance& inst, TupleId t);

  /// For FD i, looks up the RHS code the clean set forces for the given
  /// LHS key; returns nullopt when the key is absent.
  std::optional<int32_t> ForcedRhs(int fd_index,
                                   const std::vector<int32_t>& lhs_key) const;

  /// Writes the LHS key of FD i for an arbitrary code row accessor into
  /// `key`, reusing its capacity.
  template <typename GetCode>
  void MakeKey(int fd_index, GetCode&& get, std::vector<int32_t>* key) const {
    key->clear();
    for (AttrId a : lhs_cols_[fd_index]) key->push_back(get(a));
  }

  const std::vector<AttrId>& lhs_cols(int fd_index) const {
    return lhs_cols_[fd_index];
  }

 private:
  std::vector<std::vector<AttrId>> lhs_cols_;
  std::vector<AttrId> rhs_col_;
  std::vector<int32_t> key_;  ///< Insert's key buffer
  // map per FD: key -> rhs code.
  std::vector<
      std::unordered_map<std::vector<int32_t>, int32_t, CodeVectorHash>>
      maps_;
};

/// Algorithm 5 (Find_Assignment): attempts to complete tuple `t` of `inst`
/// into an assignment `tc` equal to `t` on `fixed` and violating no FD
/// against the clean set. Returns true and leaves the full code row of `tc`
/// in `*tc` on success; returns false when impossible (`*tc` is then
/// garbage). `key` is scratch for the clean-set lookups. Both buffers keep
/// their capacity across calls, so a repair's chase allocates nothing per
/// lookup. `fixed` is taken by value — the additions the algorithm makes
/// while chasing forced values are local, as in the paper.
bool FindAssignment(EncodedInstance* inst, TupleId t, AttrSet fixed,
                    const FDSet& sigma_prime, const CleanIndex& clean,
                    std::vector<int32_t>* tc, std::vector<int32_t>* key);

}  // namespace internal

}  // namespace retrust

#endif  // RETRUST_REPAIR_REPAIR_DATA_H_
