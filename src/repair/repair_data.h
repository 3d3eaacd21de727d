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
//
// Two halves. Neither the cover nor the clean set over I ∖ C depends on
// the seed, so both live in an immutable RepairBase; only the chase of the
// cover tuples (RepairFromBase) is seed-driven. The chase reads the base
// and inserts each repaired tuple into a per-call overlay, so one base
// serves any number of seeds without a copy. It runs Algorithm 5 once per
// cover tuple, incrementally across the tuple's m pins (TupleChase), with
// the output of m from-scratch calls.

#ifndef RETRUST_REPAIR_REPAIR_DATA_H_
#define RETRUST_REPAIR_REPAIR_DATA_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/fd/difference_set.h"
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

namespace internal {

/// Open-addressing hash map from a fixed-width key of int32 codes to one
/// int32 value. Entries live densely in insertion order (`width` codes per
/// key, no heap block per key); the slot array holds (hash tag, entry
/// index) pairs and is probed linearly at load ≤ 1/2. Callers hash a key
/// once with Hash() and pass that hash to every probe. Exposed for unit
/// tests.
class FlatKeyMap {
 public:
  /// `min_slots` (rounded up to a power of two, at least 2) is the initial
  /// slot count; the table doubles when it would pass half full.
  explicit FlatKeyMap(int width, size_t min_slots = 16);

  /// One multiply per code, then one Mix64 over the whole key.
  static uint64_t Hash(const int32_t* key, int width) {
    uint64_t h = static_cast<uint64_t>(width);
    for (int i = 0; i < width; ++i) {
      h = (h ^ static_cast<uint32_t>(key[i])) * 0x9e3779b97f4a7c15ULL;
    }
    return Mix64(h);
  }

  /// The value stored under `key` (hashing to `hash`), or nullptr. The
  /// pointer stays valid until the next Insert.
  const int32_t* Find(const int32_t* key, uint64_t hash) const;

  /// Stores (key, value) unless `key` is present. Returns the value now
  /// stored under `key` and whether this call inserted it.
  std::pair<int32_t, bool> Insert(const int32_t* key, uint64_t hash,
                                  int32_t value);

  int width() const { return width_; }
  size_t size() const { return values_.size(); }
  size_t slot_count() const { return slots_.size(); }
  /// Heap bytes held (slots, keys and values).
  size_t Bytes() const;

  /// Same entries in the same insertion order.
  friend bool operator==(const FlatKeyMap& a, const FlatKeyMap& b) {
    return a.width_ == b.width_ && a.keys_ == b.keys_ &&
           a.values_ == b.values_;
  }

 private:
  /// Slot of `key` if present, else the empty slot where it would go.
  size_t Probe(const int32_t* key, uint64_t hash) const;
  void Grow();

  int width_;
  std::vector<uint64_t> slots_;  ///< 0 = empty, else tag << 32 | index + 1
  std::vector<int32_t> keys_;    ///< width_ codes per entry
  std::vector<int32_t> values_;
};

/// The clean set's lookup structure (Algorithm 5): per FD of Σ', a flat
/// map from the LHS codes of each clean tuple to its RHS code. Clean
/// tuples satisfy Σ', so a key has one RHS; an insert that would give it a
/// second throws std::logic_error.
///
/// An index may be an overlay on an immutable base over the same Σ': its
/// lookups see both, and its inserts check the base and land in the
/// overlay. The base must outlive the overlay and must not itself be an
/// overlay. Exposed for unit tests.
class CleanIndex {
 public:
  explicit CleanIndex(const FDSet& sigma_prime);

  /// An empty overlay on `base`; shares base's FD shape, copies nothing.
  static CleanIndex Overlay(const CleanIndex& base);

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
    for (AttrId a : lhs_cols(fd_index)) key->push_back(get(a));
  }

  const std::vector<AttrId>& lhs_cols(int fd_index) const {
    return shape().lhs_cols_[fd_index];
  }

  /// Heap bytes of this index's own maps (an overlay excludes its base).
  size_t Bytes() const;

  /// Same FD shape and same per-FD entries in the same order (an
  /// overlay's own entries only, not its base's).
  friend bool operator==(const CleanIndex& a, const CleanIndex& b) {
    return a.shape().lhs_cols_ == b.shape().lhs_cols_ &&
           a.shape().rhs_col_ == b.shape().rhs_col_ && a.maps_ == b.maps_;
  }

 private:
  CleanIndex() = default;
  const CleanIndex& shape() const {
    return base_ != nullptr ? *base_ : *this;
  }

  const CleanIndex* base_ = nullptr;  ///< non-null for an overlay
  std::vector<std::vector<AttrId>> lhs_cols_;  ///< empty in an overlay
  std::vector<AttrId> rhs_col_;                ///< empty in an overlay
  std::vector<int32_t> key_;  ///< Insert's key buffer
  std::vector<FlatKeyMap> maps_;  ///< one per FD: LHS codes -> RHS code
};

/// Greedy maximal matching over `index`'s `groups`, in the given order; the
/// matched tuples, ascending — the 2-approximate cover C2opt.
std::vector<int32_t> GreedyCover(const DifferenceSetIndex& index,
                                 const std::vector<int>& groups,
                                 int num_tuples);

/// The cells of `tuples` (ascending) whose codes differ between `before`
/// and `after`, in (tuple, attr) order — DiffCells' answer when no other
/// tuple differs.
std::vector<CellRef> DiffTuples(const EncodedInstance& before,
                                const EncodedInstance& after,
                                const std::vector<int32_t>& tuples);

/// Algorithm 5 (Find_Assignment) run incrementally over one tuple, for
/// Algorithm 4's lines 6–15, which call it once per pinned attribute with
/// one more attribute pinned each time. The chase keeps the determined set
/// D — the attributes whose values the pins force through the clean set —
/// with those values. Pinning one more attribute extends D from the last
/// consistent closure, looking up only the FDs whose LHS the newly
/// determined attributes complete; a conflict rolls D back to that
/// closure. The closure is the least fixpoint of the forcing rules, so it
/// is what a from-scratch Find_Assignment with the same pins finds, in any
/// firing order. An FD is looked up once per tuple, and again only after a
/// rollback undid its lookup.
///
/// Nothing is minted here. Outside D, an attribute holds the variable that
/// step s's from-scratch call would have minted for it — index
/// var_base[a] + s, where s is the last successful step — and the caller
/// reserves those indices up front (EncodedInstance::
/// TakeFreshVariableRounds). No clean tuple carries such a fresh variable,
/// so an FD whose LHS holds one is never looked up. Exposed for unit tests.
class TupleChase {
 public:
  /// Indexes Σ''s non-trivial FDs by LHS attribute. `clean` is read by
  /// every later call and must outlive the chase.
  TupleChase(const FDSet& sigma_prime, const CleanIndex& clean, int num_attrs);

  /// Starts a tuple whose fresh-variable indices begin at `var_base` (one
  /// per attribute, read until the next Start): D becomes the closure of
  /// no pins, which only an ∅-LHS FD makes non-empty.
  void Start(const int32_t* var_base);

  /// Step `step` (0-based, ascending) pins attribute `a` to `code`. Returns
  /// whether the pins' closure is consistent (Find_Assignment succeeds).
  /// Otherwise the last consistent closure stays, with `a` added at its
  /// value there, Value(a) — what Algorithm 4 line 11 writes. A first step
  /// fails only when an ∅-LHS FD forces `a` to another value.
  bool Pin(AttrId a, int32_t code, int step);

  /// The last consistent closure's value of `a`: its pinned or forced
  /// code, or outside D the fresh variable of the last successful step.
  int32_t Value(AttrId a) const {
    return determined_.Contains(a)
               ? tc_[a]
               : VariableCode(var_base_[a] + last_success_);
  }

 private:
  /// Looks up FD i's forced RHS; false on a conflict with D.
  bool Fire(int i);
  /// Fires every FD whose LHS the queued attributes complete, until the
  /// queue drains; false on a conflict.
  bool Settle();

  const CleanIndex& clean_;
  std::vector<AttrSet> lhs_;      ///< per FD of Σ'
  std::vector<AttrId> rhs_;       ///< per FD of Σ'
  std::vector<int> empty_lhs_;    ///< non-trivial FDs with LHS ∅
  /// Per attribute a: the non-trivial FDs whose LHS holds a.
  std::vector<std::vector<int>> by_attr_;

  const int32_t* var_base_ = nullptr;
  int last_success_ = 0;
  AttrSet determined_;  ///< D
  AttrSet settled_;     ///< D minus the queued attributes
  AttrSet fresh_;       ///< in D at a fresh variable (failed steps)
  std::vector<int32_t> tc_;     ///< values of D's attributes
  std::vector<int32_t> key_;    ///< lookup key buffer
  std::vector<AttrId> queue_;   ///< newly determined, not yet settled
};

}  // namespace internal

/// Algorithm 4's seed-independent half for one Σ' over one instance: the
/// greedy cover and the clean index over the tuples outside it. Immutable
/// once built, so any number of concurrent chases may share one; Session
/// keeps one per goal state it has repaired (DESIGN.md "Search-answer
/// memo").
struct RepairBase {
  /// Indexes every tuple of `inst` outside `cover` (ascending).
  RepairBase(const EncodedInstance& inst, FDSet sigma_prime,
             std::vector<int32_t> cover);

  FDSet sigma_prime;
  std::vector<int32_t> cover;  ///< C2opt(Σ', I), ascending
  internal::CleanIndex clean;  ///< over I ∖ C2opt

  /// Heap bytes held (cover and clean index).
  size_t Bytes() const;

  friend bool operator==(const RepairBase& a, const RepairBase& b) {
    return a.sigma_prime == b.sigma_prime && a.cover == b.cover &&
           a.clean == b.clean;
  }
};

/// The base from a search context: Σ' = `goal` applied to ctx.sigma(), the
/// cover read from ctx.index() over the groups ctx.evaluator() marks
/// violated under `goal` in ascending canonical order — the cover whose
/// size the search certified against τ (Theorem 2 consistency). `inst`
/// must be the instance `ctx` was built over. Thread-safe against other
/// const use of `ctx`.
RepairBase BuildRepairBase(const FdSearchContext& ctx,
                           const EncodedInstance& inst,
                           const SearchState& goal);

/// The base, standalone: builds the Σ' difference-set index of `inst`
/// (sharded on the borrowed `pool`, nullable = serial; identical for any
/// thread count) and covers all of its groups.
RepairBase BuildRepairBase(const EncodedInstance& inst,
                           const FDSet& sigma_prime,
                           exec::ThreadPool* pool = nullptr);

/// Algorithm 4's seed-driven half: chases the base's cover tuples of
/// `inst` in `rng`'s random orders against the base's clean index plus a
/// per-call overlay, and diffs the cover tuples. `inst` must be the
/// instance the base was built over. Reads `base` only.
DataRepairResult RepairFromBase(const RepairBase& base,
                                const EncodedInstance& inst, Rng* rng);

/// Algorithm 4 from a search context: RepairFromBase over
/// BuildRepairBase(ctx, inst, goal). `rng` drives the random
/// tuple/attribute orders; fix the seed for reproducible repairs.
/// BIT-IDENTICAL to the standalone overload below with the same seed.
DataRepairResult RepairData(const FdSearchContext& ctx,
                            const EncodedInstance& inst,
                            const SearchState& goal, Rng* rng);

/// Algorithm 4, standalone: RepairFromBase over the standalone base. The
/// oracle the context overload is tested against.
DataRepairResult RepairData(const EncodedInstance& inst,
                            const FDSet& sigma_prime, Rng* rng,
                            exec::ThreadPool* pool = nullptr);

}  // namespace retrust

#endif  // RETRUST_REPAIR_REPAIR_DATA_H_
