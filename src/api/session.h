// retrust::Session — the library's public entry point.
//
// Algorithm 1 is a service-shaped computation: one τ-independent context
// (conflict graph, difference-set index, violation table, cover memo)
// answers many (τ, options) repair requests. A Session owns that shape so
// callers do not wire it by hand: it holds the dataset (once, encoded) and
// Σ, and exactly one FdSearchContext over them, with its weight function.
// Exploring relative trust means changing τ, which reuses the warm context;
// SetFds/SetWeights build a fresh context over the live data and replace
// the current one. Beside the context sits a bounded memo of completed
// FD-search answers (DESIGN.md "Search-answer memo"): a Repair that repeats
// a (τ, search options) pair of an earlier one skips Algorithm 2 and only
// repairs the data with its own seed. It is cleared whenever the context
// changes. A batch (RepairMany/SearchMany) is a fan-out of the single-request
// path, so a batched request gets exactly the answer it would get alone,
// and batched repairs share the memo with single ones.
//
// All failures surface through the Status/Result<T> model (status.h); the
// facade translates internal exceptions and optionals at the boundary, so
// Session callers never need a try/catch.
//
// Layering (DESIGN.md "Public API layering"): api/ sits on top of repair/
// and the exec/ primitives; everything below api/ stays exception/
// optional-based and remains the internal layer the facade calls. A
// Session makes no threads: it borrows the pool its options name.
//
// Thread safety: const methods (Repair, RepairMany, Search, ...) are safe
// to call concurrently — batched requests additionally fan out on the
// session's pool. Apply(), SetFds() and SetWeights() may ALSO run
// concurrently with them: requests take a shared snapshot lock and the
// mutators take it exclusively, so every request observes either the whole
// old or the whole new state, never a mix. A batch holds the lock once for
// all its items. Only the reference-returning accessors (data(), fds(),
// context(), weights()) are unsynchronized.

#ifndef RETRUST_API_SESSION_H_
#define RETRUST_API_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/status.h"
#include "src/exec/cancel.h"
#include "src/exec/thread_pool.h"
#include "src/obs/trace.h"
#include "src/persist/journal.h"
#include "src/relational/delta.h"
#include "src/repair/multi_repair.h"
#include "src/repair/repair_driver.h"
#include "src/search/policy.h"

namespace retrust {

/// Which w(Y) weighting the session's distc uses (weights.h).
enum class WeightModel { kDistinctCount, kCardinality, kEntropy };

/// Session-wide configuration.
struct SessionOptions {
  WeightModel weights = WeightModel::kDistinctCount;
  HeuristicOptions heuristic;
  /// Borrowed pool (nullable = serial; exec::MakePool makes one) on which
  /// the session builds its context and runs batched requests
  /// (RepairMany/SearchMany) and Apply(); each single search stays serial.
  /// Many sessions may share one pool (one per tenant, src/service/).
  /// Results are bit-identical for any thread count (DESIGN.md). Must
  /// outlive the session.
  exec::ThreadPool* pool = nullptr;
};

/// What one Session::Apply did — the delta's blast radius. `reuse_ratio`
/// close to 1 is the incremental engine's win: the fraction of the
/// context's difference-set groups whose edges survived the delta
/// untouched (the patch kept their edge lists instead of rediscovering
/// them; the new context's δP evaluator is built regardless).
struct ApplyStats {
  int tuples_inserted = 0;
  int tuples_updated = 0;   ///< update entries applied (cells, not tuples)
  int tuples_deleted = 0;
  int num_tuples = 0;       ///< post-delta cardinality
  uint64_t data_version = 0;  ///< post-delta Session::DataVersion()
  int64_t edges_removed = 0;  ///< conflict edges the patch dropped
  int64_t edges_added = 0;    ///< conflict edges the patch discovered
  int groups_preserved = 0;   ///< diff-set groups carried over untouched
  int groups_changed = 0;     ///< diff-set groups rebuilt or new
  /// Always 0: a delta drops every cached cover. Kept only because the
  /// e2ebench layer probe (e2ebench/layers.cc) reads it; it goes with the
  /// next change to that benchmark.
  size_t covers_kept = 0;
  size_t covers_dropped = 0;  ///< entries of the replaced cover memo
  double seconds = 0.0;       ///< wall-clock of the whole Apply

  double reuse_ratio() const {
    int total = groups_preserved + groups_changed;
    return total == 0 ? 1.0
                      : static_cast<double>(groups_preserved) / total;
  }
};

/// One repair request. Exactly one of `tau` (absolute cell-change budget)
/// or `tau_r` (relative trust in [0, 1], resolved against the session's
/// root δP) must be set; use At()/AtRelative().
struct RepairRequest {
  int64_t tau = -1;     ///< absolute τ; negative = use tau_r
  double tau_r = -1.0;  ///< relative τr; ignored when tau >= 0
  SearchMode mode = SearchMode::kAStar;
  /// Engine policy for the FD search (src/search/policy.h): kExact (the
  /// default — Algorithm 2's optimality guarantee), kAnytime (weighted-A*,
  /// first repair fast, refined until interrupted), or kGreedy. The
  /// quality-vs-time knob of the service wire ("policy"/"weight" fields).
  search::SearchPolicy policy = search::SearchPolicy::kExact;
  /// Weighted-A* factor w >= 1 (kAnytime only): first incumbent costs at
  /// most w·optimal.
  double weight = 2.0;
  /// Known cost cap for kAnytime/kGreedy pruning (0 = none).
  double upper_bound = 0.0;
  uint64_t seed = 1;    ///< drives Algorithm 4's random orders
  /// Visit budget for the search (0 = unlimited). Exceeding it without a
  /// repair fails the request with kBudgetExceeded.
  int64_t budget = 0;
  /// Wall-clock deadline in seconds (0 = none); kBudgetExceeded on expiry.
  double deadline_seconds = 0.0;
  /// Optional cooperative cancellation; kCancelled when it fires first.
  /// Not owned — must outlive the request's execution.
  const exec::CancelToken* cancel = nullptr;
  /// Per-request trace (src/obs/trace.h). Null (the default) disables
  /// tracing entirely; when set, the Session attaches session/search
  /// spans and the engine fills the phase accumulators. Shared so the
  /// trace survives the request being copied into service closures.
  std::shared_ptr<obs::RequestTrace> trace;

  static RepairRequest At(int64_t tau) {
    RepairRequest r;
    r.tau = tau;
    return r;
  }
  static RepairRequest AtRelative(double tau_r) {
    RepairRequest r;
    r.tau_r = tau_r;
    return r;
  }
};

/// A successful end-to-end repair (Algorithm 1).
struct RepairResponse {
  Repair repair;        ///< (Σ', I') plus stats (repair.stats)
  int64_t tau = 0;      ///< the resolved absolute τ this ran at
  double seconds = 0.0; ///< wall-clock of this request
  /// Why the search stopped. Only kCompleted guarantees the repair is
  /// cost-minimal; a budget/deadline/cancel interruption that already
  /// held a τ-feasible repair returns it with the interruption recorded
  /// here, so truncated answers are detectable.
  SearchTermination termination = SearchTermination::kCompleted;
};

/// A search probe (Algorithm 2 only, no data materialization): the
/// diagnostic/benchmark companion to Repair(). A probe REPORTS whatever
/// the search did — "no relaxation fits τ", a budget cut, a cancellation —
/// through `result.repair`/`result.termination` and always carries the
/// stats; only a malformed request fails the Result.
struct SearchProbe {
  ModifyFdsResult result;
  int64_t tau = 0;
  double seconds = 0.0;
};

/// τ = round(τr · root_delta_p), rejecting what TauFromRelative clamps:
/// τr outside [0, 1] (or NaN) and a negative root bound come back as
/// kInvalidArgument. root_delta_p == 0 maps every valid τr to 0.
Result<int64_t> CheckedTauFromRelative(double tau_r, int64_t root_delta_p);

class Session {
 public:
  /// Opens a session over `data` with a pre-built Σ. The session keeps
  /// `data` encoded (plus its fresh-variable counters), never the Instance
  /// itself. Fails with kSchemaMismatch when an FD references attributes
  /// outside the schema and kInvalidFd when one is trivial (A ∈ X). Builds
  /// the initial context eagerly, so RootDeltaP() is immediately available.
  static Result<Session> Open(const Instance& data, FDSet sigma,
                              SessionOptions opts = {});

  /// Same, parsing Σ from texts like {"City->Zip"}; parse failures come
  /// back as kInvalidFd.
  static Result<Session> Open(const Instance& data,
                              const std::vector<std::string>& fd_texts,
                              SessionOptions opts = {});

  /// Same, reading the dataset from a CSV file (kIoError on failure).
  static Result<Session> OpenCsv(const std::string& path,
                                 const std::vector<std::string>& fd_texts,
                                 SessionOptions opts = {});

  /// Opens a session from a snapshot file (src/persist/), adopting the
  /// saved dataset, Σ, difference-set index, and warm caches instead of
  /// paying the O(n²) context build — answers are bit-identical to a
  /// session opened from the original data, at any thread count (the
  /// snapshot fingerprint deliberately excludes `opts.pool`). The caller's
  /// (weights, heuristic) must match what the snapshot was saved under:
  /// mismatch → kSchemaMismatch. Unreadable/corrupt → kIoError; a format
  /// version this build does not speak → kVersionMismatch. Never throws
  /// and never crashes on hostile bytes.
  static Result<Session> OpenSnapshot(const std::string& path,
                                      SessionOptions opts = {});

  /// Saves the live dataset plus the context's warm state to `path`. Safe
  /// against concurrent const requests (takes the snapshot lock shared — a
  /// concurrent Apply is excluded, so the file is a consistent cut at one
  /// DataVersion()).
  Status SaveSnapshot(const std::string& path) const;

  /// Attaches an append-only delta journal: every subsequent successful
  /// Apply() first logs its batch to `path` (write-ahead), so a loader can
  /// rebuild this session as base snapshot + replay. An existing journal
  /// is continued iff its fingerprint matches this session's configuration
  /// (else kSchemaMismatch) and its base_version + records == DataVersion()
  /// (else kInvalidArgument — replay it first); a missing/empty file
  /// starts a fresh journal based at the current DataVersion(). A torn
  /// trailing record from a crashed append is truncated, not fatal.
  Status EnableJournal(const std::string& path);

  /// Replays every batch of a journal through Apply(), in order, and
  /// returns how many were applied. The journal must extend THIS state:
  /// fingerprint and base DataStamp must match (else kSchemaMismatch) and
  /// base_version must equal DataVersion() (else kInvalidArgument).
  /// Refused while a journal is attached (kInvalidArgument): replay first,
  /// then EnableJournal, so replayed batches are never re-logged.
  Result<int> ReplayJournal(const std::string& path);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Replaces Σ (validated like Open): builds a fresh context over the
  /// live data and drops the current one, cover memo included. Refused
  /// with kInvalidArgument while a journal is attached — its records are
  /// bound to the configuration it was opened under. A failed call leaves
  /// the session unchanged. Takes the snapshot lock exclusively.
  Status SetFds(FDSet sigma);
  Status SetFds(const std::vector<std::string>& fd_texts);

  /// Replaces the weight model; same rebuild and refusals as SetFds.
  Status SetWeights(WeightModel weights);

  /// Applies a batch of tuple inserts/updates/deletes to the live dataset
  /// and replaces the context with one derived over the patched index
  /// (FdSearchContext::AfterDelta): the difference-set index only
  /// re-examines pairs with a mutated endpoint (O(Δ·n) instead of the
  /// O(n²) rebuild), and the weights and δP evaluator are built anew over
  /// the mutated data. Post-delta answers are bit-identical to a session freshly
  /// opened over the mutated data. Safe to call concurrently with the
  /// request methods (it takes the snapshot lock exclusively; in-flight
  /// requests drain first). kInvalidArgument on out-of-range ids,
  /// duplicate deletes, or arity mismatches — validation happens before
  /// anything mutates.
  Result<ApplyStats> Apply(const DeltaBatch& delta);

  /// Monotone dataset version: bumped by every non-empty successful
  /// Apply(). Safe against a concurrent Apply (reads under the snapshot
  /// lock).
  uint64_t DataVersion() const;

  /// Live cardinality, safe against a concurrent Apply (reads under the
  /// snapshot lock) — instance().NumTuples() without decoding the rows.
  int NumTuples() const;

  /// Algorithm 1 at the request's τ. Error codes: kInvalidArgument (no τ,
  /// τr out of range), kNoRepairWithinTau, kBudgetExceeded, kCancelled.
  /// An interrupted request that already holds a τ-feasible repair returns
  /// it (the repair is valid, possibly not cost-minimal).
  ///
  /// A request without a budget or deadline whose (τ, mode, policy,
  /// weight, upper_bound) matches an earlier completed search over the
  /// current context reuses that search's answer and only runs the data
  /// repair. Its reply equals a fresh search's; its repair.stats report the
  /// work the request did — no states visited — and only the proven
  /// suboptimality bound carries over.
  Result<RepairResponse> Repair(const RepairRequest& req) const;

  /// Batched Algorithm 1: each request runs through Repair()'s body,
  /// concurrently on the session's pool under one snapshot lock; outcomes
  /// in request order. Each item equals Repair() of the same request
  /// (memo included), and an item that fails fails only its own slot.
  std::vector<Result<RepairResponse>> RepairMany(
      std::span<const RepairRequest> reqs) const;

  /// Algorithm 2 probe (no data repair pass); see SearchProbe.
  Result<SearchProbe> Search(const RepairRequest& req) const;

  /// Batched probes, fanned out like RepairMany; each item equals Search()
  /// of the same request. Never memoized, like Search().
  std::vector<Result<SearchProbe>> SearchMany(
      std::span<const RepairRequest> reqs) const;

  /// Algorithm 6 (Range-Repair): every distinct minimal FD repair for
  /// τ ∈ [tau_lo, tau_hi]. kInvalidArgument unless 0 <= tau_lo <= tau_hi.
  Result<MultiRepairResult> EnumerateRepairs(int64_t tau_lo,
                                             int64_t tau_hi) const;

  /// δP(Σ, I) — the root bound; τr = 1 resolves to this. Safe against a
  /// concurrent Apply (reads under the snapshot lock).
  int64_t RootDeltaP() const;

  /// Edge-weighted memory estimate of the context: its difference-set
  /// edges dominate, plus a per-group constant for the group record and
  /// its memo bookkeeping. Safe against a concurrent Apply (reads under
  /// the snapshot lock).
  size_t ContextBytesEstimate() const;

  /// What the memo holds right now. Safe against concurrent requests.
  struct MemoStats {
    size_t answers = 0;     ///< memoized search answers
    size_t bases = 0;       ///< memoized data-repair bases (one per goal)
    size_t base_bytes = 0;  ///< heap bytes the bases hold
  };
  MemoStats memo_stats() const;

  /// The live rows, decoded from the encoded dataset under the snapshot
  /// lock (so safe against a concurrent Apply), with the fresh-variable
  /// counters a snapshot saves. O(n·m) per call: a copy, not a view.
  Instance instance() const;

  /// Reference-returning accessors. The schema never changes; fds(),
  /// context() and weights() are replaced by SetFds(), SetWeights() and
  /// Apply() — reading through them concurrently with a mutator is not
  /// synchronized, and they dangle after a successful call of one. The value-returning observers
  /// (instance, DataVersion, NumTuples, RootDeltaP, ContextBytesEstimate)
  /// and the request methods are the concurrency-safe surface.
  const Schema& schema() const { return encoded_->schema(); }
  const FDSet& fds() const { return context_->sigma(); }
  const SessionOptions& options() const { return opts_; }

  /// Internal-layer escape hatches for the eval/ harness and benchmarks:
  /// the encoded dataset (delta-maintained IN PLACE by Apply()), the search
  /// context, and its weights. Everything reachable from here is const and
  /// thread-safe against other const calls (NOT against the mutators — see
  /// above), and the types are NOT part of the stable facade surface.
  const EncodedInstance& data() const { return *encoded_; }
  const FdSearchContext& context() const { return *context_; }
  const WeightFunction& weights() const { return *weights_; }

  /// Most search answers, and most data-repair bases, the memo holds at
  /// once. A full memo stops taking new entries but keeps serving the ones
  /// it has.
  static constexpr size_t kSearchMemoCapacity = 256;

 private:
  /// What a search answer depends on beyond the context. The heuristic
  /// options are fixed per session; doubles are keyed by their bits.
  struct MemoKey {
    int64_t tau = 0;
    SearchMode mode = SearchMode::kAStar;
    search::SearchPolicy policy = search::SearchPolicy::kExact;
    uint64_t weight_bits = 0;
    uint64_t upper_bound_bits = 0;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const;
  };
  /// Completed searches over the current context, and the data-repair base
  /// of each goal state a repair reached. Lookups and inserts take `mu`;
  /// clearing happens under the exclusive snapshot lock, so a stored entry
  /// stays valid for as long as a request holds the shared one. Each map
  /// holds at most kSearchMemoCapacity entries.
  struct SearchMemo {
    std::mutex mu;
    std::unordered_map<MemoKey, ModifyFdsResult, MemoKeyHash> answers;
    std::unordered_map<SearchState, RepairBase, SearchStateHash> bases;
  };

  /// Open encodes its Instance into `encoded`; OpenSnapshot adopts the
  /// saved one as is (re-encoding would reset its fresh-variable counters,
  /// breaking bit-identical variable allocation in post-restore repairs).
  /// `instance_next_var` are the rows' own counters (see the member).
  Session(EncodedInstance encoded, std::vector<int32_t> instance_next_var,
          SessionOptions opts);

  /// Installs a restored context (OpenSnapshot's counterpart of Switch):
  /// validates Σ, installs it, and self-checks the restored root δP
  /// against the snapshot's (mismatch → kIoError, the file lied about its
  /// own content).
  Status AdoptContext(FDSet sigma, DifferenceSetIndex index,
                      DeltaPEvaluator::WarmState warm,
                      int64_t expected_root_delta_p);

  Status Validate(const FDSet& sigma) const;
  /// persist::ConfigFingerprint of this session's (Σ, weights, heuristic):
  /// the identity its snapshots and journals carry.
  uint64_t Fingerprint() const;
  /// SetFds/SetWeights: validates, refuses while journaling, then builds
  /// a context for (sigma, model) under the exclusive snapshot lock.
  Status Switch(FDSet sigma, WeightModel model);
  /// Builds a weight function and context for (sigma, model) over the
  /// live data and installs them. A throw leaves the current ones.
  void Build(const FDSet& sigma, WeightModel model);
  /// Derives `context`'s root δP, then makes (weights, context) the
  /// session's one context. A throw leaves the current one in place.
  void Install(std::unique_ptr<WeightFunction> weights,
               std::unique_ptr<FdSearchContext> context);
  Result<int64_t> ResolveTau(const RepairRequest& req) const;
  ModifyFdsOptions SearchOptions(const RepairRequest& req) const;
  /// Algorithm 2 for Repair(): the memoized answer when there is one,
  /// else a search, whose answer is memoized when it completed. Requests
  /// with a budget or deadline always search.
  ModifyFdsResult AnswerSearch(const RepairRequest& req, int64_t tau,
                               const ModifyFdsOptions& opts) const;

  /// Algorithm 4's seed-independent half for `goal`: the memoized base when
  /// there is one, else a fresh build, memoized unless the memo is full
  /// (then it lands in `*unstored`). The first insert for a goal wins.
  const RepairBase& BaseFor(const SearchState& goal,
                            std::optional<RepairBase>* unstored) const;

  /// The bodies of Repair() and Search(), shared with the batches. The
  /// caller holds the snapshot lock shared.
  Result<RepairResponse> RepairLocked(const RepairRequest& req) const;
  Result<SearchProbe> SearchLocked(const RepairRequest& req) const;

  /// The one copy of the dataset; heap-pinned because the weights and the
  /// context reference it.
  std::unique_ptr<EncodedInstance> encoded_;
  /// Instance::next_var_counters() of the rows: what Instance::NewVariable
  /// would hand out next, per attribute. They may run ahead of encoded_'s
  /// (a variable taken, then overwritten), and the snapshot keeps both.
  /// Taken from the Instance at Open or from the snapshot, and advanced by
  /// Apply() with AdvanceFreshVariableCounters, as Instance::ApplyDelta
  /// advances them.
  std::vector<int32_t> instance_next_var_;
  SessionOptions opts_;
  std::unique_ptr<WeightFunction> weights_;
  std::unique_ptr<FdSearchContext> context_;
  int64_t root_delta_p_ = 0;
  /// Heap-pinned (it holds a mutex) so Session stays movable.
  std::unique_ptr<SearchMemo> memo_;
  /// Snapshot lock: request methods hold it shared for their whole run;
  /// Apply, SetFds and SetWeights hold it exclusively while they mutate —
  /// so a mutation can never interleave with a request. Heap-pinned so
  /// Session stays movable.
  std::unique_ptr<std::shared_mutex> state_mu_;
  /// Write-ahead delta journal (EnableJournal); Apply logs each batch
  /// before mutating. Guarded by the exclusive snapshot lock.
  std::unique_ptr<persist::JournalWriter> journal_;
  uint64_t data_version_ = 1;
};

}  // namespace retrust

#endif  // RETRUST_API_SESSION_H_
