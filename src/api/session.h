// retrust::Session — the library's public entry point.
//
// Algorithm 1 is a service-shaped computation: one τ-independent context
// (conflict graph, difference-set index, violation table, cover memo)
// answers many (τ, options) repair requests. A Session owns that shape so
// callers do not wire it by hand: it holds the dataset and Σ, builds the
// FdSearchContext lazily per (Σ, weights, heuristic, exec) fingerprint, and
// keeps every context it ever built in a cache — switching Σ back and forth
// (SetFds) reuses the warm violation table and cover memo exactly like the
// τ jobs of an exec::Sweep do.
//
// All failures surface through the Status/Result<T> model (status.h); the
// facade translates internal exceptions and optionals at the boundary, so
// Session callers never need a try/catch.
//
// Layering (DESIGN.md "Public API layering"): api/ sits on top of repair/
// and exec/'s Sweep scheduler; everything below api/ stays exception/
// optional-based and remains the internal layer the facade calls.
//
// Thread safety: const methods (Repair, RepairMany, Search, ...) are safe
// to call concurrently — batched requests additionally fan out on the
// session's own exec::Sweep pool. Apply() may ALSO run concurrently with
// the const request methods: requests take a shared snapshot lock and a
// delta takes it exclusively, so every request observes either the whole
// pre-delta or the whole post-delta state, never a mix (the exec::Sweep
// version pin double-checks this). The remaining mutating methods
// (SetFds, SetWeights) require external exclusion against everything
// else, like any C++ object.

#ifndef RETRUST_API_SESSION_H_
#define RETRUST_API_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "src/api/status.h"
#include "src/exec/cancel.h"
#include "src/exec/sweep.h"
#include "src/obs/trace.h"
#include "src/persist/journal.h"
#include "src/relational/delta.h"
#include "src/repair/multi_repair.h"
#include "src/search/policy.h"

namespace retrust {

/// Which w(Y) weighting the session's distc uses (weights.h).
enum class WeightModel { kDistinctCount, kCardinality, kEntropy };

/// Session-wide configuration, part of the context-cache fingerprint.
struct SessionOptions {
  WeightModel weights = WeightModel::kDistinctCount;
  HeuristicOptions heuristic;
  /// Shards context construction AND sizes the pool batched requests
  /// (RepairMany/SearchMany) fan out on. Results are bit-identical for any
  /// thread count (DESIGN.md).
  exec::Options exec;
  /// Upper bound on cached FdSearchContexts (0 = unbounded). When SetFds/
  /// SetWeights would push the cache past the bound, the least-recently
  /// used non-active context is evicted (size+age LRU); revisiting an
  /// evicted fingerprint rebuilds it. Not part of the context fingerprint.
  size_t max_cached_contexts = 0;
  /// Byte-accurate companion bound (0 = unbounded): each cached context is
  /// weighed by its difference-set EDGE COUNT (edge storage dominates a
  /// context's footprint) instead of counting 1, and LRU eviction runs
  /// until the estimated total fits. Both bounds may be set; the active
  /// context is always exempt. Not part of the context fingerprint.
  size_t max_cached_bytes = 0;
  /// Optional externally-owned pool (nullable) the session's sweeps and
  /// Apply() schedule on instead of spawning private workers — a process
  /// holding many sessions (one per tenant, src/service/) shares ONE pool
  /// across all of them. Must outlive the session. Not part of the
  /// context fingerprint.
  exec::ThreadPool* shared_pool = nullptr;
};

/// One row of ContextCacheStats::contexts: per-context observability, so a
/// server's per-tenant stats can report WHAT is warm, not just how much.
struct CachedContextInfo {
  uint64_t fingerprint = 0;   ///< the (Σ, weights, heuristic, exec) key
  bool active = false;        ///< the session's live context (never evicted)
  uint64_t hits = 0;          ///< times BundleFor returned this context
  /// LRU age in use-clock ticks (0 = touched most recently); grows by one
  /// per context switch, so it is deterministic, unlike wall-clock.
  uint64_t age = 0;
  int64_t edges = 0;          ///< conflict edges in the difference-set index
  size_t bytes_estimate = 0;  ///< edge-weighted memory estimate
};

/// Observable context-cache behavior (tests and ops dashboards).
struct ContextCacheStats {
  size_t cached = 0;      ///< contexts currently held
  uint64_t hits = 0;      ///< BundleFor answered from the cache
  uint64_t misses = 0;    ///< contexts built
  uint64_t evictions = 0; ///< contexts dropped by the LRU bounds
  size_t bytes_estimate = 0;  ///< total estimate over cached contexts
  std::vector<CachedContextInfo> contexts;  ///< one row per cached context
};

/// What one Session::Apply did — the delta's blast radius. `reuse_ratio`
/// close to 1 is the incremental engine's win: the fraction of the
/// contexts' difference-set groups whose edges survived the delta
/// untouched (the patch kept their edge lists instead of rediscovering
/// them; every context's δP evaluator is rebuilt regardless).
struct ApplyStats {
  int tuples_inserted = 0;
  int tuples_updated = 0;   ///< update entries applied (cells, not tuples)
  int tuples_deleted = 0;
  int num_tuples = 0;       ///< post-delta cardinality
  uint64_t data_version = 0;  ///< post-delta Session::DataVersion()
  int contexts_patched = 0;   ///< cached contexts delta-maintained in place
  int64_t edges_removed = 0;  ///< conflict edges dropped across contexts
  int64_t edges_added = 0;    ///< conflict edges discovered across contexts
  int groups_preserved = 0;   ///< diff-set groups carried over untouched
  int groups_changed = 0;     ///< diff-set groups rebuilt or new
  /// Always 0: a delta drops every cached cover. Kept only because the
  /// e2ebench layer probe (e2ebench/layers.cc) reads it; it goes with the
  /// next change to that benchmark.
  size_t covers_kept = 0;
  size_t covers_dropped = 0;  ///< cover-memo entries cleared across contexts
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
  /// Opens a session over `data` with a pre-built Σ. Fails with
  /// kSchemaMismatch when an FD references attributes outside the schema
  /// and kInvalidFd when one is trivial (A ∈ X). Builds the initial
  /// context eagerly, so RootDeltaP() is immediately available.
  static Result<Session> Open(Instance data, FDSet sigma,
                              SessionOptions opts = {});

  /// Same, parsing Σ from texts like {"City->Zip"}; parse failures come
  /// back as kInvalidFd.
  static Result<Session> Open(Instance data,
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
  /// snapshot fingerprint deliberately excludes `opts.exec`). The caller's
  /// (weights, heuristic) must match what the snapshot was saved under:
  /// mismatch → kSchemaMismatch. Unreadable/corrupt → kIoError; a format
  /// version this build does not speak → kVersionMismatch. Never throws
  /// and never crashes on hostile bytes.
  static Result<Session> OpenSnapshot(const std::string& path,
                                      SessionOptions opts = {});

  /// Saves the live dataset plus the ACTIVE context's warm state to
  /// `path`. Safe against concurrent const requests (takes the snapshot
  /// lock shared — a concurrent Apply is excluded, so the file is a
  /// consistent cut at one DataVersion()).
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

  /// Switches the active Σ (validated like Open). A fingerprint seen
  /// before — including the one Open built — reuses its cached context,
  /// warm cover memo included.
  Status SetFds(FDSet sigma);
  Status SetFds(const std::vector<std::string>& fd_texts);

  /// Switches the weight model (same context-cache semantics as SetFds).
  Status SetWeights(WeightModel weights);

  /// Applies a batch of tuple inserts/updates/deletes to the live dataset
  /// and delta-maintains EVERY cached context in place: the difference-set
  /// index only re-examines pairs with a mutated endpoint (O(Δ·n) instead
  /// of the O(n²) rebuild), preserved groups keep their violation-table
  /// rows and their memoized covers, and each context's version is bumped
  /// so its sweep re-pins the new snapshot. A repair issued right after an
  /// Apply therefore reuses everything outside the delta's blast radius.
  /// Post-delta answers are bit-identical to a session freshly opened over
  /// the mutated data. Safe to call concurrently with the const request
  /// methods (it takes the snapshot lock exclusively; in-flight requests
  /// drain first); needs external exclusion only against SetFds/
  /// SetWeights. kInvalidArgument on out-of-range ids, duplicate deletes,
  /// or arity mismatches — validation happens before anything mutates.
  Result<ApplyStats> Apply(const DeltaBatch& delta);

  /// Monotone dataset version: bumped by every non-empty successful
  /// Apply(). Contexts cached by SetFds always reflect the live version.
  /// Safe against a concurrent Apply (reads under the snapshot lock).
  uint64_t DataVersion() const;

  /// Live cardinality, safe against a concurrent Apply (reads under the
  /// snapshot lock) — unlike instance().NumTuples(), which is not.
  int NumTuples() const;

  /// Algorithm 1 at the request's τ. Error codes: kInvalidArgument (no τ,
  /// τr out of range), kNoRepairWithinTau, kBudgetExceeded, kCancelled.
  /// An interrupted request that already holds a τ-feasible repair returns
  /// it (the repair is valid, possibly not cost-minimal).
  Result<RepairResponse> Repair(const RepairRequest& req) const;

  /// Batched Algorithm 1: all requests run concurrently on the session's
  /// exec::Sweep over the one shared context; outcomes in request order.
  std::vector<Result<RepairResponse>> RepairMany(
      std::span<const RepairRequest> reqs) const;

  /// Algorithm 2 probe (no data repair pass); see SearchProbe.
  Result<SearchProbe> Search(const RepairRequest& req) const;

  /// Batched probes through the same sweep scheduler, in request order.
  std::vector<Result<SearchProbe>> SearchMany(
      std::span<const RepairRequest> reqs) const;

  /// Algorithm 6 (Range-Repair): every distinct minimal FD repair for
  /// τ ∈ [tau_lo, tau_hi]. kInvalidArgument unless 0 <= tau_lo <= tau_hi.
  Result<MultiRepairResult> EnumerateRepairs(int64_t tau_lo,
                                             int64_t tau_hi) const;

  /// δP(Σ, I) of the active Σ — the root bound; τr = 1 resolves to this.
  /// Safe against a concurrent Apply (reads under the snapshot lock).
  int64_t RootDeltaP() const;

  /// Reference-returning accessors. The references stay valid for the
  /// session's lifetime, but the pointed-to state is delta-maintained IN
  /// PLACE by Apply() — reading through them concurrently with an Apply
  /// is not synchronized. The value-returning observers (DataVersion,
  /// RootDeltaP, ContextFingerprint, CachedContexts) and the request
  /// methods are the Apply-concurrency-safe surface.
  const Instance& instance() const { return *instance_; }
  const Schema& schema() const { return instance_->schema(); }
  const FDSet& fds() const;
  const SessionOptions& options() const { return opts_; }

  /// Fingerprint of the active (Σ, weights, heuristic, exec) context and
  /// the cache's observable behavior (current size, hits, misses,
  /// evictions) for tests and ops dashboards. Both are safe against a
  /// concurrent Apply.
  uint64_t ContextFingerprint() const;
  ContextCacheStats CachedContexts() const;

  /// Internal-layer escape hatches for the eval/ harness and benchmarks:
  /// the encoded dataset, the active search context, and its weights.
  /// Everything reachable from here is const and thread-safe against
  /// other const calls (NOT against Apply — see above), and the types
  /// are NOT part of the stable facade surface.
  const EncodedInstance& data() const { return *encoded_; }
  const FdSearchContext& context() const;
  const WeightFunction& weights() const;

 private:
  /// One cached context: Σ plus everything derived from it. The weight
  /// function is shared across bundles of the same model (its memo is
  /// instance-wide), the sweep reuses one pool across batched calls.
  struct ContextBundle {
    FDSet sigma;
    const WeightFunction* weights = nullptr;  ///< owned by weight_cache_
    std::unique_ptr<FdSearchContext> context;
    std::unique_ptr<exec::Sweep> sweep;
    int64_t root_delta_p = 0;
    uint64_t last_used = 0;  ///< LRU ordinal (session use_clock_)
    uint64_t hits = 0;       ///< BundleFor cache hits on this bundle
    int64_t edges = 0;       ///< difference-set edge count (sizing weight)
    size_t bytes = 0;        ///< edge-weighted estimate; kept fresh by Apply
  };

  Session(Instance data, SessionOptions opts);
  /// Restore path (OpenSnapshot): adopts a saved EncodedInstance directly
  /// instead of re-encoding `data` — re-encoding would reset the
  /// fresh-variable counters, breaking bit-identical variable allocation
  /// in post-restore repairs.
  Session(Instance data, EncodedInstance encoded, SessionOptions opts);

  /// Installs a restored context as the active bundle (OpenSnapshot's
  /// counterpart of BundleFor): validates Σ, rebuilds the sweep, and
  /// self-checks the restored root δP against the snapshot's
  /// (mismatch → kIoError, the file lied about its own content).
  Status AdoptContext(FDSet sigma, DifferenceSetIndex index,
                      DeltaPEvaluator::WarmState warm,
                      int64_t expected_root_delta_p);

  Status Validate(const FDSet& sigma) const;
  const WeightFunction& WeightFor(WeightModel model);
  /// RootDeltaP for callers already holding the snapshot lock (request
  /// methods; shared_mutex is non-recursive, so they must not re-lock).
  int64_t RootDeltaPLocked() const { return active_->root_delta_p; }
  /// Returns the cached bundle for (sigma, opts_) or builds and caches it,
  /// touching its LRU slot.
  std::shared_ptr<ContextBundle> BundleFor(FDSet sigma);
  /// Drops least-recently-used bundles (never the active one) until the
  /// cache respects max_cached_contexts AND the edge-weighted
  /// max_cached_bytes bound. Runs after every active-context switch;
  /// evicted fingerprints rebuild on their next use.
  void EvictIfNeeded();
  Result<int64_t> ResolveTau(const RepairRequest& req) const;
  ModifyFdsOptions SearchOptions(const RepairRequest& req) const;

  /// Shared skeleton of RepairMany/SearchMany: resolve every request's τ
  /// (invalid ones fail their slot without running), run the valid jobs
  /// through the sweep, re-slot outcomes in request order; an escaped
  /// internal exception fails the affected slots with kInternal.
  template <typename Response, typename Job, typename MakeJob,
            typename RunJobs, typename SlotOutcome>
  std::vector<Result<Response>> RunBatch(std::span<const RepairRequest> reqs,
                                         MakeJob make_job, RunJobs run,
                                         SlotOutcome slot) const;

  std::unique_ptr<Instance> instance_;        ///< heap-pinned: encoded_ is
  std::unique_ptr<EncodedInstance> encoded_;  ///< referenced by weights
  SessionOptions opts_;
  std::map<int, std::unique_ptr<WeightFunction>> weight_cache_;
  uint64_t active_fingerprint_ = 0;
  std::shared_ptr<ContextBundle> active_;
  /// Guards cache_ and the LRU/hit counters (BundleFor may be reached
  /// from const batched paths in future extensions); heap-pinned so
  /// Session stays movable.
  std::unique_ptr<std::mutex> mu_;
  /// Snapshot lock: request methods hold it shared for their whole run,
  /// Apply holds it exclusively while mutating the instance and patching
  /// contexts — so a delta can never interleave with a request.
  std::unique_ptr<std::shared_mutex> state_mu_;
  /// Buckets keyed by the raw fingerprint; entries within a bucket are
  /// disambiguated by Σ/weights equality, so erasing any entry (LRU
  /// eviction) can never orphan another.
  std::map<uint64_t, std::vector<std::shared_ptr<ContextBundle>>> cache_;
  /// Lazily created, reused across Apply calls (which the exclusive
  /// snapshot lock serializes) — streaming small deltas pays no per-batch
  /// thread churn. Null until the first parallel Apply.
  std::unique_ptr<exec::ThreadPool> apply_pool_;
  /// Write-ahead delta journal (EnableJournal); Apply logs each batch
  /// before mutating. Guarded by the exclusive snapshot lock.
  std::unique_ptr<persist::JournalWriter> journal_;
  uint64_t data_version_ = 1;
  uint64_t use_clock_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
};

}  // namespace retrust

#endif  // RETRUST_API_SESSION_H_
