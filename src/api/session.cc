#include "src/api/session.h"

#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>
#include <utility>

#include "src/persist/snapshot.h"
#include "src/relational/csv.h"
#include "src/repair/weights.h"
#include "src/util/hash.h"
#include "src/util/timer.h"

namespace retrust {

namespace {

std::unique_ptr<WeightFunction> MakeWeights(WeightModel model,
                                            const EncodedInstance& data) {
  switch (model) {
    case WeightModel::kCardinality:
      return std::make_unique<CardinalityWeight>();
    case WeightModel::kEntropy:
      return std::make_unique<EntropyWeight>(data);
    case WeightModel::kDistinctCount:
      break;
  }
  return std::make_unique<DistinctCountWeight>(data);
}

Status NoRepairStatus(SearchTermination termination, int64_t tau) {
  switch (termination) {
    case SearchTermination::kCancelled:
      return Status::Error(StatusCode::kCancelled,
                           "request cancelled before a repair was found");
    case SearchTermination::kVisitBudget:
      return Status::Error(StatusCode::kBudgetExceeded,
                           "visit budget exhausted before a repair was found");
    case SearchTermination::kDeadline:
      return Status::Error(StatusCode::kBudgetExceeded,
                           "deadline expired before a repair was found");
    case SearchTermination::kCompleted:
      break;
  }
  return Status::Error(
      StatusCode::kNoRepairWithinTau,
      "no relaxation of the FDs admits a repair with at most " +
          std::to_string(tau) + " cell changes");
}

Result<FDSet> ParseFds(const std::vector<std::string>& fd_texts,
                       const Schema& schema) {
  try {
    return FDSet::Parse(fd_texts, schema);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInvalidFd, e.what());
  }
}

/// Runs `body` on every request, concurrently on `pool` (null = inline),
/// and returns the outcomes in request order. The body catches its own
/// exceptions, so each request fails or succeeds alone.
template <typename Body>
auto FanOut(exec::ThreadPool* pool, std::span<const RepairRequest> reqs,
            const Body& body) {
  using Outcome = decltype(body(reqs[0]));
  std::vector<std::optional<Outcome>> slots(reqs.size());
  exec::TaskGroup group(pool);
  for (size_t i = 0; i < reqs.size(); ++i) {
    group.Run([&slots, &body, &reqs, i] { slots[i].emplace(body(reqs[i])); });
  }
  group.Wait();
  std::vector<Outcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::optional<Outcome>& slot : slots) {
    outcomes.push_back(std::move(*slot));
  }
  return outcomes;
}

}  // namespace

Result<int64_t> CheckedTauFromRelative(double tau_r, int64_t root_delta_p) {
  if (std::isnan(tau_r) || tau_r < 0.0 || tau_r > 1.0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "tau_r must be in [0, 1], got " +
                             std::to_string(tau_r));
  }
  if (root_delta_p < 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "root_delta_p must be >= 0, got " +
                             std::to_string(root_delta_p));
  }
  return TauFromRelative(tau_r, root_delta_p);
}

Session::Session(EncodedInstance encoded,
                 std::vector<int32_t> instance_next_var, SessionOptions opts)
    : encoded_(std::make_unique<EncodedInstance>(std::move(encoded))),
      instance_next_var_(std::move(instance_next_var)),
      opts_(opts),
      memo_(std::make_unique<SearchMemo>()),
      state_mu_(std::make_unique<std::shared_mutex>()) {}

Result<Session> Session::Open(const Instance& data, FDSet sigma,
                              SessionOptions opts) {
  Session session(EncodedInstance(data), data.next_var_counters(), opts);
  Status status = session.SetFds(std::move(sigma));
  if (!status.ok()) return status;
  return session;
}

Result<Session> Session::Open(const Instance& data,
                              const std::vector<std::string>& fd_texts,
                              SessionOptions opts) {
  Result<FDSet> sigma = ParseFds(fd_texts, data.schema());
  if (!sigma.ok()) return sigma.status();
  return Open(data, std::move(*sigma), opts);
}

Result<Session> Session::OpenCsv(const std::string& path,
                                 const std::vector<std::string>& fd_texts,
                                 SessionOptions opts) {
  try {
    return Open(ReadCsvFile(path), fd_texts, opts);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError, e.what());
  }
}

Result<Session> Session::OpenSnapshot(const std::string& path,
                                      SessionOptions opts) {
  Result<persist::SnapshotData> data = persist::ReadSnapshotFile(path);
  if (!data.ok()) return data.status();
  // Σ comes FROM the snapshot; what must match is the caller's (weights,
  // heuristic) configuration, or the warm caches would encode a different
  // cost model than the session claims to run.
  const uint64_t expected = persist::ConfigFingerprint(
      data->sigma, static_cast<uint8_t>(opts.weights), opts.heuristic);
  if (expected != data->fingerprint) {
    return Status::Error(
        StatusCode::kSchemaMismatch,
        "snapshot '" + path +
            "' was saved under a different (weights, heuristic) "
            "configuration than this session requests");
  }
  // Defense in depth: the stored stamp must describe the stored data. A
  // file that passes its CRC but fails this was assembled inconsistently.
  if (persist::DataStamp(data->encoded) != data->data_stamp) {
    return Status::Error(StatusCode::kIoError,
                         "snapshot '" + path +
                             "' data stamp does not match its own payload");
  }
  try {
    Session session(std::move(data->encoded),
                    std::move(data->instance_next_var), opts);
    Status adopted =
        session.AdoptContext(std::move(data->sigma), std::move(data->index),
                             std::move(data->warm), data->root_delta_p);
    if (!adopted.ok()) return adopted;
    session.data_version_ = data->data_version;
    return session;
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError,
                         "snapshot '" + path +
                             "' could not be restored: " + e.what());
  }
}

Status Session::AdoptContext(FDSet sigma, DifferenceSetIndex index,
                             DeltaPEvaluator::WarmState warm,
                             int64_t expected_root_delta_p) {
  Status status = Validate(sigma);
  if (!status.ok()) return status;
  try {
    std::unique_ptr<WeightFunction> weights =
        MakeWeights(opts_.weights, *encoded_);
    auto context = std::make_unique<FdSearchContext>(
        sigma, *encoded_, *weights, opts_.heuristic, std::move(index),
        std::move(warm), opts_.pool);
    Install(std::move(weights), std::move(context));
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kIoError,
                         std::string("snapshot restore failed: ") + e.what());
  }
  if (root_delta_p_ != expected_root_delta_p) {
    return Status::Error(
        StatusCode::kIoError,
        "snapshot failed its restore self-check: recomputed root deltaP " +
            std::to_string(root_delta_p_) + " != saved " +
            std::to_string(expected_root_delta_p));
  }
  return Status::Ok();
}

uint64_t Session::Fingerprint() const {
  return persist::ConfigFingerprint(
      fds(), static_cast<uint8_t>(opts_.weights), opts_.heuristic);
}

Status Session::SaveSnapshot(const std::string& path) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  try {
    persist::SnapshotView view;
    view.fingerprint = Fingerprint();
    view.data_stamp = persist::DataStamp(*encoded_);
    view.data_version = data_version_;
    view.root_delta_p = root_delta_p_;
    view.weight_model = static_cast<uint8_t>(opts_.weights);
    view.heuristic = opts_.heuristic;
    view.encoded = encoded_.get();
    view.instance_next_var = &instance_next_var_;
    view.sigma = &fds();
    view.index = &context_->index();
    view.warm = context_->evaluator().ExportWarmState();
    return persist::WriteSnapshotFile(path, view);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

Status Session::EnableJournal(const std::string& path) {
  std::unique_lock<std::shared_mutex> snapshot(*state_mu_);
  const uint64_t fp = Fingerprint();
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec) && !ec &&
                      std::filesystem::file_size(path, ec) > 0 && !ec;
  if (exists) {
    auto writer = persist::JournalWriter::Append(path, fp);
    if (!writer.ok()) return writer.status();
    const persist::JournalHeader& header = (*writer)->header();
    if (header.base_version + (*writer)->num_records() != data_version_) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "journal '" + path + "' ends at data version " +
              std::to_string(header.base_version + (*writer)->num_records()) +
              " but this session is at " + std::to_string(data_version_) +
              "; replay it first");
    }
    journal_ = std::move(*writer);
    return Status::Ok();
  }
  persist::JournalHeader header;
  header.fingerprint = fp;
  header.base_stamp = persist::DataStamp(*encoded_);
  header.base_version = data_version_;
  auto writer = persist::JournalWriter::Create(path, header);
  if (!writer.ok()) return writer.status();
  journal_ = std::move(*writer);
  return Status::Ok();
}

Result<int> Session::ReplayJournal(const std::string& path) {
  Result<persist::JournalContents> contents = persist::ReadJournalFile(path);
  if (!contents.ok()) return contents.status();
  {
    std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
    if (journal_ != nullptr) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "cannot replay while a journal is attached (replayed batches "
          "would be re-logged); replay first, then EnableJournal");
    }
    if (contents->header.fingerprint != Fingerprint()) {
      return Status::Error(
          StatusCode::kSchemaMismatch,
          "journal '" + path +
              "' was written under a different Σ/weights configuration");
    }
    if (contents->header.base_stamp != persist::DataStamp(*encoded_)) {
      return Status::Error(StatusCode::kSchemaMismatch,
                           "journal '" + path +
                               "' extends a different base dataset");
    }
    if (contents->header.base_version != data_version_) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "journal '" + path + "' is based at data version " +
              std::to_string(contents->header.base_version) +
              " but this session is at " + std::to_string(data_version_));
    }
  }
  int applied = 0;
  for (const DeltaBatch& batch : contents->batches) {
    Result<ApplyStats> stats = Apply(batch);
    if (!stats.ok()) {
      return Status::Error(stats.status().code(),
                           "journal '" + path + "' replay stopped at record " +
                               std::to_string(applied) + ": " +
                               stats.status().message());
    }
    ++applied;
  }
  return applied;
}

Status Session::Validate(const FDSet& sigma) const {
  const int m = encoded_->NumAttrs();
  const AttrSet universe = AttrSet::Universe(m);
  for (int i = 0; i < sigma.size(); ++i) {
    const FD& fd = sigma.fd(i);
    if (fd.rhs < 0 || fd.rhs >= m || !fd.lhs.SubsetOf(universe)) {
      return Status::Error(StatusCode::kSchemaMismatch,
                           "FD " + fd.ToString() +
                               " references attributes outside the " +
                               std::to_string(m) + "-attribute schema");
    }
    if (fd.IsTrivial()) {
      return Status::Error(StatusCode::kInvalidFd,
                           "FD " + fd.ToString() +
                               " is trivial (RHS contained in LHS)");
    }
  }
  return Status::Ok();
}

Status Session::Switch(FDSet sigma, WeightModel model) {
  Status status = Validate(sigma);
  if (!status.ok()) return status;
  std::unique_lock<std::shared_mutex> snapshot(*state_mu_);
  if (journal_ != nullptr) {
    return Status::Error(
        StatusCode::kInvalidArgument,
        "cannot change the FDs or weights while a journal is attached (its "
        "records are bound to the configuration it was opened under)");
  }
  try {
    Build(sigma, model);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
  opts_.weights = model;
  return Status::Ok();
}

void Session::Build(const FDSet& sigma, WeightModel model) {
  std::unique_ptr<WeightFunction> weights = MakeWeights(model, *encoded_);
  auto context = std::make_unique<FdSearchContext>(
      sigma, *encoded_, *weights, opts_.heuristic, opts_.pool);
  Install(std::move(weights), std::move(context));
}

void Session::Install(std::unique_ptr<WeightFunction> weights,
                      std::unique_ptr<FdSearchContext> context) {
  const int64_t root = context->RootDeltaP();
  // Nothing below throws. The old context goes before the weights it
  // reads. The memoized answers belong to the old context. Callers hold the
  // snapshot lock exclusively (or own the session outright), so no request
  // is reading them.
  context_ = std::move(context);
  weights_ = std::move(weights);
  root_delta_p_ = root;
  memo_->answers.clear();
  memo_->bases.clear();
}

Status Session::SetFds(FDSet sigma) {
  return Switch(std::move(sigma), opts_.weights);
}

Status Session::SetFds(const std::vector<std::string>& fd_texts) {
  Result<FDSet> sigma = ParseFds(fd_texts, schema());
  if (!sigma.ok()) return sigma.status();
  return SetFds(std::move(*sigma));
}

Status Session::SetWeights(WeightModel weights) {
  return Switch(fds(), weights);
}

Result<ApplyStats> Session::Apply(const DeltaBatch& delta) {
  // Exclusive snapshot lock: in-flight requests (shared holders) drain
  // first, later ones observe the fully patched state.
  std::unique_lock<std::shared_mutex> snapshot(*state_mu_);
  Timer timer;
  ApplyStats stats;
  stats.tuples_inserted = static_cast<int>(delta.inserts.size());
  stats.tuples_updated = static_cast<int>(delta.updates.size());
  stats.tuples_deleted = static_cast<int>(delta.deletes.size());
  stats.num_tuples = encoded_->NumTuples();
  stats.data_version = data_version_;
  if (delta.Empty()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }
  DeltaPlan plan;
  try {
    plan = PlanDelta(delta, encoded_->NumTuples(), encoded_->NumAttrs());
  } catch (const std::invalid_argument& e) {
    // Validation failed before anything mutated; the session is untouched.
    return Status::Error(StatusCode::kInvalidArgument, e.what());
  }
  if (journal_ != nullptr) {
    // Write-ahead: the batch is durable before anything mutates, so the
    // journal is always >= the in-memory state (a logged-but-unapplied
    // batch after a crash replays to the state this Apply was producing).
    Status logged = journal_->AppendBatch(delta);
    if (!logged.ok()) return logged;
  }
  // The old context goes into AfterDelta, so Σ is copied first for the
  // from-scratch fallback.
  const FDSet sigma = fds();
  stats.covers_dropped = context_->evaluator().memo().entries();
  try {
    encoded_->ApplyDelta(delta, plan);
    AdvanceFreshVariableCounters(delta, &instance_next_var_);
    try {
      // New weights: the old ones memoized projections of the old data.
      std::unique_ptr<WeightFunction> weights =
          MakeWeights(opts_.weights, *encoded_);
      IndexPatch patch;
      std::unique_ptr<FdSearchContext> context = FdSearchContext::AfterDelta(
          std::move(context_), *encoded_, *weights, plan.dirty, plan.remap,
          opts_.pool, &patch);
      Install(std::move(weights), std::move(context));
      stats.edges_removed = patch.edges_removed;
      stats.edges_added = patch.edges_added;
      stats.groups_preserved = patch.groups_preserved;
      stats.groups_changed = patch.groups_changed;
    } catch (...) {
      // A context over stale tuple ids would be silently wrong, and the
      // old one may be gone already. Fall back to consistency over warmth:
      // rebuild it from scratch.
      Build(sigma, opts_.weights);
      stats.groups_changed = context_->index().size();
    }
    ++data_version_;
  } catch (const std::exception& e) {
    // Only the in-place encoded patch or the from-scratch fallback can
    // land here (e.g. OOM); the session may be unusable.
    return Status::Error(StatusCode::kInternal, e.what());
  }
  stats.num_tuples = encoded_->NumTuples();
  stats.data_version = data_version_;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<int64_t> Session::ResolveTau(const RepairRequest& req) const {
  // Callers (the request methods) hold the snapshot lock already, so this
  // must use the unlocked root accessor (shared_mutex is non-recursive).
  if (req.tau >= 0) return req.tau;
  if (req.tau_r == -1.0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "request sets neither tau nor tau_r");
  }
  return CheckedTauFromRelative(req.tau_r, root_delta_p_);
}

ModifyFdsOptions Session::SearchOptions(const RepairRequest& req) const {
  ModifyFdsOptions opts;
  opts.mode = req.mode;
  opts.policy.policy = req.policy;
  opts.policy.weighting_factor = req.weight;
  opts.policy.initial_upper_bound = req.upper_bound;
  opts.max_visited = req.budget;
  opts.deadline_seconds = req.deadline_seconds;
  opts.cancel = req.cancel;
  opts.phase_trace =
      req.trace != nullptr ? &req.trace->search_phases : nullptr;
  // One search runs serially: the session's pool parallelizes ACROSS
  // batched requests (and shards context builds), never inside a search.
  return opts;
}

size_t Session::MemoKeyHash::operator()(const MemoKey& key) const {
  uint64_t seed = static_cast<uint64_t>(key.tau);
  HashCombine(&seed, static_cast<uint64_t>(key.mode));
  HashCombine(&seed, static_cast<uint64_t>(key.policy));
  HashCombine(&seed, key.weight_bits);
  HashCombine(&seed, key.upper_bound_bits);
  return static_cast<size_t>(seed);
}

ModifyFdsResult Session::AnswerSearch(const RepairRequest& req, int64_t tau,
                                      const ModifyFdsOptions& opts) const {
  // A budget or deadline makes the answer depend on how far the search
  // gets, so such requests neither read nor fill the memo.
  if (req.budget > 0 || req.deadline_seconds > 0) {
    return ModifyFds(*context_, tau, opts);
  }
  if (req.cancel != nullptr && req.cancel->Cancelled()) {
    // What the search reports when the token fires before its first pop.
    ModifyFdsResult cancelled;
    cancelled.termination = SearchTermination::kCancelled;
    return cancelled;
  }
  const MemoKey key{tau, req.mode, req.policy,
                    std::bit_cast<uint64_t>(req.weight),
                    std::bit_cast<uint64_t>(req.upper_bound)};
  const ModifyFdsResult* stored = nullptr;
  {
    std::lock_guard<std::mutex> lock(memo_->mu);
    auto it = memo_->answers.find(key);
    if (it != memo_->answers.end()) stored = &it->second;
  }
  if (stored == nullptr) {
    ModifyFdsResult searched = ModifyFds(*context_, tau, opts);
    if (searched.termination == SearchTermination::kCompleted) {
      std::lock_guard<std::mutex> lock(memo_->mu);
      if (memo_->answers.size() < kSearchMemoCapacity) {
        memo_->answers.emplace(key, searched);
      }
    }
    return searched;
  }
  CheckSearchAnswer(*context_, tau, opts, *stored);
  // The stats report the work this request did, which is none; only the
  // answer and its proven quality carry over.
  ModifyFdsResult hit;
  hit.repair = stored->repair;
  hit.termination = stored->termination;
  hit.stats.suboptimality_bound = stored->stats.suboptimality_bound;
  return hit;
}

const RepairBase& Session::BaseFor(const SearchState& goal,
                                   std::optional<RepairBase>* unstored) const {
  const RepairBase* stored = nullptr;
  {
    std::lock_guard<std::mutex> lock(memo_->mu);
    auto it = memo_->bases.find(goal);
    if (it != memo_->bases.end()) stored = &it->second;
  }
  if (stored != nullptr) {
    CheckRepairBase(*context_, *encoded_, goal, *stored);
    return *stored;
  }
  RepairBase built = BuildRepairBase(*context_, *encoded_, goal);
  std::lock_guard<std::mutex> lock(memo_->mu);
  if (memo_->bases.size() < kSearchMemoCapacity) {
    return memo_->bases.try_emplace(goal, std::move(built)).first->second;
  }
  unstored->emplace(std::move(built));
  return **unstored;
}

Result<RepairResponse> Session::Repair(const RepairRequest& req) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return RepairLocked(req);
}

Result<RepairResponse> Session::RepairLocked(const RepairRequest& req) const {
  Result<int64_t> tau = ResolveTau(req);
  if (!tau.ok()) return tau.status();
  // Traced requests get a "session" span (under the service span when the
  // request came through the queue) with "search" + "materialize" children;
  // the search span's phase breakdown is filled by the engine via
  // SearchOptions(). Untraced requests skip every clock read below.
  obs::TraceSpan* session_span =
      req.trace != nullptr
          ? req.trace->SessionParent()->StartChild("session")
          : nullptr;
  try {
    Timer timer;
    ModifyFdsResult answer = AnswerSearch(req, *tau, SearchOptions(req));
    std::optional<RepairBase> unstored;
    const RepairBase* base =
        answer.repair.has_value() ? &BaseFor(answer.repair->state, &unstored)
                                  : nullptr;
    RepairOutcome outcome = MaterializeRepair(*context_, *encoded_,
                                              std::move(answer), req.seed,
                                              base);
    if (session_span != nullptr) {
      const double total = timer.ElapsedSeconds();
      obs::TraceSpan* search_span = session_span->StartChild("search");
      search_span->set_seconds(outcome.stats.seconds);
      obs::AttachSearchPhases(search_span, req.trace->search_phases);
      const double materialize = total - outcome.stats.seconds;
      if (materialize > 0.0) {
        session_span->StartChild("materialize")->set_seconds(materialize);
      }
    }
    if (!outcome.repair.has_value()) {
      if (session_span != nullptr) session_span->Finish();
      return NoRepairStatus(outcome.termination, *tau);
    }
    RepairResponse response;
    response.repair = std::move(*outcome.repair);
    response.tau = *tau;
    response.seconds = timer.ElapsedSeconds();
    response.termination = outcome.termination;
    if (session_span != nullptr) session_span->Finish();
    return response;
  } catch (const std::exception& e) {
    if (session_span != nullptr) session_span->Finish();
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

std::vector<Result<RepairResponse>> Session::RepairMany(
    std::span<const RepairRequest> reqs) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return FanOut(opts_.pool, reqs, [this](const RepairRequest& req) {
    return RepairLocked(req);
  });
}

Result<SearchProbe> Session::Search(const RepairRequest& req) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return SearchLocked(req);
}

Result<SearchProbe> Session::SearchLocked(const RepairRequest& req) const {
  Result<int64_t> tau = ResolveTau(req);
  if (!tau.ok()) return tau.status();
  try {
    Timer timer;
    SearchProbe probe;
    probe.tau = *tau;
    probe.result = ModifyFds(*context_, *tau, SearchOptions(req));
    probe.seconds = timer.ElapsedSeconds();
    return probe;
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

std::vector<Result<SearchProbe>> Session::SearchMany(
    std::span<const RepairRequest> reqs) const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return FanOut(opts_.pool, reqs, [this](const RepairRequest& req) {
    return SearchLocked(req);
  });
}

Result<MultiRepairResult> Session::EnumerateRepairs(int64_t tau_lo,
                                                    int64_t tau_hi) const {
  if (tau_lo < 0 || tau_lo > tau_hi) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "need 0 <= tau_lo <= tau_hi, got [" +
                             std::to_string(tau_lo) + ", " +
                             std::to_string(tau_hi) + "]");
  }
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  try {
    return FindRepairsFds(*context_, tau_lo, tau_hi);
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kInternal, e.what());
  }
}

uint64_t Session::DataVersion() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return data_version_;
}

Instance Session::instance() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  Instance rows = encoded_->Decode();
  rows.RestoreNextVarCounters(instance_next_var_);
  return rows;
}

int Session::NumTuples() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return encoded_->NumTuples();
}

int64_t Session::RootDeltaP() const {
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return root_delta_p_;
}

size_t Session::ContextBytesEstimate() const {
  constexpr size_t kPerGroup = 128;
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  return context_->index().edges().size_bytes() +
         static_cast<size_t>(context_->index().size()) * kPerGroup +
         sizeof(FdSearchContext);
}

Session::MemoStats Session::memo_stats() const {
  // The mutators clear the memo under the exclusive snapshot lock only.
  std::shared_lock<std::shared_mutex> snapshot(*state_mu_);
  std::lock_guard<std::mutex> lock(memo_->mu);
  MemoStats stats;
  stats.answers = memo_->answers.size();
  stats.bases = memo_->bases.size();
  for (const auto& [goal, base] : memo_->bases) {
    stats.base_bytes += base.Bytes();
  }
  return stats;
}

}  // namespace retrust
