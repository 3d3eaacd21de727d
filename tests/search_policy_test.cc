// The search engine's policy contract (src/search/engine.cc):
//
//  - kExact is BIT-IDENTICAL to the pre-engine ModifyFds loop — checked
//    against an in-test reimplementation of the legacy serial loop (the
//    oracle), evaluation counters included;
//  - kAnytime always returns a τ-feasible repair costing at most
//    w·optimal, and proves cost-optimality when run to completion;
//  - kGreedy returns a τ-feasible repair with no optimality claim;
//  - interruptions (visit budget) return the best incumbent instead of
//    failing once one exists, with a finite suboptimality bound;
//  - the δP floor (src/search/bound.h) never exceeds the true δP of a
//    state or any of its tree descendants (admissibility);
//  - the service wire parses the policy knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/repair/modify_fds.h"
#include "src/search/bound.h"
#include "src/service/wire.h"
#include "src/util/rng.h"

namespace retrust {
namespace {

struct Workload {
  Instance dirty;
  FDSet sigma;
  EncodedInstance enc;
};

Workload Make(uint64_t seed) {
  CensusConfig cfg;
  cfg.num_tuples = 350;
  cfg.num_attrs = 10;
  cfg.planted_lhs_sizes = {4};
  cfg.seed = seed;
  GeneratedData data = GenerateCensusLike(cfg);
  PerturbOptions popts;
  popts.fd_error_rate = 0.5;
  popts.data_error_rate = 0.02;
  popts.seed = seed + 1;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  return {dirty.data, dirty.fds, EncodedInstance(dirty.data)};
}

// ------------------------------------------------------- legacy oracle

struct LegacyEntry {
  double priority;
  double cost;
  int64_t seq;
  bool evaluated;
  SearchState state;

  bool operator<(const LegacyEntry& o) const {
    if (priority != o.priority) return priority > o.priority;
    if (cost != o.cost) return cost > o.cost;
    return seq > o.seq;
  }
};

// The legacy loop's cost tolerance: goal costs this close tie.
constexpr double kLegacyEpsilon = 1e-9;

// The pre-engine ModifyFds loop, verbatim (gc/cover computed inline, open
// list a std::priority_queue) with its δP tie-break on. The engine's kExact
// policy must reproduce its repair AND its visit schedule exactly.
ModifyFdsResult LegacyModifyFds(const FdSearchContext& ctx, int64_t tau,
                                const ModifyFdsOptions& opts) {
  ModifyFdsResult result;
  SearchStats& stats = result.stats;
  const bool astar = opts.mode == SearchMode::kAStar;

  std::priority_queue<LegacyEntry> pq;
  int64_t seq = 0;
  SearchState root = SearchState::Root(ctx.sigma().size());
  pq.push({root.Cost(ctx.weights()), root.Cost(ctx.weights()), seq++,
           !astar, root});
  ++stats.states_generated;

  std::optional<FdRepair> best;
  while (!pq.empty()) {
    LegacyEntry top = pq.top();
    pq.pop();

    if (!top.evaluated) {
      double gc = ctx.heuristic().Compute(top.state, tau, &stats);
      if (gc == GcHeuristic::kInfinity) continue;
      top.priority = std::max(gc, top.cost);
      top.evaluated = true;
      if (!pq.empty() && pq.top().priority < top.priority) {
        pq.push(std::move(top));
        continue;
      }
    }

    ++stats.states_visited;
    if (opts.max_visited > 0 && stats.states_visited > opts.max_visited) {
      result.termination = SearchTermination::kVisitBudget;
      break;
    }

    if (best.has_value()) {
      bool can_tie = top.cost <= best->distc + kLegacyEpsilon;
      if (top.priority > best->distc + kLegacyEpsilon) break;
      if (!can_tie && top.cost > best->distc + kLegacyEpsilon) continue;
    }

    int64_t cover = ctx.CoverSize(top.state, &stats);
    int64_t delta_p = ctx.alpha() * cover;
    if (delta_p <= tau) {
      double cost = top.state.Cost(ctx.weights());
      if (!best.has_value()) {
        best = FdRepair{top.state, top.state.Apply(ctx.sigma()), cost,
                        cover, delta_p};
        continue;
      }
      if (cost <= best->distc + kLegacyEpsilon && delta_p < best->delta_p) {
        best = FdRepair{top.state, top.state.Apply(ctx.sigma()), cost,
                        cover, delta_p};
      }
      continue;
    }

    std::vector<SearchState> children = ctx.space().Children(top.state);
    for (size_t i = 0; i < children.size(); ++i) {
      double child_cost = children[i].Cost(ctx.weights());
      double lower = std::max(top.priority, child_cost);
      if (best.has_value() && lower > best->distc + kLegacyEpsilon) {
        continue;
      }
      pq.push({lower, child_cost, seq++, !astar, std::move(children[i])});
      ++stats.states_generated;
    }
  }

  result.repair = std::move(best);
  return result;
}

void ExpectSameRepair(const ModifyFdsResult& got,
                      const ModifyFdsResult& want, const char* label) {
  ASSERT_EQ(got.repair.has_value(), want.repair.has_value()) << label;
  if (!want.repair.has_value()) return;
  EXPECT_EQ(got.repair->state, want.repair->state) << label;
  EXPECT_EQ(got.repair->distc, want.repair->distc) << label;  // bitwise
  EXPECT_EQ(got.repair->cover_size, want.repair->cover_size) << label;
  EXPECT_EQ(got.repair->delta_p, want.repair->delta_p) << label;
}

TEST(SearchPolicyOracle, ExactBitIdenticalToLegacyAcrossThreads) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    Workload wl = Make(seed);
    DistinctCountWeight w(wl.enc);
    int64_t tau;
    {
      FdSearchContext probe(wl.sigma, wl.enc, w);
      tau = probe.RootDeltaP() / 4;
    }
    for (SearchMode mode : {SearchMode::kAStar, SearchMode::kBestFirst}) {
      ModifyFdsOptions opts;
      opts.mode = mode;
      // Fresh context per run: the shared cover memo would otherwise shift
      // the hit/miss split between runs (values never change, counters do).
      FdSearchContext legacy_ctx(wl.sigma, wl.enc, w);
      ModifyFdsResult legacy = LegacyModifyFds(legacy_ctx, tau, opts);
      FdSearchContext ctx(wl.sigma, wl.enc, w);
      ModifyFdsResult got = ModifyFds(ctx, tau, opts);
      std::string label = "seed " + std::to_string(seed) + " mode " +
                          std::to_string(static_cast<int>(mode));
      ExpectSameRepair(got, legacy, label.c_str());
      EXPECT_EQ(got.stats.states_visited, legacy.stats.states_visited)
          << label;
      EXPECT_EQ(got.stats.states_generated, legacy.stats.states_generated)
          << label;
      EXPECT_EQ(got.termination, legacy.termination) << label;
      // Even the evaluation counters match the legacy loop exactly.
      EXPECT_EQ(got.stats.heuristic_calls, legacy.stats.heuristic_calls)
          << label;
      EXPECT_EQ(got.stats.vc_computations, legacy.stats.vc_computations)
          << label;
      EXPECT_EQ(got.stats.vc_memo_hits, legacy.stats.vc_memo_hits) << label;
      if (got.repair.has_value()) {
        // Incumbent bookkeeping rides along without touching the path.
        EXPECT_GE(got.stats.incumbent_improvements, 1) << label;
        EXPECT_EQ(static_cast<int64_t>(got.incumbents.size()),
                  got.stats.incumbent_improvements)
            << label;
        EXPECT_EQ(got.stats.suboptimality_bound, 1.0) << label;
      }
    }
  }
}

// ---------------------------------------------------- anytime / greedy

TEST(SearchPolicyAnytime, FeasibleAndWithinWeightOfOptimal) {
  for (uint64_t seed : {111u, 222u}) {
    Workload wl = Make(seed);
    DistinctCountWeight w(wl.enc);
    FdSearchContext ctx(wl.sigma, wl.enc, w);
    int64_t tau = ctx.RootDeltaP() / 4;
    ModifyFdsResult exact = ModifyFds(ctx, tau, {});
    ASSERT_TRUE(exact.repair.has_value());
    for (double weight : {1.5, 2.0, 3.0}) {
      ModifyFdsOptions opts;
      opts.policy.policy = search::SearchPolicy::kAnytime;
      opts.policy.weighting_factor = weight;
      ModifyFdsResult any = ModifyFds(ctx, tau, opts);
      ASSERT_TRUE(any.repair.has_value()) << "w " << weight;
      EXPECT_LE(any.repair->delta_p, tau) << "w " << weight;
      // Every incumbent along the trajectory already satisfied the w-bound;
      // the final one is the strongest.
      ASSERT_FALSE(any.incumbents.empty());
      EXPECT_LE(any.incumbents.front().distc,
                weight * exact.repair->distc + 1e-9)
          << "w " << weight;
      EXPECT_LE(any.repair->distc, weight * exact.repair->distc + 1e-9)
          << "w " << weight;
      // Run to completion, the anytime refinement closes on the optimum.
      ASSERT_EQ(any.termination, SearchTermination::kCompleted);
      EXPECT_NEAR(any.repair->distc, exact.repair->distc, 1e-9)
          << "w " << weight;
      EXPECT_EQ(any.stats.suboptimality_bound, 1.0) << "w " << weight;
      // Trajectory is recorded, timestamped, and monotone in cost.
      EXPECT_EQ(static_cast<int64_t>(any.incumbents.size()),
                any.stats.incumbent_improvements);
      EXPECT_GT(any.stats.first_repair_seconds, 0.0);
      for (size_t i = 1; i < any.incumbents.size(); ++i) {
        EXPECT_LE(any.incumbents[i].distc,
                  any.incumbents[i - 1].distc + 1e-9);
      }
    }
  }
}

TEST(SearchPolicyGreedy, FirstFeasibleRepairIsValid) {
  Workload wl = Make(333);
  DistinctCountWeight w(wl.enc);
  FdSearchContext ctx(wl.sigma, wl.enc, w);
  int64_t tau = ctx.RootDeltaP() / 4;
  ModifyFdsResult exact = ModifyFds(ctx, tau, {});
  ASSERT_TRUE(exact.repair.has_value());

  ModifyFdsOptions opts;
  opts.policy.policy = search::SearchPolicy::kGreedy;
  ModifyFdsResult greedy = ModifyFds(ctx, tau, opts);
  ASSERT_TRUE(greedy.repair.has_value());
  EXPECT_LE(greedy.repair->delta_p, tau);
  // A valid repair can cost more than the optimum, never less.
  EXPECT_GE(greedy.repair->distc, exact.repair->distc - 1e-9);
  // Greedy makes no optimality claim.
  EXPECT_EQ(greedy.stats.suboptimality_bound, 0.0);
  EXPECT_EQ(greedy.termination, SearchTermination::kCompleted);
}

TEST(SearchPolicyInterrupt, BudgetReturnsBestIncumbentNotFailure) {
  // Scan seeds for a run where the search keeps working after the first
  // incumbent — that refinement phase is what this test cuts with the
  // visit budget. The search is deterministic, so cutting right after the
  // first incumbent was recorded must reproduce that incumbent.
  bool exercised = false;
  for (uint64_t seed : {444u, 445u, 446u, 447u}) {
    Workload wl = Make(seed);
    DistinctCountWeight w(wl.enc);
    FdSearchContext ctx(wl.sigma, wl.enc, w);
    int64_t tau = ctx.RootDeltaP() / 4;

    ModifyFdsOptions opts;
    opts.policy.policy = search::SearchPolicy::kAnytime;
    ModifyFdsResult full = ModifyFds(ctx, tau, opts);
    ASSERT_TRUE(full.repair.has_value()) << "seed " << seed;
    ASSERT_FALSE(full.incumbents.empty()) << "seed " << seed;
    const search::IncumbentPoint& first = full.incumbents.front();
    if (first.states_visited >= full.stats.states_visited) continue;
    exercised = true;

    ModifyFdsOptions cut = opts;
    cut.max_visited = first.states_visited;
    ModifyFdsResult interrupted = ModifyFds(ctx, tau, cut);
    EXPECT_EQ(interrupted.termination, SearchTermination::kVisitBudget)
        << "seed " << seed;
    ASSERT_TRUE(interrupted.repair.has_value())
        << "an interruption with an incumbent in hand returns it (seed "
        << seed << ")";
    EXPECT_NEAR(interrupted.repair->distc, first.distc, 1e-9)
        << "seed " << seed;
    // The interrupted claim is finite and no stronger than the w-bound.
    EXPECT_GE(interrupted.stats.suboptimality_bound, 1.0) << "seed " << seed;
    EXPECT_LE(interrupted.stats.suboptimality_bound,
              opts.policy.weighting_factor + 1e-9)
        << "seed " << seed;
  }
  EXPECT_TRUE(exercised)
      << "no seed produced refinement after the first incumbent";
}

TEST(SearchPolicyInterrupt, SessionSurfacesTruncatedRepairs) {
  bool exercised = false;
  for (uint64_t seed : {555u, 556u, 557u, 558u}) {
    Workload wl = Make(seed);
    Result<Session> session = Session::Open(wl.dirty, wl.sigma);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    int64_t tau = session->RootDeltaP() / 4;

    RepairRequest req = RepairRequest::At(tau);
    req.policy = search::SearchPolicy::kAnytime;
    Result<SearchProbe> full = session->Search(req);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full->result.repair.has_value()) << "seed " << seed;
    ASSERT_FALSE(full->result.incumbents.empty()) << "seed " << seed;
    if (full->result.incumbents.front().states_visited >=
        full->result.stats.states_visited) {
      continue;
    }
    exercised = true;

    RepairRequest cut = req;
    cut.budget = full->result.incumbents.front().states_visited;
    // The probe reports the truncation; the repair verb still succeeds
    // (best-so-far, not kBudgetExceeded) because an incumbent exists.
    Result<SearchProbe> probe = session->Search(cut);
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(probe->result.termination, SearchTermination::kVisitBudget)
        << "seed " << seed;
    EXPECT_TRUE(probe->result.repair.has_value()) << "seed " << seed;
    Result<RepairResponse> response = session->Repair(cut);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->termination, SearchTermination::kVisitBudget)
        << "seed " << seed;
    EXPECT_FALSE(response->repair.incumbents.empty()) << "seed " << seed;
  }
  EXPECT_TRUE(exercised)
      << "no seed produced refinement after the first incumbent";
}

// -------------------------------------------------------- lower bound

TEST(SearchPolicyBound, DeltaPFloorAdmissibleOnTreeDescendants) {
  for (uint64_t seed : {666u, 777u}) {
    Workload wl = Make(seed);
    DistinctCountWeight w(wl.enc);
    FdSearchContext ctx(wl.sigma, wl.enc, w);
    search::CoverLowerBound bound(ctx);
    Rng rng(seed);
    // Random root-to-leaf walks through Children(): at every state on the
    // walk, the floor must lower-bound the state's own δP and the δP of
    // every deeper state on the SAME walk (they are its tree descendants).
    for (int walk = 0; walk < 20; ++walk) {
      SearchState s = SearchState::Root(ctx.sigma().size());
      std::vector<int64_t> floors;
      std::vector<int64_t> deltas;
      while (true) {
        floors.push_back(bound.DeltaPFloor(s, nullptr));
        deltas.push_back(ctx.DeltaP(s, nullptr));
        std::vector<SearchState> children = ctx.space().Children(s);
        if (children.empty()) break;
        s = children[rng.NextUint(children.size())];
      }
      for (size_t i = 0; i < floors.size(); ++i) {
        for (size_t j = i; j < deltas.size(); ++j) {
          ASSERT_LE(floors[i], deltas[j])
              << "seed " << seed << " walk " << walk << " ancestor " << i
              << " descendant " << j;
        }
      }
    }
  }
}

// --------------------------------------------------------------- wire

TEST(SearchPolicyWire, ParsesPolicyKnobs) {
  using service::Json;
  using service::ParseJson;
  using service::RepairRequestFromJson;
  Result<Json> obj = ParseJson(
      R"({"tau":3,"policy":"anytime","weight":2.5,"upper_bound":7.0})");
  ASSERT_TRUE(obj.ok());
  Result<RepairRequest> req = RepairRequestFromJson(*obj);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->policy, search::SearchPolicy::kAnytime);
  EXPECT_DOUBLE_EQ(req->weight, 2.5);
  EXPECT_DOUBLE_EQ(req->upper_bound, 7.0);

  Result<Json> plain = ParseJson(R"({"tau":3})");
  ASSERT_TRUE(plain.ok());
  Result<RepairRequest> defaulted = RepairRequestFromJson(*plain);
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->policy, search::SearchPolicy::kExact);

  for (const char* bad :
       {R"({"tau":1,"policy":"fast"})", R"({"tau":1,"policy":3})",
        R"({"tau":1,"weight":0.5})", R"({"tau":1,"upper_bound":-1})"}) {
    Result<Json> parsed = ParseJson(bad);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(RepairRequestFromJson(*parsed).ok()) << bad;
  }
}

}  // namespace
}  // namespace retrust
