// Golden values for the exact FD search (Algorithm 2) and its heuristic
// gc(S) (Algorithm 3) on the wide-Σ regime: n = 400 tuples over 12
// attributes, four planted FDs of LHS width 4 made inaccurate, 2% data
// errors (generator seed 2, perturb seed 3). This is the `wide400` tenant
// of e2ebench's warm_read workload, where the search is nearly the whole
// cost of a repair.
//
// The pins were recorded before any change to the gc recursion and must
// hold across rewrites of it:
//  - exact A* at τr = 0.30 … 0.55: τ, the visit schedule counters, the
//    heuristic and cover-evaluation counts, and the repair's distc and δP;
//    one thread, and four concurrent searches on one context (which call
//    gc concurrently);
//  - gc of the root, its 36 children and its 630 grandchildren under the
//    default options, a 20-node recursion budget (the cost(S) fallback),
//    the paper's strict leave check, and the cardinality and entropy
//    weights. Root and children are pinned as hexfloats; the grandchildren
//    by an FNV-1a digest of their bit patterns in Children() order, so a
//    one-ulp change to any of them fails the test.
//
// Cover evaluations are pinned as vc_computations + vc_memo_hits: the
// split between the two depends on how warm the shared memo is, the sum
// does not.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/repair/modify_fds.h"

namespace retrust {
namespace {

constexpr int64_t kRootDeltaP = 1192;

Session OpenWide400(SessionOptions opts = {}) {
  CensusConfig gen;
  gen.num_tuples = 400;
  gen.num_attrs = 12;
  gen.planted_lhs_sizes.assign(4, 4);
  gen.seed = 2;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = 3;
  GeneratedData clean = GenerateCensusLike(gen);
  PerturbedData dirty = Perturb(clean.instance, clean.planted_fds, perturb);
  Result<Session> session =
      Session::Open(std::move(dirty.data), std::move(dirty.fds), opts);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->RootDeltaP(), kRootDeltaP);
  return std::move(session.value());
}

// ------------------------------------------------------------ searches

struct SearchPin {
  double tau_r;
  int64_t tau;
  int64_t visited;
  int64_t generated;
  int64_t expansions;
  int64_t heuristic_calls;
  int64_t cover_evaluations;
  double distc;
  int64_t delta_p;
};

constexpr SearchPin kSearchPins[] = {
    {0.30, 358, 4595, 26826, 4593, 12925, 143530, 51.0, 272},
    {0.35, 417, 5669, 33245, 5667, 14257, 150277, 51.0, 272},
    {0.40, 477, 5133, 29771, 5131, 9996, 104683, 46.0, 464},
    {0.45, 536, 1779, 10779, 1777, 3842, 31786, 37.0, 536},
    {0.50, 596, 2129, 12752, 2126, 3921, 35949, 37.0, 536},
    {0.55, 656, 1587, 9817, 1585, 2394, 21872, 33.0, 624},
};

std::string Label(const SearchPin& pin) {
  return "tau_r " + std::to_string(pin.tau_r);
}

/// The search path: where it went and what it found.
void ExpectPath(const SearchPin& pin, const ModifyFdsResult& r) {
  const std::string label = Label(pin);
  EXPECT_EQ(r.termination, SearchTermination::kCompleted) << label;
  EXPECT_EQ(r.stats.states_visited, pin.visited) << label;
  EXPECT_EQ(r.stats.states_generated, pin.generated) << label;
  EXPECT_EQ(r.stats.expansions, pin.expansions) << label;
  ASSERT_TRUE(r.repair.has_value()) << label;
  EXPECT_EQ(r.repair->distc, pin.distc) << label;
  EXPECT_EQ(r.repair->delta_p, pin.delta_p) << label;
}

/// The evaluation counters: heuristic calls and cover evaluations.
void ExpectCounters(const SearchPin& pin, const ModifyFdsResult& r) {
  const std::string label = Label(pin);
  EXPECT_EQ(r.stats.heuristic_calls, pin.heuristic_calls) << label;
  EXPECT_EQ(r.stats.vc_computations + r.stats.vc_memo_hits,
            pin.cover_evaluations)
      << label;
}

TEST(SearchGolden, ExactSearchOneThread) {
  Session session = OpenWide400();
  for (const SearchPin& pin : kSearchPins) {
    Result<SearchProbe> probe =
        session.Search(RepairRequest::AtRelative(pin.tau_r));
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_EQ(probe->tau, pin.tau) << Label(pin);
    ExpectPath(pin, probe->result);
    ExpectCounters(pin, probe->result);
  }
}

TEST(SearchGolden, ConcurrentSearchesFourThreads) {
  // Six serial searches at once on one context: one GcHeuristic and one
  // cover memo serve concurrent Compute calls.
  exec::ThreadPool pool(4);
  SessionOptions opts;
  opts.pool = &pool;
  Session session = OpenWide400(opts);
  std::vector<RepairRequest> reqs;
  for (const SearchPin& pin : kSearchPins) {
    reqs.push_back(RepairRequest::AtRelative(pin.tau_r));
  }
  std::vector<Result<SearchProbe>> probes = session.SearchMany(reqs);
  ASSERT_EQ(probes.size(), std::size(kSearchPins));
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(probes[i].ok()) << probes[i].status().ToString();
    EXPECT_EQ(probes[i]->tau, kSearchPins[i].tau) << Label(kSearchPins[i]);
    ExpectPath(kSearchPins[i], probes[i]->result);
    ExpectCounters(kSearchPins[i], probes[i]->result);
  }
}

// ------------------------------------------------------------------ gc

// The δP of the τr = 0.30 repair, and a multiple of α = 4: the vertex-cover
// bound can land exactly on τ, where the strict and default leave checks
// disagree.
constexpr int64_t kGcTau = 272;
constexpr int kGrandchildren = 630;

struct GcPins {
  double root;
  std::vector<double> children;
  uint64_t grandchildren_digest;
  int64_t cover_evaluations;  // over all 667 Compute calls
};

uint64_t Fnv1a(const std::vector<double>& values) {
  uint64_t h = 14695981039346656037ULL;
  for (double v : values) {
    const auto bits = std::bit_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string Hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void ExpectGc(const SessionOptions& opts, const GcPins& pins) {
  Session session = OpenWide400(opts);
  const FdSearchContext& ctx = session.context();
  const GcHeuristic& gc = ctx.heuristic();
  SearchStats stats;
  const SearchState root = SearchState::Root(ctx.sigma().size());
  EXPECT_EQ(gc.Compute(root, kGcTau, &stats), pins.root);

  const std::vector<SearchState> children = ctx.space().Children(root);
  ASSERT_EQ(children.size(), pins.children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    const double got = gc.Compute(children[i], kGcTau, &stats);
    EXPECT_EQ(got, pins.children[i])
        << "child " << i << " " << children[i].ToString() << ": " << Hex(got)
        << " vs " << Hex(pins.children[i]);
  }

  std::vector<double> grandchildren;
  for (const SearchState& child : children) {
    for (const SearchState& g : ctx.space().Children(child)) {
      grandchildren.push_back(gc.Compute(g, kGcTau, &stats));
    }
  }
  ASSERT_EQ(grandchildren.size(), static_cast<size_t>(kGrandchildren));
  if (Fnv1a(grandchildren) != pins.grandchildren_digest) {
    std::string values;
    for (double v : grandchildren) values += Hex(v) + " ";
    ADD_FAILURE() << "grandchildren digest " << std::hex
                  << Fnv1a(grandchildren) << " != "
                  << pins.grandchildren_digest << "; values: " << values;
  }

  EXPECT_EQ(stats.heuristic_calls,
            static_cast<int64_t>(1 + children.size() + kGrandchildren));
  EXPECT_EQ(stats.vc_computations + stats.vc_memo_hits,
            pins.cover_evaluations);
}

TEST(SearchGolden, GcDefaultOptions) {
  ExpectGc({}, {0x1.ep+3,
                {0x1.dp+4,  0x1.3p+4,  0x1.08p+5, 0x1.28p+5, 0x1.dp+5,
                 0x1.2p+5,  0x1.ep+3,  0x1.ep+3,  0x1.ep+3,  0x1.3p+4,
                 0x1.28p+5, 0x1.28p+5, 0x1.dp+5,  0x1.2p+5,  0x1.ep+3,
                 0x1.ep+3,  0x1.ep+3,  0x1.8p+4,  0x1.bp+4,  0x1.dp+4,
                 0x1.5p+5,  0x1.5p+5,  0x1.48p+5, 0x1.4p+4,  0x1.4p+4,
                 0x1.4p+4,  0x1.dp+4,  0x1.8p+4,  0x1.3p+5,  0x1.28p+5,
                 0x1.5p+5,  0x1.28p+5, 0x1.dp+5,  0x1.18p+5, 0x1.18p+5,
                 0x1.18p+5},
                0x95a91cf4df22e142ULL,
                8756});
}

TEST(SearchGolden, GcRecursionBudgetFallback) {
  SessionOptions opts;
  opts.heuristic.max_nodes = 20;
  ExpectGc(opts, {0x1.08p+5,
                  {0x1.78p+5, 0x1.08p+5, 0x1.98p+5, 0x1.98p+5, 0x1.3p+6,
                   0x1.9p+5,  0x1.dp+4,  0x1.dp+4,  0x1.dp+4,  0x1.08p+5,
                   0x1.98p+5, 0x1.98p+5, 0x1.2p+6,  0x1.9p+5,  0x1.dp+4,
                   0x1.dp+4,  0x1.dp+4,  0x1.5p+5,  0x1.68p+5, 0x1.78p+5,
                   0x1.ep+5,  0x1.ep+5,  0x1.d8p+5, 0x1.3p+5,  0x1.3p+5,
                   0x1.3p+5,  0x1.28p+5, 0x1p+5,    0x1.7p+5,  0x1.68p+5,
                   0x1.9p+5,  0x1.68p+5, 0x1.08p+6, 0x1.68p+5, 0x1.6p+5,
                   0x1.5p+5},
                  0x30ca9b3fc9053f5bULL,
                  1771});
}

TEST(SearchGolden, GcStrictLeaveCheck) {
  SessionOptions opts;
  opts.heuristic.strict_leave_check = true;
  ExpectGc(opts, {0x1.ep+3,
                  {0x1.dp+4,  0x1.3p+4,  0x1.08p+5, 0x1.28p+5, 0x1.dp+5,
                   0x1.2p+5,  0x1.ep+3,  0x1.ep+3,  0x1.ep+3,  0x1.3p+4,
                   0x1.28p+5, 0x1.28p+5, 0x1.dp+5,  0x1.2p+5,  0x1.ep+3,
                   0x1.ep+3,  0x1.ep+3,  0x1.8p+4,  0x1.bp+4,  0x1.dp+4,
                   0x1.5p+5,  0x1.5p+5,  0x1.48p+5, 0x1.4p+4,  0x1.4p+4,
                   0x1.4p+4,  0x1.1p+5,  0x1.8p+4,  0x1.3p+5,  0x1.28p+5,
                   0x1.5p+5,  0x1.5p+5,  0x1.f8p+5, 0x1.18p+5, 0x1.18p+5,
                   0x1.18p+5},
                  0x5ec085568c07393cULL,
                  10285});
}

TEST(SearchGolden, GcCardinalityWeights) {
  SessionOptions opts;
  opts.weights = WeightModel::kCardinality;
  ExpectGc(opts, {0x1.8p+1,
                  {0x1p+2,   0x1.8p+1, 0x1p+2,   0x1.8p+1, 0x1p+2,
                   0x1.8p+1, 0x1.8p+1, 0x1.8p+1, 0x1.8p+1, 0x1.8p+1,
                   0x1p+2,   0x1.8p+1, 0x1p+2,   0x1.8p+1, 0x1.8p+1,
                   0x1.8p+1, 0x1.8p+1, 0x1p+2,   0x1p+2,   0x1p+2,
                   0x1p+2,   0x1p+2,   0x1p+2,   0x1p+2,   0x1p+2,
                   0x1p+2,   0x1p+2,   0x1p+2,   0x1p+2,   0x1p+2,
                   0x1p+2,   0x1.8p+1, 0x1p+2,   0x1p+2,   0x1p+2,
                   0x1p+2},
                  0x61f131cede7bb641ULL,
                  15724});
}

TEST(SearchGolden, GcEntropyWeights) {
  SessionOptions opts;
  opts.weights = WeightModel::kEntropy;
  ExpectGc(opts, {0x1.66fc3adfb06e6p+2,
                  {0x1.cb61986896f6p+2,  0x1.a526a691258bap+2,
                   0x1.cd0cc5ca9e332p+2, 0x1.ee48044edace8p+2,
                   0x1.0dd5009dabd1cp+3, 0x1.efbec0e81cabp+2,
                   0x1.66fc3adfb06e6p+2, 0x1.68210af6f8fb6p+2,
                   0x1.6d74690f6ebf3p+2, 0x1.a526a691258bap+2,
                   0x1.df3b9b0d9b70cp+2, 0x1.e3782ddb64328p+2,
                   0x1.0dd5009dabd1cp+3, 0x1.efbec0e81cabp+2,
                   0x1.66fc3adfb06e6p+2, 0x1.68210af6f8fb6p+2,
                   0x1.6d74690f6ebf3p+2, 0x1.0e6807c3302d9p+3,
                   0x1.07b8cd4266231p+3, 0x1.090c47a3ddc93p+3,
                   0x1.2d90cb684f81p+3,  0x1.32f8b6a20acfp+3,
                   0x1.33b414eeabbd3p+3, 0x1.dea5a3d4eb3dep+2,
                   0x1.dfca73ec33caep+2, 0x1.e51dd204a98eap+2,
                   0x1.cdab3897281p+2,   0x1.cdab3897281p+2,
                   0x1.eb397c2ea93aap+2, 0x1.ee19651a2d6bbp+2,
                   0x1.0bab71e0b7782p+3, 0x1.f091a47d6be88p+2,
                   0x1.0ef9d0b4f45ecp+3, 0x1.e3833a6a1cc92p+2,
                   0x1.e52bd9ee7d0cp+2,  0x1.e3833a6a1cc92p+2},
                  0x2a155e9ce3d931b4ULL,
                  13427});
}

}  // namespace
}  // namespace retrust
