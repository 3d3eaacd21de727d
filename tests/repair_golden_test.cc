// Golden digests for Algorithm 4 (paper §6): the chase that repairs each
// cover tuple. A pin is the FNV-1a digest of one repair's output — every
// cell code of I' column by column, the fresh-variable counters, and the
// changed cells — so a change to any repaired value, to the variable index
// a cell received, or to how far a counter advanced fails it.
//
// The pins were recorded before the chase became incremental and must hold
// across rewrites of it. Each (case, τr, seed) runs through Session::Repair
// (the context path over the memoized base) and through the standalone
// RepairData on the Σ' the session chose; both must give the pinned digest.
//
// Cases, each small enough for a Debug run:
//  - dense: 8 attributes, two planted FDs of LHS width 2 (e2ebench's
//    dense5k regime at n = 400);
//  - wide: 12 attributes, four planted FDs of LHS width 4 (wide400's
//    regime at n = 160);
//  - variables: the dense case with 3% of its cells replaced by variables
//    drawn from five per column, so clean keys and forced values hold
//    variable codes and the fresh-variable counters start above zero;
//  - empty_lhs: Σ = {∅ → B} over six tuples, at seeds whose repairs
//    succeeded before the chase handled an ∅-LHS FD that forces the first
//    attribute of a tuple's order (at τr = 1, Σ' keeps the empty LHS).

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/fd/violation.h"
#include "src/repair/repair_data.h"

namespace retrust {
namespace {

struct RepairPin {
  double tau_r;
  uint64_t seed;
  size_t changed_cells;
  uint64_t digest;
};

void Mix(uint64_t* h, int32_t v) {
  const auto bits = static_cast<uint32_t>(v);
  for (int byte = 0; byte < 4; ++byte) {
    *h ^= (bits >> (8 * byte)) & 0xff;
    *h *= 1099511628211ULL;
  }
}

uint64_t Digest(const EncodedInstance& repaired,
                const std::vector<CellRef>& changed) {
  uint64_t h = 14695981039346656037ULL;
  for (AttrId a = 0; a < repaired.NumAttrs(); ++a) {
    for (int32_t code : repaired.column(a)) Mix(&h, code);
  }
  for (int32_t counter : repaired.next_var_counters()) Mix(&h, counter);
  for (const CellRef& c : changed) {
    Mix(&h, c.tuple);
    Mix(&h, c.attr);
  }
  return h;
}

PerturbedData Census(int n, int attrs, std::vector<int> lhs_sizes,
                     uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = n;
  gen.num_attrs = attrs;
  gen.planted_lhs_sizes = std::move(lhs_sizes);
  gen.seed = seed;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  return Perturb(clean.instance, clean.planted_fds, perturb);
}

void ExpectPins(Instance data, const FDSet& sigma,
                const std::vector<RepairPin>& pins) {
  Result<Session> session = Session::Open(std::move(data), sigma);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const RepairPin& pin : pins) {
    char label[64];
    std::snprintf(label, sizeof label, "tau_r=%.2f seed=%llu", pin.tau_r,
                  static_cast<unsigned long long>(pin.seed));
    RepairRequest req = RepairRequest::AtRelative(pin.tau_r);
    req.seed = pin.seed;
    Result<RepairResponse> got = session->Repair(req);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    const Repair& repair = got->repair;
    EXPECT_TRUE(Satisfies(repair.data, repair.sigma_prime)) << label;
    const uint64_t digest = Digest(repair.data, repair.changed_cells);
    EXPECT_EQ(repair.changed_cells.size(), pin.changed_cells) << label;
    EXPECT_EQ(digest, pin.digest)
        << label << ": got " << repair.changed_cells.size() << " cells, 0x"
        << std::hex << digest;

    Rng rng(pin.seed);
    DataRepairResult standalone =
        RepairData(session->data(), repair.sigma_prime, &rng);
    EXPECT_EQ(Digest(standalone.repaired, standalone.changed_cells),
              pin.digest)
        << label << " (standalone)";
  }
}

TEST(RepairGolden, Dense) {
  PerturbedData dirty = Census(400, 8, {2, 2}, 1);
  ExpectPins(std::move(dirty.data), dirty.fds,
             {
                 {0.1, 1, 8, 0xa5e4c5bd030b75baULL},
                 {0.1, 2, 8, 0x5075bf466b9a1f64ULL},
                 {0.1, 3, 8, 0x22b0079af2b28653ULL},
                 {0.5, 1, 40, 0xc5155c2d0308cea6ULL},
                 {0.5, 2, 40, 0x15d364fd9dd38e62ULL},
                 {0.5, 3, 40, 0xce62a6e7d12ed2d1ULL},
                 {1.0, 1, 151, 0x1888ea260fb8d860ULL},
                 {1.0, 2, 151, 0x642db150e287a927ULL},
                 {1.0, 3, 151, 0xd2b3053b13ec6b73ULL},
             });
}

TEST(RepairGolden, Wide) {
  PerturbedData dirty = Census(160, 12, {4, 4, 4, 4}, 4);
  ExpectPins(std::move(dirty.data), dirty.fds,
             {
                 {0.1, 1, 6, 0xf32609dfbd23bc7eULL},
                 {0.1, 2, 8, 0x7aa99cfa6fb6dfd9ULL},
                 {0.1, 3, 7, 0x2066d2f39403be07ULL},
                 {0.5, 1, 35, 0x51f759468316a761ULL},
                 {0.5, 2, 35, 0x1a27d9d39c21c55eULL},
                 {0.5, 3, 32, 0x50d8254eaa9acdf4ULL},
                 {1.0, 1, 126, 0xbd762694c1fa7768ULL},
                 {1.0, 2, 108, 0x2fb1a61f29f6f397ULL},
                 {1.0, 3, 120, 0x3d7f4065686485cdULL},
             });
}

TEST(RepairGolden, Variables) {
  PerturbedData dirty = Census(400, 8, {2, 2}, 3);
  std::mt19937 gen(7);
  std::uniform_int_distribution<int> percent(0, 99), pool(0, 4);
  for (TupleId t = 0; t < dirty.data.NumTuples(); ++t) {
    for (AttrId a = 0; a < dirty.data.NumAttrs(); ++a) {
      if (percent(gen) < 3) {
        dirty.data.Set(t, a, Value::Variable(a, pool(gen)));
      }
    }
  }
  ExpectPins(std::move(dirty.data), dirty.fds,
             {
                 {0.1, 1, 13, 0xc51666966a50ea63ULL},
                 {0.1, 2, 13, 0xa52b3b7f7f73405aULL},
                 {0.1, 3, 13, 0x3f21b7fb09d8b63ULL},
                 {0.5, 1, 33, 0xbfed84edf97c7295ULL},
                 {0.5, 2, 33, 0xeacc88cb305bb46aULL},
                 {0.5, 3, 33, 0x33a7a5602f828f88ULL},
                 {1.0, 1, 212, 0xdf335ff43c719fb7ULL},
                 {1.0, 2, 212, 0x7fe49706371a2a03ULL},
                 {1.0, 3, 210, 0xf75b98d6059bc1feULL},
             });
}

TEST(RepairGolden, EmptyLhs) {
  Instance inst(Schema::FromNames({"A", "B", "C"}));
  for (auto [a, b, c] : {std::tuple{"1", "x", "p"}, std::tuple{"2", "x", "q"},
                         std::tuple{"3", "x", "r"}, std::tuple{"4", "y", "s"},
                         std::tuple{"5", "x", "t"}, std::tuple{"6", "z", "u"}}) {
    inst.AddTuple({Value(a), Value(b), Value(c)});
  }
  FDSet sigma;
  sigma.Add(FD{AttrSet{}, 1});
  ExpectPins(std::move(inst), sigma,
             {
                 {0.1, 1, 0, 0x439550f79faab236ULL},
                 {0.1, 2, 0, 0x439550f79faab236ULL},
                 {0.1, 3, 0, 0x439550f79faab236ULL},
                 {0.5, 1, 0, 0x439550f79faab236ULL},
                 {0.5, 2, 0, 0x439550f79faab236ULL},
                 {0.5, 3, 0, 0x439550f79faab236ULL},
                 {1.0, 1, 2, 0xcf5acda60a5e4d91ULL},
                 {1.0, 2, 2, 0xcf5acda60a5e4d91ULL},
                 {1.0, 3, 2, 0xca3a64c25524ea33ULL},
             });
}

}  // namespace
}  // namespace retrust
