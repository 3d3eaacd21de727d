// End-to-end integration: clean → discover → perturb → repair → score, and
// the paper's Example 1 as a full pipeline.

#include <gtest/gtest.h>

#include <sstream>

#include "src/eval/experiment.h"
#include "src/fd/discovery.h"
#include "src/relational/csv.h"
#include "src/repair/multi_repair.h"

namespace retrust {
namespace {

TEST(Integration, DiscoverPerturbRepairRoundTrip) {
  CensusConfig cfg;
  cfg.num_tuples = 500;
  cfg.num_attrs = 8;
  cfg.planted_lhs_sizes = {3};
  cfg.seed = 101;
  GeneratedData data = GenerateCensusLike(cfg);

  // Discover FDs on the clean instance (the planted one must be implied).
  EncodedInstance clean_enc(data.instance);
  DiscoveryOptions dopts;
  dopts.max_lhs = 3;
  FDSet discovered = DiscoverFDs(clean_enc, dopts);
  const FD& planted = data.planted_fds.fd(0);
  bool planted_covered = false;
  for (const FD& fd : discovered.fds()) {
    if (fd.rhs == planted.rhs && fd.lhs.SubsetOf(planted.lhs)) {
      planted_covered = true;
    }
  }
  EXPECT_TRUE(planted_covered);

  // Perturb data only; repair at full FD trust restores consistency.
  PerturbOptions popts;
  popts.fd_error_rate = 0.0;
  popts.data_error_rate = 0.03;
  popts.seed = 102;
  PerturbedData dirty = Perturb(data.instance, data.planted_fds, popts);
  EncodedInstance enc(dirty.data);
  DistinctCountWeight w(enc);
  FdSearchContext ctx(dirty.fds, enc, w);
  auto repair = RunRepair(ctx, enc, ctx.RootDeltaP()).repair;
  ASSERT_TRUE(repair.has_value());
  EXPECT_TRUE(Satisfies(repair->data, repair->sigma_prime));
  EXPECT_EQ(repair->distc, 0.0);  // FDs were correct: only cells change
}

TEST(Integration, Example1SpectrumViaCsv) {
  // The paper's Example 1 ingested through the CSV reader, swept with
  // Algorithm 6 — the full user path of the README.
  std::istringstream csv(
      "GivenName,Surname,BirthDate,Gender,Phone,Income\n"
      "Jack,White,5 Jan 1980,Male,923-234-4532,60k\n"
      "Sam,McCarthy,19 Jul 1945,Male,989-321-4232,92k\n"
      "Danielle,Blake,9 Dec 1970,Female,817-213-1211,120k\n"
      "Matthew,Webb,23 Aug 1985,Male,246-481-0992,87k\n"
      "Danielle,Blake,9 Dec 1970,Female,817-988-9211,100k\n"
      "Hong,Li,27 Oct 1972,Female,591-977-1244,90k\n"
      "Jian,Zhang,14 Apr 1990,Male,912-143-4981,55k\n"
      "Ning,Wu,3 Nov 1982,Male,313-134-9241,90k\n"
      "Hong,Li,8 Mar 1979,Female,498-214-5822,84k\n"
      "Ning,Wu,8 Nov 1982,Male,323-456-3452,95k\n");
  Instance inst = ReadCsv(csv);
  const Schema& schema = inst.schema();
  FDSet sigma = FDSet::Parse({"Surname,GivenName->Income"}, schema);
  EncodedInstance enc(inst);
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  MultiRepairResult multi = FindRepairsFds(ctx, 0, ctx.RootDeltaP());

  // The spectrum the paper describes: keep the FD (data-only repair),
  // extend by BirthDate (mid trust), extend by Phone (full data trust).
  AttrId birthdate = schema.Find("BirthDate");
  AttrId phone = schema.Find("Phone");
  bool keeps_fd = false, adds_birthdate = false, adds_phone = false;
  for (const RangedFdRepair& r : multi.repairs) {
    AttrSet ext = r.repair.state.ext[0];
    if (ext.Empty()) keeps_fd = true;
    if (ext == AttrSet::Single(birthdate)) adds_birthdate = true;
    if (ext == AttrSet::Single(phone)) adds_phone = true;
  }
  EXPECT_TRUE(keeps_fd);
  EXPECT_TRUE(adds_birthdate);
  EXPECT_TRUE(adds_phone);

  // Materialize the full-FD-trust end: incomes get reconciled.
  auto fd_trust = RunRepair(ctx, enc, ctx.RootDeltaP()).repair;
  ASSERT_TRUE(fd_trust.has_value());
  EXPECT_TRUE(fd_trust->sigma_prime == sigma);
  EXPECT_GT(fd_trust->changed_cells.size(), 0u);
  // And the full-data-trust end: zero cell changes.
  auto data_trust = RunRepair(ctx, enc, 0).repair;
  ASSERT_TRUE(data_trust.has_value());
  EXPECT_TRUE(data_trust->changed_cells.empty());
}

TEST(Integration, RepairedCsvRoundTripsThroughWriter) {
  std::istringstream csv(
      "City,Zip\nSpringfield,11111\nSpringfield,22222\nShelbyville,3\n");
  Instance inst = ReadCsv(csv);
  FDSet sigma = FDSet::Parse({"City->Zip"}, inst.schema());
  EncodedInstance enc(inst);
  CardinalityWeight w;
  FdSearchContext ctx(sigma, enc, w);
  auto repair = RunRepair(ctx, enc, /*tau=*/2).repair;
  ASSERT_TRUE(repair.has_value());
  std::ostringstream out;
  WriteCsv(repair->data.Decode(), out);
  std::istringstream back(out.str());
  Instance again = ReadCsv(back);
  EXPECT_EQ(again.NumTuples(), 3);
}

}  // namespace
}  // namespace retrust
