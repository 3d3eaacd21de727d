// The paper's Example 1 (Figure 1): an employee relation collected from
// several sources, with the asserted FD
//     Surname, GivenName -> Income.
// The FD is right for Western names but wrong for the Chinese names in the
// data (t6/t9, t8/t10 are different people), while t3/t5 carry a genuine
// data error. Sweeping the relative trust exposes exactly the paper's
// spectrum of fixes: extend the FD by BirthDate (and Phone), or edit
// incomes, or a mix.
//
//   build/examples/example_employees

#include <cstdio>

#include "src/api/session.h"

using namespace retrust;

namespace {

Instance EmployeeInstance() {
  Schema schema(std::vector<Attribute>{
      {"GivenName", AttrType::kString},
      {"Surname", AttrType::kString},
      {"BirthDate", AttrType::kString},
      {"Gender", AttrType::kString},
      {"Phone", AttrType::kString},
      {"Income", AttrType::kString}});
  Instance inst(schema);
  auto add = [&](const char* g, const char* s, const char* b, const char* ge,
                 const char* p, const char* i) {
    inst.AddTuple({Value(g), Value(s), Value(b), Value(ge), Value(p),
                   Value(i)});
  };
  add("Jack", "White", "5 Jan 1980", "Male", "923-234-4532", "60k");
  add("Sam", "McCarthy", "19 Jul 1945", "Male", "989-321-4232", "92k");
  add("Danielle", "Blake", "9 Dec 1970", "Female", "817-213-1211", "120k");
  add("Matthew", "Webb", "23 Aug 1985", "Male", "246-481-0992", "87k");
  add("Danielle", "Blake", "9 Dec 1970", "Female", "817-988-9211", "100k");
  add("Hong", "Li", "27 Oct 1972", "Female", "591-977-1244", "90k");
  add("Jian", "Zhang", "14 Apr 1990", "Male", "912-143-4981", "55k");
  add("Ning", "Wu", "3 Nov 1982", "Male", "313-134-9241", "90k");
  add("Hong", "Li", "8 Mar 1979", "Female", "498-214-5822", "84k");
  add("Ning", "Wu", "8 Nov 1982", "Male", "323-456-3452", "95k");
  return inst;
}

}  // namespace

int main() {
  Instance inst = EmployeeInstance();
  std::printf("Employees (Figure 1):\n%s\n", inst.ToTable().c_str());

  SessionOptions opts;
  opts.weights = WeightModel::kCardinality;  // count appended attributes
  Result<Session> session = Session::Open(
      std::move(inst), {"Surname,GivenName->Income"}, opts);
  if (!session.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  const Schema& schema = session->schema();
  std::printf("Asserted FD: %s\n\n",
              session->fds().ToString(schema).c_str());

  int64_t root = session->RootDeltaP();
  std::printf("deltaP(Sigma, I) = %lld (tau_r = 100%%)\n\n",
              static_cast<long long>(root));

  // The full relative-trust spectrum in one search (Algorithm 6).
  Result<MultiRepairResult> multi = session->EnumerateRepairs(0, root);
  if (!multi.ok()) {
    std::fprintf(stderr, "enumerate failed: %s\n",
                 multi.status().ToString().c_str());
    return 1;
  }
  std::printf("Distinct minimal FD repairs across tau in [0, %lld]:\n",
              static_cast<long long>(root));
  for (const RangedFdRepair& r : multi->repairs) {
    std::printf("  tau in [%lld, %lld]: Sigma' = %s (distc = %.0f)\n",
                static_cast<long long>(r.tau_lo),
                static_cast<long long>(r.tau_hi),
                r.repair.sigma_prime.ToString(schema).c_str(),
                r.repair.distc);
  }

  // Materialize the two extremes plus a middle point — one batched call,
  // fanned out on the session's pool over the shared context.
  std::vector<RepairRequest> requests;
  for (int64_t tau : {int64_t{0}, root / 2, root}) {
    requests.push_back(RepairRequest::At(tau));
  }
  std::vector<Result<RepairResponse>> responses =
      session->RepairMany(requests);
  for (const Result<RepairResponse>& response : responses) {
    if (!response.ok()) {
      std::printf("\n%s\n", response.status().ToString().c_str());
      continue;
    }
    const Repair& repair = response->repair;
    std::printf("\n--- tau = %lld ---\n",
                static_cast<long long>(response->tau));
    std::printf("Sigma' = %s\n", repair.sigma_prime.ToString(schema).c_str());
    std::printf("cells changed: %zu\n", repair.changed_cells.size());
    for (const CellRef& c : repair.changed_cells) {
      std::printf("  t%d[%s]: %s -> %s\n", c.tuple + 1,
                  schema.name(c.attr).c_str(),
                  session->instance().At(c.tuple, c.attr).ToString().c_str(),
                  repair.data.DecodeCell(c.tuple, c.attr)
                      .ToString(schema.name(c.attr))
                      .c_str());
    }
  }
  return 0;
}
