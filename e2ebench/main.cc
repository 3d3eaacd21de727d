// retrust end-to-end benchmark: the program e2ebench/run.py builds and runs.
//
//   e2e --workload <warm_read|state_change|wire_small> --seed <n>
//       --seconds <s> --trace <0|1> --work-dir <dir>
//
// Generates the workload's inputs from the seed into <dir>, sets the
// service up at least three times (the median is setup_s; the last one
// stays up), runs one unmeasured pass, runs the workload closed-loop for
// <s> seconds of whole passes, checks every reply plus the serial-Session
// oracle, and prints a report: every metric by name with its unit and
// sample count, then one JSON line with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1,
// which adds a traced window of the same length and direct layer probes).
// Exits 1 when any correctness check fails, 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const char* const* w = kWorkloads; *w != nullptr; ++w) {
    known |= args->workload == *w;
  }
  return known && args->seconds > 0 && !args->dir.empty() && argc % 2 == 1;
}

/// Geometric mean of the slot medians (Window::slots): a k-fold change in
/// the latency of one of m slots moves it by k^(1/m).
double GeomeanOfMedians(const Window& w) {
  double log_sum = 0.0;
  for (const auto& [slot, samples] : w.slots) {
    const double median = Median(samples);
    if (!(median > 0.0) || !std::isfinite(median)) return 0.0;
    log_sum += std::log(median);
  }
  return w.slots.empty() ? 0.0
                         : std::exp(log_sum / static_cast<double>(w.slots.size()));
}

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) std::printf("  n=%zu", m.samples);
  if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
  std::printf("\n");
}

/// Latency percentiles of one sample set under `name`: the median always,
/// p90/p99 only where at least ten samples lie beyond them.
void LatencyMetrics(const std::string& name, const std::vector<double>& v,
                    std::vector<Metric>* out) {
  const std::string base = name.rfind("reopen_", 0) == 0 ? name : name + "_p50";
  out->push_back({base + "_s", Median(v), "s", v.size(), {}});
  for (auto [q, label] : {std::pair{0.9, "_p90_s"}, std::pair{0.99, "_p99_s"}}) {
    if (TailReportable(v.size(), q)) {
      out->push_back({name + label, Quantile(v, q), "s", v.size(), {}});
    }
  }
}

/// The workload's named latency metrics (README.md, "End-to-end metrics").
std::vector<Metric> NamedMetrics(const Plan& plan, const Window& w) {
  std::vector<Metric> out;
  std::vector<double> all;
  for (const std::string& cls : plan.classes) {
    auto it = w.latency.find(cls);
    if (it == w.latency.end()) continue;
    LatencyMetrics(cls, it->second, &out);
    all.insert(all.end(), it->second.begin(), it->second.end());
  }
  if (plan.workload == "wire_small") LatencyMetrics("wire", all, &out);
  out.push_back({plan.workload == "wire_small" ? "wire_rps" : "throughput_rps",
                 w.rps, "req/s", w.requests, {}});
  return out;
}

/// Median over traced repairs of one span-derived quantity.
Metric SpanMedian(const std::vector<SpanRecord>& spans, const std::string& name,
                  const std::string& unit,
                  double (*get)(const SpanRecord&, const std::string&),
                  const std::string& key, std::vector<Metric>* tails) {
  std::vector<double> v;
  for (const SpanRecord& r : spans) v.push_back(get(r, key));
  if (tails != nullptr && TailReportable(v.size(), 0.9)) {
    // "service.decode_s" -> "service.decode_p90_s", "search.s" -> "search.p90_s".
    const size_t cut = name.size() - 2;
    const std::string p90 =
        name.substr(0, cut) + (name[cut] == '_' ? "_p90_s" : ".p90_s");
    tails->push_back({p90, Quantile(v, 0.9), unit, v.size(), {}});
  }
  return {name, Median(v), unit, v.size(), {}};
}

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}
double SelfOf(const SpanRecord& r, const std::string& k) { return Lookup(r.self, k); }
double TotalOf(const SpanRecord& r, const std::string& k) { return Lookup(r.total, k); }
double CountOf(const SpanRecord& r, const std::string& k) { return Lookup(r.count, k); }
double ClientOverhead(const SpanRecord& r, const std::string&) {
  return r.client - r.root;
}

/// The server-side layers of a traced repair and the spans each owns
/// (self times, so nothing is counted twice).
const std::vector<std::pair<std::string, std::vector<std::string>>>& Layers() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      layers = {{"service", {"request", "decode", "queue_wait", "service"}},
                {"api", {"session"}},
                {"search", {"search", "expand", "evaluate", "cover", "bound"}},
                {"repair", {"materialize"}}};
  return layers;
}

/// Share of the server's request time each layer took, over the traced
/// repairs of class `cls` (empty = all).
std::map<std::string, double> LayerShares(const std::vector<SpanRecord>& spans,
                                          const std::string& cls) {
  std::map<std::string, double> busy;
  double root = 0.0;
  for (const SpanRecord& r : spans) {
    if (!cls.empty() && r.cls != cls) continue;
    root += r.root;
    for (const auto& [layer, names] : Layers()) {
      for (const std::string& n : names) busy[layer] += Lookup(r.self, n);
    }
  }
  for (auto& [layer, seconds] : busy) seconds = root > 0 ? seconds / root : 0.0;
  return busy;
}

std::vector<Metric> PerLayer(const Window& untraced,
                             const Window& traced,
                             const std::vector<Metric>& probes,
                             std::vector<Metric>* extra) {
  const std::vector<SpanRecord>& s = traced.spans;
  std::vector<Metric> out = {
      SpanMedian(s, "service.decode_s", "s", SelfOf, "decode", extra),
      SpanMedian(s, "service.queue_wait_s", "s", SelfOf, "queue_wait", extra),
      SpanMedian(s, "service.dispatch_self_s", "s", SelfOf, "service", extra),
      SpanMedian(s, "service.client_overhead_s", "s", ClientOverhead, "", extra),
      SpanMedian(s, "api.session_self_s", "s", SelfOf, "session", extra),
      SpanMedian(s, "search.s", "s", TotalOf, "search", extra),
      SpanMedian(s, "search.expand_s", "s", TotalOf, "expand", nullptr),
      SpanMedian(s, "search.evaluate_s", "s", TotalOf, "evaluate", nullptr),
      SpanMedian(s, "search.cover_s", "s", TotalOf, "cover", nullptr),
      SpanMedian(s, "search.expand_count", "count", CountOf, "expand", nullptr),
      SpanMedian(s, "search.cover_count", "count", CountOf, "cover", nullptr),
      SpanMedian(s, "repair.materialize_s", "s", TotalOf, "materialize", extra),
  };
  out.push_back({"repair.cells_changed", Median(untraced.cells_changed),
                 "count", untraced.cells_changed.size(), {}});
  out.push_back({"service.reply_bytes", Median(untraced.reply_bytes), "bytes",
                 untraced.reply_bytes.size(), {}});
  for (const auto& [layer, share] : LayerShares(s, "")) {
    out.push_back({"share." + layer, share, "ratio", s.size(),
                   "base: server request time of traced repairs"});
  }
  const double base = GeomeanOfMedians(untraced);
  out.push_back({"trace.overhead_ratio",
                 base > 0 ? GeomeanOfMedians(traced) / base : 0.0,
                 "ratio", traced.requests,
                 "traced / untraced latency_geomean_s"});
  out.insert(out.end(), probes.begin(), probes.end());
  return out;
}

/// The workload-design checks of README.md ("Design checks"), printed as
/// PASS/FAIL lines; they inform, they do not fail the run.
void DesignChecks(const Plan& plan, const Window& traced,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& reopen) {
  auto line = [](bool pass, const std::string& what) {
    std::printf("  %s  %s\n", pass ? "PASS" : "FAIL", what.c_str());
  };
  if (plan.workload == "warm_read") {
    auto dense = LayerShares(traced.spans, "repair_dense");
    auto wide = LayerShares(traced.spans, "repair_wide");
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "repair share: dense5k %.3f (>= 0.9), wide400 %.3f (<= 0.1)",
                  dense["repair"], wide["repair"]);
    line(dense["repair"] >= 0.9 && wide["repair"] <= 0.1, buf);
    std::snprintf(buf, sizeof buf,
                  "search share: dense5k %.3f (<= 0.1), wide400 %.3f (>= 0.9)",
                  dense["search"], wide["search"]);
    line(dense["search"] <= 0.1 && wide["search"] >= 0.9, buf);
  }
  auto reopen_dense = std::find_if(reopen.begin(), reopen.end(), [](const Metric& m) {
    return m.name == "reopen_dense_s";
  });
  if (reopen_dense != reopen.end()) {
    // reopen_dense_s split into the layers it crosses: direct-call times
    // for relational/ and fd/, the open's remainder for api/, and the
    // traced reopen repairs' search and materialize spans.
    auto find = [&metrics](const std::string& name) {
      for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    double search = 0.0, materialize = 0.0, n = 0.0;
    for (const SpanRecord& r : traced.spans) {
      if (r.cls != "reopen_dense") continue;
      search += TotalOf(r, "search");
      materialize += TotalOf(r, "materialize");
      n += 1.0;
    }
    const double total = reopen_dense->value;
    const std::map<std::string, double> parts = {
        {"relational.csv_read_s", find("relational.csv_read_s")},
        {"relational.encode_s", find("relational.encode_s")},
        {"fd.build_s", find("fd.build_s")},
        {"api.open_other_s", find("api.open_s") - find("fd.build_s") -
                                 find("relational.csv_read_s") -
                                 find("relational.encode_s")},
        {"search.s", n > 0 ? search / n : 0.0},
        {"repair.materialize_s", n > 0 ? materialize / n : 0.0}};
    std::string largest;
    for (const auto& [name, seconds] : parts) {
      std::printf("  reopen_dense_s share  %-24s %.3f\n", name.c_str(),
                  total > 0 ? seconds / total : 0.0);
      if (largest.empty() || seconds > parts.at(largest)) largest = name;
    }
    line(largest == "fd.build_s",
         "largest layer share of reopen_dense_s is " + largest);
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  Plan plan = MakePlan(args.workload, args.seed, args.dir);
  std::vector<std::string> errors;

  // At least three set-ups, more while they stay cheap (tiny tenants set up
  // in milliseconds, where one sample would be noise); the last stays up.
  std::vector<double> setup_times;
  ServicePtr service;
  const double setup_start = Now();
  for (;;) {
    const double t0 = Now();
    service = StartService(plan, &errors);
    if (service == nullptr) break;
    setup_times.push_back(Now() - t0);
    if (setup_times.size() >= 25 ||
        (setup_times.size() >= 3 && Now() - setup_start > 2.0)) {
      break;
    }
    service.reset();
  }
  // One unmeasured pass per stream first: it opens every lazy tenant, so
  // each measured reopen follows a real unload, and it is the pass the
  // serial oracle replays (it starts from the freshly loaded state).
  Window priming, untraced, traced;
  if (service != nullptr) {
    RunWindow(service.get(), plan, 0.0, /*traced=*/false, &priming);
    RunWindow(service.get(), plan, args.seconds, /*traced=*/false, &untraced);
    if (args.trace) {
      RunWindow(service.get(), plan, args.seconds, /*traced=*/true, &traced);
    }
    service.reset();
    CheckOracle(plan, priming, &errors);
  }
  for (const Window* w : {&priming, &untraced, &traced}) {
    errors.insert(errors.end(), w->errors.begin(), w->errors.end());
  }

  uint64_t attempted = 0, failed = 0;
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("requests by op (all passes):\n");
  std::map<std::string, OpCount> ops;
  for (const Window* w : {&priming, &untraced, &traced}) {
    for (const auto& [op, c] : w->ops) {
      OpCount& sum = ops[op];
      sum.attempted += c.attempted;
      sum.succeeded += c.succeeded;
      sum.failed += c.failed;
      sum.shed += c.shed;
    }
  }
  for (const auto& [op, c] : ops) {
    std::printf("  %-14s attempted %llu  succeeded %llu  failed %llu  shed %llu\n",
                op.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.succeeded),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.shed));
    attempted += c.attempted;
    failed += c.failed + c.shed;
  }

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_times), "s", setup_times.size(),
       "server start + tenant registration + warm-up"},
      {"peak_heap_mb", untraced.peak_heap_mb, "MB", 0,
       "largest 10 ms sample of heap in use during the window"},
      {"latency_geomean_s", GeomeanOfMedians(untraced), "s",
       untraced.requests,
       "geometric mean of " + std::to_string(untraced.slots.size()) +
           " slot medians"},
  };
  std::printf("end-to-end (untraced window, %.1f s):\n", untraced.seconds);
  for (const Metric& m : e2e) PrintMetric(m);
  const std::vector<Metric> named = NamedMetrics(plan, untraced);
  for (const Metric& m : named) PrintMetric(m);

  std::vector<Metric> reported = e2e;
  if (args.trace && errors.empty()) {
    std::printf("traced window (%.1f s), per class, traced / untraced p50:\n",
                traced.seconds);
    for (const std::string& cls : plan.classes) {
      const double u = Median(untraced.latency[cls]);
      std::printf("  %-24s %.4f\n", cls.c_str(),
                  u > 0 ? Median(traced.latency[cls]) / u : 0.0);
    }
    std::vector<Metric> probes =
        ProbeLayers(plan.tenants.front(),
                    plan.workload == "warm_read"
                        ? std::vector<double>{0.1, 0.25, 0.5, 0.75, 1.0}
                        : std::vector<double>{0.5},
                    args.dir);
    std::vector<Metric> tails;
    reported = PerLayer(untraced, traced, probes, &tails);
    std::printf("per-layer (%s):\n", plan.tenants.front().name.c_str());
    for (const Metric& m : reported) PrintMetric(m);
    for (const Metric& m : tails) PrintMetric(m);
    std::printf("layer shares of server request time, per class:\n");
    for (const std::string& cls : plan.classes) {
      auto shares = LayerShares(traced.spans, cls);
      if (shares.empty()) continue;
      std::printf("  %-22s", cls.c_str());
      for (const auto& [layer, share] : shares) {
        std::printf("  %s %.3f", layer.c_str(), share);
      }
      std::printf("\n");
    }
    if (plan.workload == "state_change") {
      std::printf("per-layer (%s):\n", plan.tenants[1].name.c_str());
      for (const Metric& m : ProbeLayers(plan.tenants[1], {0.5}, args.dir)) {
        PrintMetric(m);
      }
    }
    std::printf("design checks:\n");
    DesignChecks(plan, traced, probes, named);
  }

  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) std::printf("ERROR %s\n", e.c_str());
  std::printf("correct: %s\n", correct ? "yes" : "NO");
  PrintJson(correct, attempted, failed, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e --workload <warm_read|state_change|wire_small> "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  try {
    return e2e::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
