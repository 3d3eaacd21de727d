// Shared declarations of the end-to-end benchmark (entry point: main.cc).
//
// The benchmark starts the real service (Server + EventLoop) in-process and
// drives it over loopback with WireClient, exactly as a remote caller
// would. A workload is a Plan: the tenants to register, the warm-up
// requests, and one or more closed-loop Streams, each replaying whole
// passes over a fixed request schedule on one connection. Every reply is
// checked as it arrives; one full pass per tenant is compared afterwards
// against a serial in-process Session (the "service == serial Session"
// oracle). See e2ebench/README.md for the workloads and metrics.

#ifndef RETRUST_E2EBENCH_BENCH_H_
#define RETRUST_E2EBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/service/wire.h"

namespace e2e {

using retrust::service::Json;

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// True when at least ten of `n` samples lie above quantile `q`, the rule
/// for reporting a tail percentile at all.
bool TailReportable(size_t n, double q);

/// Heap bytes the process holds in live allocations right now (malloc's
/// in-use arena bytes plus mmapped blocks), in MB. Unlike the resident set
/// it does not count freed memory an arena keeps for reuse, which made
/// resident-set peaks jump between two values from run to run depending
/// on which worker thread's arena served the large allocations.
double HeapInUseMb();

/// Seconds on the steady clock since an arbitrary fixed origin.
double Now();

// ---------------------------------------------------------------- inputs

/// One tenant as the service sees it: registered over the wire from a CSV
/// file or a snapshot file, both written before any clock starts.
struct TenantSpec {
  std::string name;
  std::string csv;       ///< CSV path (also the serial oracle's source)
  std::string snapshot;  ///< snapshot path; registered from it when set
  std::vector<std::string> fds;
  int n = 0;
};

/// One latency sample: the requests are sent one after another on the
/// stream's connection and the sample spans first send to last reply.
struct Step {
  std::string cls;  ///< latency class, e.g. "repair_dense"
  std::vector<Json> requests;
};

/// A closed-loop caller: one thread on connection `conn`, cycling through
/// `passes` (pass i of the run uses passes[i % size]) until the window
/// closes; it only ever stops between passes, so every run draws whole
/// passes and the request mix is the same from run to run.
struct Stream {
  int conn = 0;
  std::vector<std::vector<Step>> passes;
};

struct Plan {
  std::string workload;
  std::vector<TenantSpec> tenants;
  std::vector<Json> warmup;  ///< sent once per set-up, after registration
  std::vector<Stream> streams;
  int connections = 1;
  /// Latency classes in report order (the named metrics).
  std::vector<std::string> classes;
};

/// Generates every input of `workload` from `seed` into `dir` (CSV files,
/// snapshot, delta batches, request schedules). Unknown workload names
/// throw std::invalid_argument.
Plan MakePlan(const std::string& workload, uint64_t seed,
              const std::string& dir);

extern const char* const kWorkloads[];

// ------------------------------------------------------------ recording

/// Self times of one traced repair, from its returned span tree.
struct SpanRecord {
  std::string cls;
  double client = 0.0;  ///< client-measured latency of the request
  double root = 0.0;    ///< the server's "request" span
  std::map<std::string, double> self;   ///< span name -> self seconds
  std::map<std::string, double> total;  ///< span name -> span seconds
  std::map<std::string, double> count;  ///< span name -> operation count
};

/// Per-op accounting of one window.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;  ///< refused by admission (kOverloaded)
};

/// What one measured window collected; filled concurrently by the stream
/// threads.
struct Window {
  std::mutex mu;
  double seconds = 0.0;  ///< wall time until the last stream finished
  std::map<std::string, std::vector<double>> latency;  ///< class -> samples
  /// Samples per schedule slot: one stream's steps of one class and τr
  /// (SlotKey), i.e. one kind of work, so a slot median never sits between
  /// two kinds of work.
  std::map<std::string, std::vector<double>> slots;
  std::map<std::string, OpCount> ops;
  std::vector<SpanRecord> spans;
  std::vector<double> reply_bytes;  ///< untraced repair reply sizes
  std::vector<double> cells_changed;
  std::vector<std::string> errors;  ///< correctness failures
  /// tenant -> (request, normalized reply) of the FIRST pass, in order.
  std::map<std::string, std::vector<std::pair<Json, Json>>> first_pass;
  uint64_t requests = 0;  ///< requests sent
  double rps = 0.0;       ///< summed per-stream requests per second
  double peak_heap_mb = 0.0;

  void Error(std::string message);
};

/// Drops the fields that legitimately differ between the service and a
/// serial Session ("seconds", "id", "trace"), recursively into sweep
/// results, so the rest compares byte for byte.
Json Normalize(const Json& reply);

// --------------------------------------------------------------- driving

class Service;  // Server + EventLoop + connections (load.cc)

/// Closes the connections, stops the loop and then the server, frees the
/// service and returns its freed heap to the OS, so memory a stopped
/// service held does not count against the next one.
struct ServiceStopper {
  void operator()(Service* service) const;
};
using ServicePtr = std::unique_ptr<Service, ServiceStopper>;

/// Starts a service for `plan`, registers its tenants over the wire and
/// sends the warm-up requests. Returns null and records into `errors` on
/// failure.
ServicePtr StartService(const Plan& plan, std::vector<std::string>* errors);

/// Runs every stream of `plan` for `seconds` (whole passes), tracing
/// repair requests when `traced`. Samples the heap in use every 10 ms
/// meanwhile; the largest sample is `window->peak_heap_mb`.
void RunWindow(Service* service, const Plan& plan, double seconds,
               bool traced, Window* window);

/// Replays each tenant's recorded first pass through a serial Session and
/// compares the normalized replies; mismatches go to `errors`.
void CheckOracle(const Plan& plan, const Window& window,
                 std::vector<std::string>* errors);

// --------------------------------------------------------------- layers

/// One per-layer figure: name, value, unit, and how many samples it rests
/// on (0 for single measurements).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;  ///< e.g. the base of a ratio
};

/// Direct calls into each layer's public functions on one tenant's data
/// (ReadCsvFile, EncodedInstance, BuildDifferenceSetIndex, Session::Open/
/// OpenSnapshot/Search/Repair/Apply, ParseJson/ToJson); `grid` is the τr
/// grid the search probes walk.
std::vector<Metric> ProbeLayers(const TenantSpec& tenant,
                                const std::vector<double>& grid,
                                const std::string& dir);

}  // namespace e2e

#endif  // RETRUST_E2EBENCH_BENCH_H_
