// retrust_server — the long-running multi-tenant repair service binary.
//
//   retrust_server [--port N] [--workers W] [--queue-depth D]
//                  [--tenant-cap C] [--session-threads S]
//                  [--snapshot-dir DIR] [--max-tenant-bytes B]
//                  [--reader-threads R] [--pipeline-depth P]
//                  [--quota-rate TOKENS_PER_SEC] [--quota-burst TOKENS]
//                  [--metrics-dump-interval SECONDS]
//                  [--slow-request-seconds SECONDS]
//                  [--flight-records N]
//                  [--tenant NAME=FILE.csv:FD[;FD...]]...
//                  [--tenant-snapshot NAME=FILE.snap]...
//
// Listens on 127.0.0.1:<port> (default 7423; 0 picks an ephemeral port)
// and speaks newline-delimited JSON: one request object per line, one
// response per line (wire format in src/service/wire.h — verbs:
// load_tenant, load_snapshot_tenant, repair, sweep, apply_delta,
// save_snapshot, unload_tenant, stats, metrics, dump_recent, shutdown).
//
// Connections are served by the event-driven loop in
// src/service/event_loop.h: every connection may PIPELINE many requests
// (replies correlate by the echoed "id" and may arrive out of order), so
// one socket saturates the worker pool — no thread per connection, no
// connection per request. `--quota-rate`/`--quota-burst` set the default
// per-tenant token-bucket admission quota (0 = unlimited); per-tenant
// overrides ride on the load_tenant verb ("quota_rate"/"quota_burst").
//
// Warm restart: `--tenant-snapshot` registers a tenant whose first
// request restores a src/persist/ snapshot instead of rebuilding from
// CSV; `--snapshot-dir` lets unload_tenant (and the `--max-tenant-bytes`
// budget eviction) auto-save dirty tenants to "<dir>/<name>.snap" before
// releasing their memory. Prints
//
//   retrust_server listening on 127.0.0.1:<port>
//
// once the socket is ready, so wrappers (CI's service smoke) can parse
// the chosen port.
//
// Observability (src/obs/) is always on: the `metrics` verb serves the
// process registry's exposition text, `dump_recent` dumps the flight
// recorder, and repairs with `"trace": true` return their span tree
// inline. `--metrics-dump-interval N` additionally prints the exposition
// to stderr every N seconds (0 = off, the default);
// `--slow-request-seconds` logs requests over the threshold with their
// span tree; `--flight-records` sizes the recorder ring.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/event_loop.h"
#include "src/service/server.h"

using namespace retrust;
using namespace retrust::service;

namespace {

/// Splits "NAME=FILE.csv:FD[;FD...]". FDs are ';'-separated because ','
/// already separates the attributes of a compound LHS ("City,State->Zip").
bool ParseTenantSpec(const std::string& spec, std::string* name,
                     std::string* path, std::vector<std::string>* fds) {
  size_t eq = spec.find('=');
  size_t colon = spec.find(':', eq == std::string::npos ? 0 : eq);
  if (eq == std::string::npos || colon == std::string::npos || eq == 0) {
    return false;
  }
  *name = spec.substr(0, eq);
  *path = spec.substr(eq + 1, colon - eq - 1);
  std::string fd_list = spec.substr(colon + 1);
  size_t start = 0;
  while (start <= fd_list.size()) {
    size_t end = fd_list.find(';', start);
    if (end == std::string::npos) end = fd_list.size();
    if (end > start) fds->push_back(fd_list.substr(start, end - start));
    start = end + 1;
  }
  return !fds->empty();
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 1024;
  EventLoop::Options loop_opts;
  std::vector<std::string> tenant_specs;
  std::vector<std::string> snapshot_specs;
  double metrics_dump_interval = 0.0;

  // Every flag takes one value; `needs` completes its "<flag> needs ..."
  // message when the value is missing.
  struct Flag {
    const char* name;
    const char* needs;
    std::function<void(const char*)> set;
  };
  const auto size = [](const char* v) {
    return static_cast<size_t>(std::atoll(v));
  };
  const std::vector<Flag> flags = {
      {"--port", "a value",
       [&](const char* v) { loop_opts.port = std::atoi(v); }},
      {"--workers", "a value",
       [&](const char* v) { opts.workers = std::atoi(v); }},
      {"--queue-depth", "a value",
       [&](const char* v) { opts.queue_capacity = size(v); }},
      {"--tenant-cap", "a value",
       [&](const char* v) { opts.per_tenant_inflight = size(v); }},
      {"--session-threads", "a value",
       [&](const char* v) { opts.session_threads = std::atoi(v); }},
      {"--snapshot-dir", "a value",
       [&](const char* v) { opts.snapshot_dir = v; }},
      {"--max-tenant-bytes", "a value",
       [&](const char* v) { opts.max_loaded_tenant_bytes = size(v); }},
      {"--reader-threads", "a value",
       [&](const char* v) { loop_opts.reader_threads = std::atoi(v); }},
      {"--pipeline-depth", "a value",
       [&](const char* v) { loop_opts.max_pipeline_depth = size(v); }},
      {"--quota-rate", "a value",
       [&](const char* v) { opts.default_quota.rate = std::atof(v); }},
      {"--quota-burst", "a value",
       [&](const char* v) { opts.default_quota.burst = std::atof(v); }},
      {"--metrics-dump-interval", "a value",
       [&](const char* v) { metrics_dump_interval = std::atof(v); }},
      {"--slow-request-seconds", "a value",
       [&](const char* v) { opts.slow_request_seconds = std::atof(v); }},
      {"--flight-records", "a value",
       [&](const char* v) { opts.flight_recorder_capacity = size(v); }},
      {"--tenant", "NAME=FILE.csv:FD[;FD]",
       [&](const char* v) { tenant_specs.emplace_back(v); }},
      {"--tenant-snapshot", "NAME=FILE.snap",
       [&](const char* v) { snapshot_specs.emplace_back(v); }},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag = std::find_if(flags.begin(), flags.end(),
                             [&](const Flag& f) { return arg == f.name; });
    if (flag == flags.end()) {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs %s\n", flag->name, flag->needs);
      return 2;
    }
    flag->set(argv[++i]);
  }

  std::signal(SIGPIPE, SIG_IGN);
  Server server(opts);

  for (const std::string& spec : tenant_specs) {
    std::string name, path;
    std::vector<std::string> fds;
    if (!ParseTenantSpec(spec, &name, &path, &fds)) {
      std::fprintf(stderr, "bad --tenant spec '%s'\n", spec.c_str());
      return 2;
    }
    Status status = server.LoadCsvTenant(name, path, fds);
    if (!status.ok()) {
      std::fprintf(stderr, "tenant '%s': %s\n", name.c_str(),
                   status.ToString().c_str());
      return 2;
    }
  }

  for (const std::string& spec : snapshot_specs) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      std::fprintf(stderr, "bad --tenant-snapshot spec '%s'\n", spec.c_str());
      return 2;
    }
    std::string name = spec.substr(0, eq);
    Status status = server.LoadSnapshotTenant(name, spec.substr(eq + 1));
    if (!status.ok()) {
      std::fprintf(stderr, "tenant '%s': %s\n", name.c_str(),
                   status.ToString().c_str());
      return 2;
    }
  }

  EventLoop loop(&server, loop_opts);
  Status started = loop.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("retrust_server listening on 127.0.0.1:%d\n", loop.port());
  std::fflush(stdout);

  // Periodic exposition dump to stderr, for deployments scraped by log
  // collectors instead of a pull endpoint.
  std::thread dump_thread;
  std::mutex dump_mu;
  std::condition_variable dump_cv;
  bool dump_stop = false;
  if (metrics_dump_interval > 0.0) {
    dump_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(dump_mu);
      const auto interval =
          std::chrono::duration<double>(metrics_dump_interval);
      while (!dump_cv.wait_for(lock, interval, [&] { return dump_stop; })) {
        std::string text = server.metrics()->ExpositionText();
        std::fprintf(stderr, "[retrust metrics]\n%s", text.c_str());
        std::fflush(stderr);
      }
    });
  }

  loop.WaitForShutdownRequest();
  if (dump_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dump_mu);
      dump_stop = true;
    }
    dump_cv.notify_all();
    dump_thread.join();
  }
  // Order matters: the LOOP drains and stops first (pending replies reach
  // the wire), THEN the server joins its workers — so every in-flight
  // done-callback has fired before anything it touches is torn down.
  loop.Stop();
  server.Stop();
  std::printf("retrust_server stopped\n");
  return 0;
}
