// Wire-level service throughput: the in-process Server behind the
// event-driven loop, driven by 64 concurrent clients in two modes — one
// request per fresh TCP connection (the pre-pipelining behavior) vs 64
// persistent pipelined connections. The ratio is the payoff of
// connection-level pipelining and is CI-gated at ≥ 3×
// ("pipeline_speedup_x" in BENCH_service.json).
//
// End-to-end request latency and per-layer cost of real repair traffic are
// measured by the wire benchmark in e2ebench/, not here.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/generator.h"
#include "src/eval/perturb.h"
#include "src/service/client.h"
#include "src/service/event_loop.h"
#include "src/service/server.h"
#include "src/util/timer.h"

using namespace retrust;
using namespace retrust::service;

namespace {

Instance TenantData(int n, uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = n;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = seed;
  PerturbOptions perturb;
  perturb.data_error_rate = 0.02;
  perturb.fd_error_rate = 0.5;
  perturb.seed = seed + 1;
  GeneratedData clean = GenerateCensusLike(gen);
  return Perturb(clean.instance, clean.planted_fds, perturb).data;
}

std::vector<std::string> TenantFds(int n, uint64_t seed) {
  CensusConfig gen;
  gen.num_tuples = n;
  gen.num_attrs = 8;
  gen.planted_lhs_sizes = {2, 2};
  gen.seed = seed;
  GeneratedData clean = GenerateCensusLike(gen);
  std::vector<std::string> texts;
  Schema schema = clean.instance.schema();
  for (const FD& fd : clean.planted_fds.fds()) {
    texts.push_back(fd.ToString(schema));
  }
  return texts;
}

// --- wire modes: pipelined vs one-request-per-connection -----------------

struct WireRow {
  int connections = 0;
  int requests = 0;
  double seconds = 0.0;
  double rps() const { return seconds > 0 ? requests / seconds : 0.0; }
};

/// The cheap request both wire modes send: per-tenant `stats` costs
/// microseconds to serve and a small reply to parse, so the measured
/// difference is wire overhead (connection setup, framing, turnaround),
/// which is exactly what pipelining removes.
const char kStatsLine[] = "{\"op\":\"stats\",\"tenant\":\"wire\"}\n";

/// One request per fresh TCP connection: connect, send, await the reply,
/// close — `connections` clients doing that in parallel.
WireRow MeasureSerialConn(int port, int connections, int requests_per_conn) {
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([port, requests_per_conn] {
      for (int i = 0; i < requests_per_conn; ++i) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) std::exit(1);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(port));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
          std::perror("connect");
          std::exit(1);
        }
        if (::send(fd, kStatsLine, sizeof(kStatsLine) - 1, MSG_NOSIGNAL) <=
            0) {
          std::exit(1);
        }
        char chunk[4096];
        bool done = false;
        while (!done) {
          ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n <= 0) std::exit(1);
          done = std::memchr(chunk, '\n', static_cast<size_t>(n)) != nullptr;
        }
        ::close(fd);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WireRow row;
  row.connections = connections;
  row.requests = connections * requests_per_conn;
  row.seconds = timer.ElapsedSeconds();
  return row;
}

/// Persistent pipelined connections: each client keeps one socket and many
/// requests in flight (chunks of 128, under the loop's pipeline depth).
WireRow MeasurePipelined(int port, int connections, int requests_per_conn) {
  Timer timer;  // connection setup included — it is amortized, that's the point
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([port, requests_per_conn] {
      auto client = WireClient::Connect(port);
      if (!client.ok()) {
        std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
        std::exit(1);
      }
      int remaining = requests_per_conn;
      while (remaining > 0) {
        const int burst = remaining < 128 ? remaining : 128;
        std::vector<std::future<Result<Json>>> pending;
        pending.reserve(static_cast<size_t>(burst));
        for (int i = 0; i < burst; ++i) {
          Json::Object req;
          req["op"] = Json("stats");
          req["tenant"] = Json("wire");
          pending.push_back((*client)->Call(Json(std::move(req))));
        }
        for (auto& p : pending) {
          Result<Json> reply = p.get();
          if (!reply.ok()) {
            std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
            std::exit(1);
          }
        }
        remaining -= burst;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WireRow row;
  row.connections = connections;
  row.requests = connections * requests_per_conn;
  row.seconds = timer.ElapsedSeconds();
  return row;
}

}  // namespace

int main() {
  bench::Banner("service", "event-driven wire throughput");

  // 64 concurrent clients in both modes against one Server.
  const int kConnections = 64;
  const int serial_requests_per_conn = bench::ScaledN(16);
  const int pipelined_requests_per_conn = bench::ScaledN(512);
  WireRow serial_conn, pipelined;
  {
    ServerOptions wire_opts;
    wire_opts.workers = 4;
    wire_opts.queue_capacity = 0;
    Server server(wire_opts);
    {
      uint64_t seed = 900;
      Status status =
          server.LoadTenant("wire", TenantData(50, seed), TenantFds(50, seed));
      if (!status.ok()) {
        std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    EventLoop::Options loop_opts;
    loop_opts.port = 0;
    loop_opts.reader_threads = 4;
    EventLoop loop(&server, loop_opts);
    Status started = loop.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    serial_conn =
        MeasureSerialConn(loop.port(), kConnections, serial_requests_per_conn);
    pipelined = MeasurePipelined(loop.port(), kConnections,
                                 pipelined_requests_per_conn);
    loop.Stop();
    server.Stop();
  }
  const double speedup =
      serial_conn.rps() > 0 ? pipelined.rps() / serial_conn.rps() : 0.0;
  std::printf("wire, %d concurrent clients (stats verb):\n", kConnections);
  std::printf("  one request per connection: %10.0f req/s (%d requests)\n",
              serial_conn.rps(), serial_conn.requests);
  std::printf("  pipelined persistent conns: %10.0f req/s (%d requests)\n",
              pipelined.rps(), pipelined.requests);
  std::printf("  pipeline speedup:           %10.2fx\n", speedup);

  FILE* json = bench::OpenBenchJson("service");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"wire_connections\": %d,\n"
                 "  \"serial_conn_requests\": %d,\n"
                 "  \"serial_conn_rps\": %.2f,\n"
                 "  \"pipelined_requests\": %d,\n"
                 "  \"pipelined_rps\": %.2f,\n"
                 "  \"pipeline_speedup_x\": %.2f\n"
                 "}\n",
                 kConnections, serial_conn.requests, serial_conn.rps(),
                 pipelined.requests, pipelined.rps(), speedup);
    std::fclose(json);
  }
  return 0;
}
