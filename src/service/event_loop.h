// The event-driven wire front end of tools/retrust_server: one poll(2)
// loop over nonblocking sockets, replacing the thread-per-connection
// accept loop with CONNECTION-LEVEL PIPELINING — many outstanding NDJSON
// requests per connection, decoded incrementally from partial frames,
// dispatched through the Server's callback verbs into the RequestQueue lanes,
// replies written back IN COMPLETION ORDER and matched by the echoed "id".
//
//            ┌────────────── loop thread (poll) ──────────────┐
//   sockets ─┤ accept / nonblocking read / nonblocking write  │
//            └─ LineDecoder ──▶ per-conn inbox (FIFO strand) ─┘
//                                      │ drained by the reader pool,
//                                      ▼ ONE task per conn at a time
//                            verb dispatch ──▶ Server verbs ──▶ lanes
//                                      │ done callback (worker thread)
//                                      ▼
//                            conn write queue ──▶ wake loop ──▶ socket
//
// Invariants:
//   * PER-CONNECTION SUBMISSION ORDER — decoded lines enter a per-
//     connection inbox drained by at most one reader task at a time, so
//     requests are submitted to the queue in wire order. Lane FIFO then
//     gives the PR 5 guarantee unchanged: apply_delta stays a barrier and
//     every tenant's responses are bit-identical to serial per-Session
//     execution in submission order, at any worker/connection count —
//     only the ORDER REPLIES APPEAR ON THE WIRE is relaxed (that's the
//     pipelining win), and the echoed "id" restores the correlation.
//   * BACKPRESSURE, NOT BUFFERING — a connection whose write queue
//     exceeds `write_buffer_limit`, or with `max_pipeline_depth` requests
//     outstanding, is removed from the poll read set until it drains; a
//     line longer than `max_line_bytes` is discarded as it streams in and
//     answered with one bounded error reply. Memory per connection is
//     O(limit), never O(what the client sends).
//   * NO THREAD PER REQUEST — the callback verbs hold no blocked thread per
//     outstanding request; the only threads are the loop, the small fixed
//     reader pool, and the server's workers.
//
// Shutdown: the `shutdown` verb queues its reply and signals
// WaitForShutdownRequest(); Stop() then stops accepting/reading, keeps
// polling until every write buffer and outstanding request drains (grace-
// bounded), and joins. The Server itself is stopped by the caller AFTER
// the loop, so in-flight replies still find it.

#ifndef RETRUST_SERVICE_EVENT_LOOP_H_
#define RETRUST_SERVICE_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/api/status.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"

namespace retrust::service {

class Server;

/// Incremental NDJSON framer: bytes in, complete lines out, partial
/// frames kept across Feed calls. A line exceeding `max_line_bytes` is
/// DISCARDED as it streams (the decoder keeps only O(max) state) and
/// surfaces once as an `oversized` line so the caller can send exactly one
/// bounded error reply. '\r' before the newline is stripped; empty lines
/// are dropped (keep-alive convention of the old server).
class LineDecoder {
 public:
  struct Line {
    std::string text;
    bool oversized = false;  ///< text is empty; the line blew the cap
  };

  explicit LineDecoder(size_t max_line_bytes) : max_(max_line_bytes) {}

  void Feed(const char* data, size_t n);

  /// Takes the next complete line; false when none is ready.
  bool Pop(Line* out);

  /// Bytes of the current partial frame (tests; bounded by max).
  size_t partial_bytes() const { return partial_.size(); }

 private:
  size_t max_;
  std::string partial_;
  bool discarding_ = false;
  std::deque<Line> ready_;
};

class EventLoop {
 public:
  struct Options {
    int port = 7423;  ///< 0 picks an ephemeral port (read back via port())
    /// Reader pool draining the per-connection inboxes (verb parse +
    /// dispatch; inline verbs like `stats` reply from here). Small and
    /// fixed — concurrency comes from outstanding requests, not threads.
    int reader_threads = 2;
    size_t max_line_bytes = 1 << 20;        ///< per-request frame cap
    size_t write_buffer_limit = 8u << 20;   ///< pause reads above this
    /// Outstanding (dispatched or inboxed, not yet replied) requests per
    /// connection before its reads pause.
    size_t max_pipeline_depth = 256;
    /// How long Stop() keeps polling for pending replies to drain before
    /// closing connections anyway.
    double drain_grace_seconds = 10.0;
  };

  /// `server` is borrowed and must outlive the loop; the caller stops the
  /// SERVER only after stopping the LOOP.
  explicit EventLoop(Server* server);
  EventLoop(Server* server, Options opts);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds 127.0.0.1:<port>, starts the loop thread and reader pool.
  Status Start();

  /// The bound port (valid after Start; the ephemeral-port answer).
  int port() const { return port_; }

  /// Blocks until a `shutdown` verb arrived or Stop() was called.
  void WaitForShutdownRequest();

  /// Signals WaitForShutdownRequest (the shutdown verb calls this after
  /// queueing its reply; external callers may too).
  void RequestShutdown();

  /// Graceful stop: no new connections or reads, pending write buffers
  /// and outstanding requests drain (bounded by drain_grace_seconds),
  /// then everything closes and the threads join. Idempotent.
  void Stop();

  /// Live connection count (tests/ops).
  size_t connection_count() const {
    return connection_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  /// The self-pipe the reply callbacks use to wake poll(). Shared so a
  /// callback completing after the loop died wakes nothing instead of
  /// writing to a closed fd.
  struct Wake {
    std::mutex mu;
    int write_fd = -1;  ///< -1 once the loop is gone
    void Signal();
  };

  void LoopThread();
  void AcceptNew();
  /// Reads once from `conn`; decodes, queues inbox lines, kicks the
  /// strand. Returns false when the connection should be dropped.
  bool HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Flushes as much of the write buffer as the socket takes. Returns
  /// false on a dead socket.
  bool HandleWritable(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Appends one reply line to the connection's write queue and wakes the
  /// loop. Callable from ANY thread (worker done callbacks included) and
  /// deliberately static: it needs only the Conn and its shared Wake, so a
  /// callback completing after the loop died still runs safely.
  /// `finishes_request` releases one outstanding-pipeline slot.
  static void QueueReply(const std::shared_ptr<Conn>& conn,
                         const std::string& line, bool finishes_request);
  /// Reader-pool task: drains conn->inbox one line at a time until empty.
  void DrainStrand(std::shared_ptr<Conn> conn);
  /// Parses and dispatches one request line (reader thread). Replies are
  /// queued via QueueReply, possibly from a worker thread later.
  void HandleLine(const std::shared_ptr<Conn>& conn, std::string line);

  Server* server_;
  Options opts_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int port_ = 0;
  std::shared_ptr<Wake> wake_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> connection_count_{0};

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::mutex stop_mu_;
  bool stopped_ = false;

  /// Loop-thread-only state: the poll set.
  std::map<int, std::shared_ptr<Conn>> conns_;

  std::unique_ptr<exec::ThreadPool> reader_pool_;
  std::thread loop_thread_;

  /// Per-verb wire counters, resolved once at Start() so the hot line
  /// dispatch never takes the registry lock.
  std::map<std::string, obs::Counter*> verb_counters_;
};

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_EVENT_LOOP_H_
