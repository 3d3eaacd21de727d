// Per-request tracing: a TraceSpan tree recording where one request spent
// its time as it flowed wire decode → admission → queue wait → worker
// dispatch → Session → search engine.
//
// Tracing is off by default. A request carries a RequestTrace only when
// the caller opted in ("trace": true on the wire), so every disabled-path
// check is a branch on a null pointer and the untraced request does zero
// extra work — the bit-identity invariant (untraced replies byte-identical
// to the pre-observability service) and the ≤5% overhead contract both
// hang off that property.
//
// Span lifecycle is O(1): StartChild appends one node and reads the
// monotonic clock once; Finish reads it again. The tree is built WITHOUT
// locks — a request's spans are only ever touched by the thread currently
// advancing that request (reader thread during decode/admission, worker
// thread during execution), and the queue hand-off orders those accesses.
//
// The search engine runs its hot loop millions of times per request, so
// it does not allocate a span per operation. It accumulates per-phase
// totals (expand/evaluate/cover/bound) into a SearchPhaseStats owned by
// the RequestTrace; the Session converts the totals into one child span
// per phase after the search returns.

#ifndef RETRUST_OBS_TRACE_H_
#define RETRUST_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace retrust::obs {

/// One node of the span tree: a name, a duration, an operation count
/// (1 for plain spans, N for phase-accumulated spans), and children.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Appends a child span started now. The returned pointer stays valid
  /// for the tree's lifetime.
  TraceSpan* StartChild(std::string name) {
    children_.push_back(std::make_unique<TraceSpan>(std::move(name)));
    return children_.back().get();
  }

  /// Stops the clock. Idempotent: the first Finish (or set_seconds) wins.
  void Finish() {
    if (finished_) return;
    seconds_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    finished_ = true;
  }

  /// Records an externally measured duration (e.g. queue wait computed
  /// from submit/dispatch timestamps) instead of the span's own clock.
  void set_seconds(double seconds) {
    seconds_ = seconds;
    finished_ = true;
  }

  void set_count(uint64_t count) { count_ = count; }

  const std::string& name() const { return name_; }
  double seconds() const { return seconds_; }
  uint64_t count() const { return count_; }
  const std::vector<std::unique_ptr<TraceSpan>>& children() const {
    return children_;
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = 0.0;
  bool finished_ = false;
  uint64_t count_ = 1;
  std::vector<std::unique_ptr<TraceSpan>> children_;
};

/// Per-phase accumulators filled by ModifyFds when tracing is on
/// (ModifyFdsOptions::phase_trace). Counts are operations, seconds are
/// summed wall time of those operations.
struct SearchPhaseStats {
  uint64_t expand_count = 0;  ///< node expansions
  double expand_seconds = 0.0;
  uint64_t evaluate_count = 0;  ///< deferred g-cost evaluations
  double evaluate_seconds = 0.0;
  uint64_t cover_count = 0;  ///< vertex-cover computations/lookups
  double cover_seconds = 0.0;
  uint64_t bound_count = 0;  ///< admissible lower-bound evaluations
  double bound_seconds = 0.0;

  bool any() const {
    return expand_count != 0 || evaluate_count != 0 || cover_count != 0 ||
           bound_count != 0;
  }
};

/// The trace carried by one request. Allocated at wire decode (or by an
/// in-process caller), shared by the request object as it is copied into
/// closures, and serialized into the reply once the root is finished.
struct RequestTrace {
  TraceSpan root{"request"};

  /// Set by the server's execute wrapper just before the verb runs, so
  /// Session-level spans nest under "service" when the request went
  /// through the queue and under the root when the Session was called
  /// directly.
  TraceSpan* service = nullptr;

  /// Filled by the search engine via ModifyFdsOptions::phase_trace.
  SearchPhaseStats search_phases;

  /// The span Session-level children should attach to.
  TraceSpan* SessionParent() { return service != nullptr ? service : &root; }
};

/// Converts accumulated phase totals into one child span per non-empty
/// phase under `search_span`.
void AttachSearchPhases(TraceSpan* search_span, const SearchPhaseStats& phases);

/// Scoped phase timer: accumulates elapsed wall time and one count into
/// (seconds, count) on destruction. Constructed only on the traced path.
class PhaseTimer {
 public:
  PhaseTimer(double* seconds, uint64_t* count)
      : seconds_(seconds),
        count_(count),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    *seconds_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    ++*count_;
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* seconds_;
  uint64_t* count_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace retrust::obs

#endif  // RETRUST_OBS_TRACE_H_
