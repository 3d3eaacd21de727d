// Cooperative cancellation for long-running searches and sweeps.
//
// A CancelToken is a one-way latch: any thread may Cancel() it, and workers
// poll Cancelled() at their loop heads (ModifyFds checks once per popped
// state; every item of a Session batch checks through its own search loop,
// so cancelling a batch drains the queued items as fast as they are picked
// up — no pool work is leaked and no thread is interrupted mid-kernel).
//
// Cancellation is best-effort by design: a search that already holds a
// result when the token fires reports that result. It deliberately breaks
// the bit-identical-output contract of src/exec/ — WHERE the loop is when
// the flag flips depends on wall-clock — which is why the token lives in
// the options a caller opts into, never in any default path.
//
// This header is an exec/ primitive (standard library only) so that
// src/repair/ can poll tokens without depending on the api/ layer above it.

#ifndef RETRUST_EXEC_CANCEL_H_
#define RETRUST_EXEC_CANCEL_H_

#include <atomic>

namespace retrust::exec {

/// One-way cancellation latch shared between a requester and any number of
/// workers. Copying is disabled; share by pointer (the requester owns the
/// token and must keep it alive until every worker observing it returned).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Idempotent, callable from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called. Relaxed: polled at loop heads, where
  /// "a beat late" only costs one extra iteration.
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

}  // namespace retrust::exec

#endif  // RETRUST_EXEC_CANCEL_H_
