// How many threads a pool gets.
//
// The exec/ subsystem holds only primitives (options, ThreadPool,
// TaskGroup, ParallelFor, CancelToken): they depend on nothing but the
// standard library and are usable from any layer. Below api/, a parallel
// entry point takes a borrowed, nullable exec::ThreadPool* (src/fd/ shards
// violation detection and the difference-set build on it); Options only
// sizes the pools MakePool creates, which retrust::Session does once per
// session for its context build, batches and deltas. See DESIGN.md for the
// determinism contract.

#ifndef RETRUST_EXEC_OPTIONS_H_
#define RETRUST_EXEC_OPTIONS_H_

#include <thread>

namespace retrust::exec {

/// How many threads a parallel kernel may use. The contract everywhere in
/// this codebase: results are bit-identical for ANY value of num_threads —
/// parallelism changes wall-clock time, never output.
struct Options {
  /// 1 = serial (no pool is created); 0 = std::thread::hardware_concurrency.
  int num_threads = 1;

  /// The thread count after resolving 0 and clamping to >= 1.
  int ResolvedThreads() const {
    if (num_threads > 0) return num_threads;
    if (num_threads < 0) return 1;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// True when a pool should be spun up at all.
  bool Parallel() const { return ResolvedThreads() > 1; }
};

}  // namespace retrust::exec

#endif  // RETRUST_EXEC_OPTIONS_H_
