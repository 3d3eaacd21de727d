// Tests for the exec/ primitives: pool lifecycle, exception propagation,
// and ParallelFor static-chunking edge cases.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/parallel_for.h"
#include "src/exec/thread_pool.h"

namespace retrust {
namespace {

TEST(ThreadPool, LifecycleRepeated) {
  // Construction spawns workers, destruction joins them; no tasks needed.
  for (int round = 0; round < 8; ++round) {
    exec::ThreadPool pool(3);
    EXPECT_EQ(pool.num_threads(), 3);
  }
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPool, MakePoolSerialIsNull) {
  // Counts <= 1 are serial: no pool, so callers run inline.
  for (int serial : {-3, 0, 1}) EXPECT_EQ(exec::MakePool(serial), nullptr);
  EXPECT_NE(exec::MakePool(2), nullptr);
}

TEST(ExecOptions, ResolvedThreads) {
  // A configured thread count (session_threads, RETRUST_THREADS, a bench's
  // sweep) resolves through MakePool: n > 1 gets a pool of exactly n.
  for (int threads : {2, 3, 4, 8}) {
    std::unique_ptr<exec::ThreadPool> pool = exec::MakePool(threads);
    ASSERT_NE(pool, nullptr) << threads;
    EXPECT_EQ(pool->num_threads(), threads);
  }
}

TEST(TaskGroup, RunsEveryTaskExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  exec::TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&hits, i] { ++hits[i]; });
  }
  group.Wait();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskGroup, RethrowsEarliestSubmittedException) {
  exec::ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    exec::TaskGroup group(&pool);
    for (int i = 0; i < 16; ++i) {
      group.Run([i] {
        if (i == 3) throw std::runtime_error("task 3");
        if (i == 11) throw std::runtime_error("task 11");
      });
    }
    try {
      group.Wait();
      FAIL() << "expected Wait to rethrow";
    } catch (const std::runtime_error& e) {
      // Both tasks threw; the earliest submission index must win no matter
      // which worker finished first.
      EXPECT_STREQ(e.what(), "task 3");
    }
  }
}

TEST(TaskGroup, InlineWithoutPool) {
  exec::TaskGroup group(nullptr);
  int ran = 0;
  group.Run([&ran] { ++ran; });
  group.Wait();
  EXPECT_EQ(ran, 1);
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  exec::ThreadPool pool(4);
  std::atomic<int> calls{0};
  exec::ParallelFor(&pool, 0,
                    [&](int64_t, int64_t, int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  exec::ChunkPlan plan = exec::PlanChunks(0, &pool);
  EXPECT_EQ(plan.num_chunks, 0);
}

TEST(ParallelFor, RangeSmallerThanThreads) {
  exec::ThreadPool pool(8);
  // 3 items on 8 threads: never more chunks than items, every index
  // covered exactly once.
  exec::ChunkPlan plan = exec::PlanChunks(3, &pool);
  EXPECT_LE(plan.num_chunks, 3);
  std::vector<std::atomic<int>> hits(3);
  exec::ParallelFor(&pool, plan, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ChunksPartitionTheRange) {
  exec::ThreadPool pool(4);
  for (int64_t n : {1, 2, 7, 100, 1001}) {
    exec::ChunkPlan plan = exec::PlanChunks(n, &pool);
    ASSERT_GE(plan.num_chunks, 1);
    // Contiguous, disjoint, covering: chunk c ends where c+1 begins.
    EXPECT_EQ(plan.Begin(0), 0);
    EXPECT_EQ(plan.End(plan.num_chunks - 1), n);
    for (int c = 0; c + 1 < plan.num_chunks; ++c) {
      EXPECT_EQ(plan.End(c), plan.Begin(c + 1));
      EXPECT_LT(plan.Begin(c), plan.End(c));  // no empty chunks
    }
  }
}

TEST(ParallelFor, SerialOnNullPool) {
  std::vector<int> order;
  exec::ParallelFor(nullptr, 10, [&](int64_t begin, int64_t end, int chunk) {
    EXPECT_EQ(chunk, 0);  // serial fallback runs one chunk
    for (int64_t i = begin; i < end; ++i) order.push_back(static_cast<int>(i));
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesLowestChunkException) {
  exec::ThreadPool pool(4);
  try {
    exec::ParallelFor(&pool, exec::PlanChunks(100, &pool),
                      [&](int64_t, int64_t, int chunk) {
                        if (chunk >= 1) {
                          throw std::runtime_error(
                              "chunk " + std::to_string(chunk));
                        }
                      });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
}

TEST(ParallelFor, NestedCallRunsInlineWithoutDeadlock) {
  exec::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  // Each outer chunk starts a nested ParallelFor on the same pool; the
  // nesting guard must run it inline instead of deadlocking on the queue.
  exec::ParallelFor(&pool, 4, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) {
      exec::ParallelFor(&pool, 5, [&](int64_t b, int64_t e, int) {
        inner_total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 4 * 5);
}

}  // namespace
}  // namespace retrust
