// Tests for the execution-engine layer: ThreadPool, ParallelFor/Map and
// per-task RNG splitting.

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/parallel.h"
#include "exec/task_rng.h"
#include "exec/thread_pool.h"

namespace csm {
namespace exec {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, InWorkerIsTrueOnWorkersOnly) {
  EXPECT_FALSE(ThreadPool::InWorker());
  std::atomic<bool> saw_in_worker{false};
  std::atomic<bool> done{false};
  {
    ThreadPool pool(2);
    pool.Submit([&] {
      saw_in_worker = ThreadPool::InWorker();
      done = true;
    });
  }
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(saw_in_worker.load());
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ThreadPoolTest, EffectiveThreadsResolvesZero) {
  EXPECT_EQ(EffectiveThreads(1), 1u);
  EXPECT_EQ(EffectiveThreads(7), 7u);
  EXPECT_EQ(EffectiveThreads(0), ThreadPool::HardwareThreads());
  EXPECT_GE(EffectiveThreads(0), 1u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(&pool, kN, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  ParallelFor(&pool, 0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
  ParallelFor(nullptr, 0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, NullPoolRunsSeriallyInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [&](size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool is still usable after an exception.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, ExceptionOnSerialPathPropagatesToo) {
  EXPECT_THROW(ParallelFor(nullptr, 3,
                           [](size_t i) {
                             if (i == 1) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedCallFromWorkerRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  // Saturate the pool with outer iterations that each start an inner
  // ParallelFor.  Without the InWorker guard the inner loops would wait on
  // queue slots held by the outer ones and deadlock.
  std::atomic<int> inner_total{0};
  ParallelFor(&pool, 8, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(4);
  std::vector<size_t> out =
      ParallelMap(&pool, 257, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMapTest, SameResultSerialAndParallel) {
  auto fn = [](size_t i) {
    Rng rng = TaskRng(/*phase_seed=*/42, i);
    return rng.Next();
  };
  ThreadPool pool(4);
  std::vector<uint64_t> parallel = ParallelMap(&pool, 100, fn);
  std::vector<uint64_t> serial = ParallelMap(nullptr, 100, fn);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelForTest, CancelledTokenStopsNewClaims) {
  // A pre-cancelled token means no iteration is ever claimed.
  CancellationToken token;
  token.Cancel();
  std::atomic<size_t> ran{0};
  ParallelFor(nullptr, 100, [&](size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0u);
  ThreadPool pool(4);
  ParallelFor(&pool, 100, [&](size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ParallelForTest, CancellationMidLoopDrains) {
  // Serial path: cancelling inside iteration 10 stops before iteration 11.
  CancellationToken token;
  std::vector<size_t> visited;
  ParallelFor(
      nullptr, 100,
      [&](size_t i) {
        visited.push_back(i);
        if (i == 10) token.Cancel();
      },
      &token);
  ASSERT_EQ(visited.size(), 11u);
  EXPECT_EQ(visited.back(), 10u);
}

TEST(CancellableChunkedMapTest, NoTokenComputesEverything) {
  ChunkedMapCut cut;
  auto out = CancellableChunkedMap(nullptr, 10, 4, nullptr, &cut,
                                   [](size_t i) { return i * 2; });
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 2);
  EXPECT_EQ(cut.completed, 10u);
  EXPECT_FALSE(cut.cancelled);
}

TEST(CancellableChunkedMapTest, PreCancelledTokenComputesNothing) {
  CancellationToken token;
  token.Cancel();
  ChunkedMapCut cut;
  auto out = CancellableChunkedMap(nullptr, 10, 4, &token, &cut,
                                   [](size_t i) { return i; });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cut.completed, 0u);
  EXPECT_TRUE(cut.cancelled);
}

TEST(CancellableChunkedMapTest, CutLandsOnChunkBoundaryAtAnyThreadCount) {
  // Cancelling at logical index 10 with chunk 4: the chunk containing 10
  // (indices 8-11) always completes, the barrier before indices 12-15 sees
  // the cancellation.  The completed prefix is 12 items — serial or pooled.
  auto run = [](ThreadPool* pool) {
    CancellationToken token;
    ChunkedMapCut cut;
    auto out = CancellableChunkedMap(pool, 20, 4, &token, &cut, [&](size_t i) {
      if (i == 10) token.Cancel(CancelReason::kDeadline);
      return i + 1;
    });
    EXPECT_EQ(cut.completed, 12u);
    EXPECT_TRUE(cut.cancelled);
    EXPECT_EQ(out.size(), 12u);
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
  };
  run(nullptr);
  ThreadPool pool2(2);
  run(&pool2);
  ThreadPool pool4(4);
  run(&pool4);
}

TEST(CancellableChunkedMapTest, FinalChunkCancellationStillReportsCut) {
  // The token fires inside the last chunk: the output is complete, but the
  // caller still learns the run was cancelled (it must degrade).
  CancellationToken token;
  ChunkedMapCut cut;
  auto out = CancellableChunkedMap(nullptr, 8, 4, &token, &cut, [&](size_t i) {
    if (i == 7) token.Cancel();
    return i;
  });
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(cut.completed, 8u);
  EXPECT_TRUE(cut.cancelled);
}

TEST(TaskRngTest, StreamsAreIndependentOfEachOther) {
  // Distinct streams from one phase seed produce distinct sequences, and a
  // stream depends only on (phase_seed, index) — not on the other streams.
  const uint64_t phase_seed = Rng(7).Next();
  std::set<uint64_t> first_draws;
  for (uint64_t stream = 0; stream < 1000; ++stream) {
    first_draws.insert(TaskRng(phase_seed, stream).Next());
  }
  EXPECT_EQ(first_draws.size(), 1000u);

  Rng replay = TaskRng(phase_seed, 500);
  Rng fresh = TaskRng(phase_seed, 500);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(replay.Next(), fresh.Next());
}

TEST(TaskRngTest, DifferentPhaseSeedsGiveDifferentStreams) {
  EXPECT_NE(TaskSeed(1, 0), TaskSeed(2, 0));
  EXPECT_NE(TaskRng(1, 3).Next(), TaskRng(2, 3).Next());
}

}  // namespace
}  // namespace exec
}  // namespace csm
