// Tests for the antarex::exec work-stealing runtime: deque semantics, pool
// lifecycle, exception propagation, parallel_for correctness on irregular
// workloads, steal accounting, and the determinism contract (byte-identical
// results across thread counts). Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/exec.hpp"

namespace antarex::exec {
namespace {

// A trivial concrete task for direct deque tests.
struct MarkerTask final : Task {
  explicit MarkerTask(int v) : value(v) {}
  void run() override {}
  int value;
};

// --------------------------------------------------------------------------
// TaskDeque
// --------------------------------------------------------------------------

TEST(TaskDequeTest, OwnerPopsLifoThiefStealsFifo) {
  TaskDeque dq(8);
  MarkerTask a(1), b(2), c(3);
  ASSERT_TRUE(dq.push(&a));
  ASSERT_TRUE(dq.push(&b));
  ASSERT_TRUE(dq.push(&c));

  // Thief takes the oldest…
  Task* stolen = dq.steal();
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(static_cast<MarkerTask*>(stolen)->value, 1);
  // …owner takes the newest.
  Task* popped = dq.pop();
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(static_cast<MarkerTask*>(popped)->value, 3);
  popped = dq.pop();
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(static_cast<MarkerTask*>(popped)->value, 2);

  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(TaskDequeTest, PushReportsFull) {
  TaskDeque dq(2);
  MarkerTask a(1), b(2), c(3);
  EXPECT_TRUE(dq.push(&a));
  EXPECT_TRUE(dq.push(&b));
  EXPECT_FALSE(dq.push(&c));
  EXPECT_EQ(dq.size_approx(), 2u);
}

TEST(TaskDequeTest, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(TaskDeque dq(6), Error);
}

// --------------------------------------------------------------------------
// ThreadPool lifecycle and submission
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, StartsAndStopsCleanly) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }
  // Default constructor picks hardware concurrency (>= 1).
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i)
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, AsyncReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.async([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, AsyncPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, TaskGroupRethrowsFirstException) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i)
    group.run([i] {
      if (i == 3) throw std::runtime_error("task failed");
    });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

// --------------------------------------------------------------------------
// parallel_for
// --------------------------------------------------------------------------

// Irregular per-index work: index-dependent loop length (heavy at the front).
double irregular_work(std::size_t i) {
  const std::size_t iters = 1 + (i % 97) * (i % 13);
  double acc = static_cast<double>(i);
  for (std::size_t k = 0; k < iters; ++k) acc = std::sqrt(acc * acc + 1.0);
  return acc;
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 16, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, MatchesSerialOnIrregularWorkload) {
  const std::size_t n = 2000;
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = irregular_work(i);

  ThreadPool pool(4);
  const auto parallel = parallel_map<double>(
      pool, n, 7, [](std::size_t i) { return irregular_work(i); });
  ASSERT_EQ(parallel.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(parallel[i], serial[i]) << i;
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000, 10,
                        [](std::size_t begin, std::size_t) {
                          if (begin >= 500) throw std::runtime_error("chunk");
                        }),
      std::runtime_error);
}

TEST(ParallelForTest, NestedCallDegradesToSerial) {
  ThreadPool pool(2);
  auto fut = pool.async([&pool] {
    std::vector<int> out(100, 0);
    pool.parallel_for(out.size(), 8, [&out](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = static_cast<int>(i);
    });
    long sum = 0;
    for (int v : out) sum += v;
    return sum;
  });
  EXPECT_EQ(fut.get(), 99L * 100L / 2L);
}

TEST(ParallelForTest, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, 1, [&ran](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// --------------------------------------------------------------------------
// Determinism contract
// --------------------------------------------------------------------------

TEST(DeterminismTest, StreamSeedsAreDecorrelated) {
  const u64 run_seed = 12345;
  EXPECT_NE(stream_seed(run_seed, 0), stream_seed(run_seed, 1));
  EXPECT_NE(stream_seed(run_seed, 0), run_seed);
  EXPECT_NE(stream_seed(run_seed, 0), stream_seed(run_seed + 1, 0));
  // Stable across calls: the stream id is a pure function.
  EXPECT_EQ(stream_seed(run_seed, 7), stream_seed(run_seed, 7));
}

// A reduction that mixes per-index RNG streams with non-associative
// floating-point folding — exactly the pattern dock/DSE use.
double seeded_reduction(ThreadPool& pool, u64 run_seed, std::size_t n,
                        std::size_t grain) {
  return parallel_reduce<double, double>(
      pool, n, grain, 0.0,
      [run_seed](std::size_t i) {
        Rng rng(stream_seed(run_seed, i));
        double x = 0.0;
        for (int k = 0; k < 16; ++k) x += rng.uniform() * 1e-3;
        return std::sqrt(x + static_cast<double>(i));
      },
      [](double acc, double v) { return acc + v * 1.000000001; });
}

TEST(DeterminismTest, ByteIdenticalAcrossThreadCounts) {
  const u64 run_seed = 99;
  const std::size_t n = 777;

  ThreadPool p1(1), p2(2), p8(8);
  const double r1 = seeded_reduction(p1, run_seed, n, 5);
  const double r2 = seeded_reduction(p2, run_seed, n, 5);
  const double r8 = seeded_reduction(p8, run_seed, n, 5);
  // Exact equality, not near: this is the byte-reproducibility contract.
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);

  // Grain size must not change the result either (chunking is internal).
  EXPECT_EQ(r1, seeded_reduction(p8, run_seed, n, 64));
  // Repeat runs on the same pool agree.
  EXPECT_EQ(r8, seeded_reduction(p8, run_seed, n, 5));
}

// --------------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------------

TEST(PoolStatsTest, AccountsEveryChunkOnHeavyTailedWorkload) {
  ThreadPool pool(4);
  pool.reset_stats();
  const std::size_t n = 512;
  // Heavy-tailed: a few indices do ~100x the median work.
  pool.parallel_for(n, 1, [](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      volatile double acc = 1.0;
      const std::size_t iters = (i % 71 == 0) ? 20000 : 200;
      for (std::size_t k = 0; k < iters; ++k) acc = acc * 1.0000001 + 1e-9;
    }
  });
  const PoolStats s = pool.stats();
  // Every chunk ran exactly once, as a counted task or an inline fallback
  // (seed tasks are counted tasks too, hence >=).
  EXPECT_GE(s.tasks + s.inline_runs, n);
  EXPECT_LE(s.steals, s.tasks);
  u64 per_worker_total = 0;
  for (u64 t : s.worker_tasks) per_worker_total += t;
  EXPECT_EQ(per_worker_total, s.tasks);
  EXPECT_GE(s.imbalance(), 1.0);
  EXPECT_GT(s.total_busy_s(), 0.0);
}

TEST(PoolStatsTest, SingleWorkerNeverSteals) {
  ThreadPool pool(1);
  pool.reset_stats();
  pool.parallel_for(256, 1, [](std::size_t, std::size_t) {});
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.steals, 0u);
  EXPECT_GE(s.tasks, 256u);
}

TEST(PoolStatsTest, ResetClearsCounters) {
  ThreadPool pool(2);
  pool.parallel_for(64, 4, [](std::size_t, std::size_t) {});
  pool.reset_stats();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tasks, 0u);
  EXPECT_EQ(s.steals, 0u);
  EXPECT_EQ(s.inline_runs, 0u);
  EXPECT_EQ(s.total_busy_s(), 0.0);
}

// --------------------------------------------------------------------------
// Deterministic exception selection
// --------------------------------------------------------------------------

TEST(ParallelForErrors, FirstExceptionIsDeterministic) {
  // Several chunks throw; the caller must always see the one from the lowest
  // index range, regardless of which worker hit its chunk first. Regression
  // test for the old fast-skip, which surfaced whichever error won the race.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      std::string caught;
      try {
        pool.parallel_for(256, 8, [](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i)
            if (i % 50 == 49) throw Error("boom@" + std::to_string(i));
        });
        FAIL() << "parallel_for swallowed the exception";
      } catch (const Error& err) {
        caught = err.what();
      }
      EXPECT_EQ(caught, "boom@49") << "threads=" << threads;
    }
  }
}

TEST(ParallelForErrors, AllChunksRunDespiteFailure) {
  // Removing the fast-skip means a failing chunk never suppresses the others'
  // side effects — the loop's work is all-or-nothing per chunk, not per call.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> ran(64);
  try {
    pool.parallel_for(64, 1, [&](std::size_t b, std::size_t) {
      ran[b].fetch_add(1, std::memory_order_relaxed);
      if (b == 0) throw Error("first chunk fails");
    });
    FAIL();
  } catch (const Error&) {
  }
  for (std::size_t i = 0; i < ran.size(); ++i)
    EXPECT_EQ(ran[i].load(), 1) << "chunk " << i;
}

}  // namespace
}  // namespace antarex::exec
