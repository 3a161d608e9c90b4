#include "forkjoin/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace {

using pls::forkjoin::ForkJoinPool;

TEST(Pool, ConstructDestructVariousSizes) {
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    ForkJoinPool pool(p);
    EXPECT_EQ(pool.parallelism(), p);
  }
}

TEST(Pool, ZeroParallelismRejected) {
  EXPECT_THROW(ForkJoinPool pool(0), pls::precondition_error);
}

TEST(Pool, RunReturnsValue) {
  ForkJoinPool pool(2);
  EXPECT_EQ(pool.run([] { return 42; }), 42);
}

TEST(Pool, RunVoidCompletes) {
  ForkJoinPool pool(2);
  int x = 0;
  pool.run([&] { x = 7; });
  EXPECT_EQ(x, 7);
}

TEST(Pool, RunExecutesOnWorkerThread) {
  ForkJoinPool pool(2);
  EXPECT_FALSE(ForkJoinPool::in_worker());
  const bool on_worker = pool.run([] { return ForkJoinPool::in_worker(); });
  EXPECT_TRUE(on_worker);
}

TEST(Pool, RunPropagatesExceptions) {
  ForkJoinPool pool(2);
  EXPECT_THROW(pool.run([]() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(Pool, InvokeTwoRunsBothOutsidePool) {
  ForkJoinPool pool(2);
  // Called from a non-worker thread: sequential fallback still runs both.
  int a = 0, b = 0;
  pool.invoke_two([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Pool, InvokeTwoRunsBothInsidePool) {
  ForkJoinPool pool(4);
  int a = 0, b = 0;
  pool.run([&] { pool.invoke_two([&] { a = 1; }, [&] { b = 2; }); });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Pool, InvokeTwoPropagatesLeftException) {
  ForkJoinPool pool(2);
  EXPECT_THROW(pool.run([&] {
    pool.invoke_two([]() { throw std::runtime_error("left"); }, [] {});
  }),
               std::runtime_error);
}

TEST(Pool, InvokeTwoPropagatesRightException) {
  ForkJoinPool pool(2);
  EXPECT_THROW(pool.run([&] {
    pool.invoke_two([] {}, []() { throw std::runtime_error("right"); });
  }),
               std::runtime_error);
}

// Recursive fibonacci: the classic fork-join stress; validates nested
// invoke_two to significant depth with many concurrent tasks.
int fib(ForkJoinPool& pool, int n) {
  if (n < 2) return n;
  int left = 0, right = 0;
  pool.invoke_two([&] { left = fib(pool, n - 1); },
                  [&] { right = fib(pool, n - 2); });
  return left + right;
}

TEST(Pool, RecursiveForkJoinComputesFibonacci) {
  ForkJoinPool pool(4);
  const int result = pool.run([&] { return fib(pool, 20); });
  EXPECT_EQ(result, 6765);
}

TEST(Pool, DeepRecursionParallelSum) {
  // Sum 1..2^16 via binary splitting with leaf size 1.
  ForkJoinPool pool(4);
  struct Summer {
    ForkJoinPool& pool;
    long sum(long lo, long hi) {  // [lo, hi)
      if (hi - lo == 1) return lo;
      const long mid = lo + (hi - lo) / 2;
      long a = 0, b = 0;
      pool.invoke_two([&] { a = sum(lo, mid); }, [&] { b = sum(mid, hi); });
      return a + b;
    }
  } summer{pool};
  const long n = 1 << 16;
  const long total = pool.run([&] { return summer.sum(0, n); });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(Pool, ManySequentialRunCalls) {
  ForkJoinPool pool(2);
  long acc = 0;
  for (int i = 0; i < 500; ++i) {
    acc += pool.run([i] { return i; });
  }
  EXPECT_EQ(acc, 499L * 500 / 2);
}

TEST(Pool, WorkIsActuallyDistributed) {
  // With more than one worker and blocking leaves, at least one steal must
  // occur (tasks start on the submitting worker's deque; the sleep yields
  // the CPU, so idle workers get to steal even when the pool has more
  // workers than the host has CPUs).
  ForkJoinPool pool(4);
  std::atomic<long> count{0};
  pool.run([&] {
    struct Rec {
      ForkJoinPool& pool;
      std::atomic<long>& count;
      void go(int depth) {
        if (depth == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          count.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        pool.invoke_two([&] { go(depth - 1); }, [&] { go(depth - 1); });
      }
    } rec{pool, count};
    rec.go(6);
  });
  EXPECT_EQ(count.load(), 1L << 6);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(Pool, SingleWorkerPoolStillCorrect) {
  ForkJoinPool pool(1);
  const int result = pool.run([&] { return fib(pool, 15); });
  EXPECT_EQ(result, 610);
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(Pool, CommonPoolIsSingleton) {
  ForkJoinPool& a = ForkJoinPool::common();
  ForkJoinPool& b = ForkJoinPool::common();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.parallelism(), 1u);
}

TEST(Pool, NestedRunFromWorkerExecutesInline) {
  ForkJoinPool pool(2);
  const int v = pool.run([&] { return pool.run([] { return 9; }); });
  EXPECT_EQ(v, 9);
}

}  // namespace
