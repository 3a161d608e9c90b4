// Push-mode pipeline fusion (docs/execution.md, "Pipeline fusion"): a
// Stream holds a FusedPipeline (its source plus one StageNode per op),
// and terminal evaluation drives one sink chain per leaf. These tests pin the contract against
// plain-loop expectations: results are exact, short-circuit chains
// consume exactly as deep into the source as an element-at-a-time
// evaluation must, every source shape — concat and unsized iterate
// included — runs fused, and the leaf counters add up.
#include "streams/fusion.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "streams/sink.hpp"
#include "streams/stream.hpp"

namespace {

using pls::observe::CounterTotals;
using pls::streams::Stream;

std::vector<long> iota(std::size_t n) {
  std::vector<long> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

CounterTotals counters_now() { return pls::observe::aggregate_counters(); }

// ---- result equivalence ----------------------------------------------

TEST(Fusion, MapChainMatchesLegacyOnArraySource) {
  const auto data = iota(1000);  // non-power-of-two: supplier/combiner path
  std::vector<long> expected;
  for (long v : data) expected.push_back(((v * 3) - 7) ^ 0x55);
  EXPECT_EQ(Stream<long>::of(data)
                .map([](long v) { return v * 3; })
                .map([](long v) { return v - 7; })
                .map([](long v) { return v ^ 0x55; })
                .to_vector(),
            expected);
}

TEST(Fusion, MapFilterPeekChainMatchesLegacy) {
  std::vector<long> expected;
  for (long v = 0; v < 777; ++v) {
    if ((v * 2 + 1) % 3 != 0) expected.push_back(v * 2 + 1);
  }
  std::atomic<std::uint64_t> seen{0};
  EXPECT_EQ(Stream<long>::range(0, 777)
                .map([](long v) { return v * 2 + 1; })
                .filter([](long v) { return v % 3 != 0; })
                .peek([&seen](const long&) {
                  seen.fetch_add(1, std::memory_order_relaxed);
                })
                .to_vector(),
            expected);
  EXPECT_EQ(seen.load(), expected.size());
}

TEST(Fusion, TypeChangingMapChainMatchesLegacy) {
  std::vector<std::string> expected;
  for (long v = 0; v < 300; ++v) {
    expected.push_back(std::to_string(double(v) * 0.5));
  }
  EXPECT_EQ(Stream<long>::generate([](std::uint64_t i) { return long(i); },
                                   300)
                .map([](long v) { return double(v) * 0.5; })
                .map([](double v) { return std::to_string(v); })
                .to_vector(),
            expected);
}

TEST(Fusion, ParallelTerminalsMatchLegacyAcrossChunkSizes) {
  pls::forkjoin::ForkJoinPool pool(3);
  const auto data = iota(1 << 10);
  std::vector<long> expected;
  for (long v : data) {
    if (((v * v) & 3) != 0) expected.push_back(v * v);
  }
  for (const std::uint64_t chunk : {1ull, 7ull, 64ull, 2000ull}) {
    EXPECT_EQ(Stream<long>::of(data)
                  .parallel()
                  .via(pool)
                  .with_min_chunk(chunk)
                  .map([](long v) { return v * v; })
                  .filter([](long v) { return (v & 3) != 0; })
                  .to_vector(),
              expected)
        << "min_chunk=" << chunk;
  }
}

TEST(Fusion, ReduceForEachCountAndSumMatchLegacy) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto data = iota(513);
  long x = 0;
  long sum = 0;
  for (long v : data) {
    x ^= v ^ (v << 3);
    sum += v ^ (v << 3);
  }
  const auto base = [&] {
    return Stream<long>::of(data).map([](long v) { return v ^ (v << 3); });
  };
  EXPECT_EQ(base().reduce([](long a, long b) { return a ^ b; }), x);
  EXPECT_EQ(base().count(), data.size());
  EXPECT_EQ(base().parallel().via(pool).with_min_chunk(16).count(),
            data.size());
  EXPECT_EQ(std::move(base().parallel().via(pool)).sum(), sum);
  std::atomic<long> acc{0};
  base().parallel().via(pool).for_each([&](const long& v) {
    acc.fetch_add(v, std::memory_order_relaxed);
  });
  EXPECT_EQ(acc.load(), sum);
}

TEST(Fusion, EmptyAndSingletonSources) {
  for (const long n : {0L, 1L}) {
    std::vector<long> expected;
    for (long v = 0; v < n; ++v) expected.push_back(v + 1);
    EXPECT_EQ(Stream<long>::range(0, n)
                  .map([](long v) { return v + 1; })
                  .to_vector(),
              expected)
        << "n=" << n;
  }
}

// ---- short-circuit semantics -----------------------------------------

TEST(Fusion, LimitConsumesExactlyAsDeepAsLegacy) {
  // A counting peek below the slice observes source consumption depth:
  // the cancellable driver must pull exactly the 37 elements it emits.
  std::uint64_t pulls = 0;
  auto out = Stream<long>::range(0, 10000)
                 .peek([&pulls](const long&) { ++pulls; })
                 .limit(37)
                 .to_vector();
  EXPECT_EQ(out.size(), 37u);
  EXPECT_EQ(pulls, 37u);
}

TEST(Fusion, SkipThenLimitMatchesLegacy) {
  std::vector<long> expected;
  for (long v = 100; v < 150; ++v) expected.push_back(v * 11);
  EXPECT_EQ(Stream<long>::range(0, 500)
                .skip(100)
                .limit(50)
                .map([](long v) { return v * 11; })
                .to_vector(),
            expected);
}

TEST(Fusion, TakeWhileStopsAtFirstFailureLikeLegacy) {
  std::uint64_t pulls = 0;
  auto out = Stream<long>::range(0, 10000)
                 .peek([&pulls](const long&) { ++pulls; })
                 .take_while([](long v) { return v < 123; })
                 .to_vector();
  EXPECT_EQ(out.size(), 123u);
  // take_while consumes through the first failing element.
  EXPECT_EQ(pulls, 124u);
}

TEST(Fusion, CancellingChainsRefuseToSplitInParallelMode) {
  // limit in a parallel pipeline: the fused chain must stay a single
  // leaf (splitting would lose the prefix order) and still be exact.
  pls::forkjoin::ForkJoinPool pool(4);
  std::vector<long> expected;
  for (long v = 0; v < 100; ++v) expected.push_back(v + 1);
  const CounterTotals before = counters_now();
  EXPECT_EQ(Stream<long>::range(0, 1 << 12)
                .parallel()
                .via(pool)
                .with_min_chunk(8)
                .map([](long v) { return v + 1; })
                .limit(100)
                .to_vector(),
            expected);
  if (pls::observe::kEnabled) {
    const CounterTotals delta = counters_now() - before;
    EXPECT_EQ(delta.leaf_chunks, 1u);
    EXPECT_EQ(delta.splits, 0u);
  }
}

TEST(Fusion, DropWhileDropsOnlyTheLeadingRun) {
  pls::forkjoin::ForkJoinPool pool(2);
  std::vector<long> expected;
  for (long v = 0; v < 300; ++v) {
    if (v >= 40) expected.push_back((v % 50) * 2);
  }
  for (const bool parallel : {false, true}) {
    auto s = Stream<long>::range(0, 300)
                 .map([](long v) { return v % 50; })
                 .drop_while([](long v) { return v < 40; })
                 .map([](long v) { return v * 2; });
    if (parallel) s = std::move(s).parallel().via(pool).with_min_chunk(8);
    EXPECT_EQ(std::move(s).to_vector(), expected) << "parallel=" << parallel;
  }
}

// ---- every source shape fuses ----------------------------------------

TEST(Fusion, ParallelFusedLeafCountMatchesLeafChunks) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::forkjoin::ForkJoinPool pool(2);
  const CounterTotals before = counters_now();
  (void)Stream<long>::of(iota(1 << 10))
      .parallel()
      .via(pool)
      .with_min_chunk(64)
      .map([](long v) { return v + 3; })
      .to_vector();
  const CounterTotals delta = counters_now() - before;
  EXPECT_EQ(delta.leaf_chunks, delta.splits + 1);
  EXPECT_GT(delta.leaf_chunks, 1u);
  EXPECT_EQ(delta.elements_accumulated, 1u << 10);
}

TEST(Fusion, ConcatBottomedChainFuses) {
  // concat names no destination window, so it collects through the
  // supplier/combiner walk — split at the concat boundary first.
  pls::forkjoin::ForkJoinPool pool(2);
  std::vector<long> expected;
  for (long v = 0; v < 100; ++v) expected.push_back(v * 5);
  for (long v = 200; v < 300; ++v) expected.push_back(v * 5);
  for (const bool parallel : {false, true}) {
    auto s = Stream<long>::concat(Stream<long>::range(0, 100),
                                  Stream<long>::range(200, 300))
                 .map([](long v) { return v * 5; });
    if (parallel) s = std::move(s).parallel().via(pool).with_min_chunk(16);
    const CounterTotals before = counters_now();
    EXPECT_EQ(std::move(s).to_vector(), expected) << "parallel=" << parallel;
    if (pls::observe::kEnabled) {
      const CounterTotals delta = counters_now() - before;
      EXPECT_EQ(delta.elements_accumulated, 200u);
      if (parallel) {
        EXPECT_GT(delta.leaf_chunks, 2u);
      }
    }
  }
  EXPECT_FALSE(pls::streams::last_plan().dps);
}

TEST(Fusion, UnsizedIterateTailFuses) {
  std::vector<long> expected;
  for (long v = 1, i = 0; i < 20; ++i, v *= 2) expected.push_back(v + 1);
  const CounterTotals before = counters_now();
  const auto out = Stream<long>::iterate(1L, [](long v) { return v * 2; })
                       .parallel()
                       .map([](long v) { return v + 1; })
                       .limit(20)
                       .to_vector();
  EXPECT_EQ(out, expected);
  const auto& plan = pls::streams::last_plan();
  EXPECT_FALSE(plan.sized);
  EXPECT_EQ(plan.drive, pls::streams::DriveMode::kElementLoop);
  if (pls::observe::kEnabled) {
    const CounterTotals delta = counters_now() - before;
    EXPECT_EQ(delta.leaf_chunks, 1u);
    EXPECT_EQ(delta.elements_accumulated, 0u);  // unsized: uncounted
  }
}

TEST(Fusion, FlatMapChainFusesAsMultiAcceptStage) {
  std::vector<long> expected;
  for (long v = 0; v < 64; ++v) {
    expected.push_back(v * 7);
    expected.push_back((v + 1) * 7);
  }
  EXPECT_EQ(Stream<long>::range(0, 64)
                .flat_map([](const long& v) {
                  return std::vector<long>{v, v + 1};
                })
                .map([](long v) { return v * 7; })
                .to_vector(),
            expected);
  EXPECT_EQ(pls::streams::last_plan().stages, 2u);
}

// ---- fused destination-passing collect -------------------------------

TEST(Fusion, FusedDpsCollectMatchesAllOtherRoutes) {
  pls::forkjoin::ForkJoinPool pool(3);
  const auto data = iota(1 << 11);  // power of two: DPS-admissible
  std::vector<long> expected;
  for (long v : data) expected.push_back(v * 13 + 1);
  for (const bool parallel : {false, true}) {
    for (const bool sized_sink : {false, true}) {
      auto s = Stream<long>::of(data)
                   .with_sized_sink(sized_sink)
                   .map([](long v) { return v * 13 + 1; });
      if (parallel) s = std::move(s).parallel().via(pool).with_min_chunk(32);
      EXPECT_EQ(std::move(s).to_vector(), expected)
          << "parallel=" << parallel << " sized_sink=" << sized_sink;
      EXPECT_EQ(pls::streams::last_plan().dps, sized_sink);
    }
  }
}

TEST(Fusion, FusedDpsLeavesAreCountedFused) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::forkjoin::ForkJoinPool pool(2);
  const CounterTotals before = counters_now();
  (void)Stream<long>::of(iota(1 << 10))
      .parallel()
      .via(pool)
      .with_min_chunk(64)
      .with_sized_sink(true)
      .map([](long v) { return v + 1; })
      .to_vector();
  const CounterTotals delta = counters_now() - before;
  EXPECT_EQ(delta.leaf_chunks, 16u);
  EXPECT_EQ(delta.elements_accumulated, 1u << 10);
  EXPECT_EQ(delta.combines, 0u);
}

// ---- chunked vs element transport ------------------------------------

TEST(Fusion, ChunkedAndCancellableDriversAgree) {
  // The same logical chain, once bulk (no cancelling stage) and once
  // element-mode (with a never-failing take_while forcing cancellable
  // transport), must produce identical output.
  const auto bulk = Stream<long>::range(0, 4096)
                        .map([](long v) { return v * 3 + 1; })
                        .filter([](long v) { return v % 5 != 0; })
                        .to_vector();
  const auto element = Stream<long>::range(0, 4096)
                           .take_while([](long) { return true; })
                           .map([](long v) { return v * 3 + 1; })
                           .filter([](long v) { return v % 5 != 0; })
                           .to_vector();
  EXPECT_EQ(bulk, element);
}

TEST(Fusion, LargeArrayChunksSpanMultipleFusionBuffers) {
  // > kFusionChunk elements through a Generate source exercises the
  // buffered transport's flush-and-refill path.
  const std::uint64_t n = pls::streams::kFusionChunk * 3 + 17;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < n; ++i) expected.push_back((i * i) ^ 0xdeadbeef);
  EXPECT_EQ(Stream<std::uint64_t>::generate(
                [](std::uint64_t i) { return i * i; }, n)
                .map([](std::uint64_t v) { return v ^ 0xdeadbeef; })
                .to_vector(),
            expected);
}

}  // namespace
