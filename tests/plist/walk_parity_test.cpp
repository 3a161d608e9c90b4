// One fork-join walk for every family: the same sum, split to the same
// grain, reads the same counters and the same trace spans whether it runs
// as a parallel Stream reduce, a PowerFunction fork-join execution, or a
// multiway collect (forkjoin/walk.hpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/trace.hpp"
#include "plist/multiway_spliterator.hpp"
#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/executors.hpp"
#include "streams/collectors.hpp"
#include "streams/stream.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::observe::CounterTotals;
using pls::observe::EventKind;
using pls::observe::TraceRecorder;

constexpr std::size_t kN = std::size_t{1} << 12;
constexpr std::uint64_t kGrain = 256;
constexpr long kSum = static_cast<long>(kN) * (kN + 1) / 2;

/// What one run left behind: its counter delta and its walk spans.
struct WalkRecord {
  CounterTotals counters;
  std::size_t split_spans = 0;
  std::size_t accumulate_spans = 0;
  std::size_t combine_spans = 0;
};

template <typename Fn>
WalkRecord record(ForkJoinPool& pool, Fn&& run) {
  auto& trace = TraceRecorder::global();
  trace.clear();
  trace.enable();
  const CounterTotals before = pool.counter_totals();
  EXPECT_EQ(run(), kSum);
  WalkRecord r;
  r.counters = pool.counter_totals() - before;
  trace.disable();
  for (const auto& e : trace.events()) {
    if (e.kind == EventKind::kSplit) ++r.split_spans;
    if (e.kind == EventKind::kAccumulate) ++r.accumulate_spans;
    if (e.kind == EventKind::kCombine) ++r.combine_spans;
  }
  trace.clear();
  return r;
}

TEST(WalkParity, StreamExecutorAndMultiwayWalkAlike) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  std::vector<long> data(kN);
  std::iota(data.begin(), data.end(), 1L);
  ForkJoinPool pool(2);

  const WalkRecord stream = record(pool, [&] {
    return pls::streams::Stream<long>::of(data)
        .parallel()
        .via(pool)
        .with_min_chunk(kGrain)
        .reduce(0L, std::plus<long>{});
  });

  const WalkRecord executor = record(pool, [&] {
    const pls::powerlist::ReduceFunction<long, std::plus<long>> sum{
        std::plus<long>{}};
    return pls::powerlist::execute_forkjoin_reported(
               pool, sum, pls::powerlist::view_of(std::as_const(data)), {},
               kGrain)
        .result;
  });

  const WalkRecord multiway = record(pool, [&] {
    pls::plist::NTieSpliterator<long> sp(
        std::make_shared<const std::vector<long>>(data));
    pls::streams::ExecutionConfig cfg;
    cfg.with_pool(pool).with_min_chunk(kGrain);
    return pls::plist::evaluate_collect_multiway(
        sp, pls::streams::collectors::summing<long>(), 2, /*parallel=*/true, cfg);
  });

  for (const auto& [name, r] :
       {std::pair{"stream", stream}, std::pair{"executor", executor},
        std::pair{"multiway", multiway}}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(r.counters.leaf_chunks, 16u);
    EXPECT_EQ(r.counters.splits, 15u);
    EXPECT_EQ(r.counters.combines, 15u);
    EXPECT_EQ(r.counters.elements_accumulated, kN);
    EXPECT_EQ(r.accumulate_spans, 16u);
    EXPECT_EQ(r.split_spans, 15u);
    EXPECT_EQ(r.combine_spans, 15u);
  }
}

}  // namespace
