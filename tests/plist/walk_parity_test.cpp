// One fork-join walk for every family: the same sum, split to the same
// grain, reads the same counters and the same trace spans whether it runs
// as a parallel Stream reduce, a PowerFunction fork-join execution, or a
// multiway collect (forkjoin/walk.hpp). A zip-split polynomial collect,
// whose tasks drive their sibling leaves together, still counts every
// split, leaf and combine of the tree.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "forkjoin/walk.hpp"
#include "observe/counters.hpp"
#include "observe/trace.hpp"
#include "plist/multiway_spliterator.hpp"
#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/collector_functions.hpp"
#include "powerlist/executors.hpp"
#include "streams/collectors.hpp"
#include "streams/plan.hpp"
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

// The polynomial collect over its PZipSpliterator at the same grain: the
// walk forks only down to kBatchLeaves times the grain, yet leaf_chunks,
// splits, combines and elements_accumulated read 16/15/15/4096, as they did
// when every leaf drained on its own; forks and tasks may only drop, and
// each task records one accumulate span for its batch.
TEST(WalkParity, ZipPolynomialCountsEveryLeaf) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  auto coeffs = std::make_shared<std::vector<double>>(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    (*coeffs)[i] = static_cast<double>(i % 17) / 16.0 - 0.5;
  }
  const std::shared_ptr<const std::vector<double>> shared = coeffs;
  auto& trace = TraceRecorder::global();
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    ForkJoinPool pool(workers);
    pls::streams::ExecutionConfig cfg;
    cfg.with_pool(pool).with_min_chunk(kGrain);
    trace.clear();
    trace.enable();
    const CounterTotals before = pool.counter_totals();
    (void)pls::powerlist::evaluate_polynomial_stream(shared, 0.75, true, cfg);
    const CounterTotals d = pool.counter_totals() - before;
    trace.disable();
    std::size_t split_spans = 0, accumulate_spans = 0, combine_spans = 0;
    for (const auto& e : trace.events()) {
      if (e.kind == EventKind::kSplit) ++split_spans;
      if (e.kind == EventKind::kAccumulate) ++accumulate_spans;
      if (e.kind == EventKind::kCombine) ++combine_spans;
    }
    trace.clear();
    EXPECT_EQ(d.leaf_chunks, 16u);
    EXPECT_EQ(d.splits, 15u);
    EXPECT_EQ(d.combines, 15u);
    EXPECT_EQ(d.elements_accumulated, kN);
    EXPECT_LE(d.forks, 15u);
    EXPECT_LE(d.tasks_executed, 16u);
    EXPECT_EQ(split_spans, 15u);
    EXPECT_EQ(combine_spans, 15u);
    EXPECT_EQ(accumulate_spans, 16u / pls::forkjoin::kBatchLeaves);
  }
}

// The plan records the batch and explain() names the leaves per task;
// a contiguous source keeps one leaf per task and says nothing of it.
TEST(WalkParity, PlanNamesLeavesPerTask) {
  ForkJoinPool pool(2);
  pls::streams::ExecutionConfig cfg;
  cfg.with_pool(pool).with_min_chunk(kGrain);
  auto coeffs = std::make_shared<const std::vector<double>>(kN, 0.5);
  (void)pls::powerlist::evaluate_polynomial_stream(coeffs, 0.75, true, cfg);
  const pls::streams::ExecutionPlan zip = pls::streams::last_plan();
  EXPECT_TRUE(zip.interleaved);
  EXPECT_TRUE(zip.batches_leaves());
  EXPECT_NE(zip.explain().find("4 leaves per task"), std::string::npos)
      << zip.explain();
  EXPECT_NE(zip.explain().find("interleaved"), std::string::npos);

  std::vector<long> data(kN, 1L);
  (void)pls::streams::Stream<long>::of(data)
      .parallel()
      .via(pool)
      .with_min_chunk(kGrain)
      .reduce(0L, std::plus<long>{});
  const pls::streams::ExecutionPlan flat = pls::streams::last_plan();
  EXPECT_FALSE(flat.interleaved);
  EXPECT_FALSE(flat.batches_leaves());
  EXPECT_EQ(flat.explain().find("leaves per task"), std::string::npos);
}

}  // namespace
