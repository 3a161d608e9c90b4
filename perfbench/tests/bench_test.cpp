// Tests of the benchmark's own rules: the percentile rule, time slices
// and open-loop lateness accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "openloop.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i + 1));
  return v;
}

TEST(PercentileRule, FullSampleReportsTheRequestedPercentile) {
  const Quantile p99 = quantile(iota(1000), 0.99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);  // 10 samples (991..1000) beyond it
  EXPECT_DOUBLE_EQ(p99.q, 0.99);
}

TEST(PercentileRule, SmallSampleFallsBackToHighestSupportedPercentile) {
  // 200 samples: p99 would leave 2 beyond it; the highest rank with 10
  // beyond is the 190th value, i.e. p95.
  const Quantile p99 = quantile(iota(200), 0.99);
  EXPECT_EQ(p99.samples, 200u);
  EXPECT_DOUBLE_EQ(p99.value, 190.0);
  EXPECT_DOUBLE_EQ(p99.q, 0.95);
  // p90 of 200 has 20 beyond it and is reported as asked.
  const Quantile p90 = quantile(iota(200), 0.9);
  EXPECT_DOUBLE_EQ(p90.value, 180.0);
  EXPECT_DOUBLE_EQ(p90.q, 0.9);
}

TEST(PercentileRule, EveryReportedTailHasTenSamplesBeyond) {
  for (std::size_t n = 21; n < 400; n += 7) {
    for (const double q : {0.9, 0.99, 0.999}) {
      const std::size_t rank = supported_rank(q, n);
      EXPECT_GE(n - 1 - rank, kMinTailSamples) << "n=" << n << " q=" << q;
      // ...and it is the requested rank, or the highest with 10 beyond.
      const auto nearest =
          static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) - 1;
      EXPECT_TRUE(rank == nearest || n - 1 - rank == kMinTailSamples)
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileRule, NeverFallsBelowTheMedian) {
  const Quantile p99 = quantile(iota(15), 0.99);
  EXPECT_DOUBLE_EQ(p99.value, quantile(iota(15), 0.5).value);
  EXPECT_EQ(p99.samples, 15u);
}

TEST(PercentileRule, MedianIsUncapped) {
  EXPECT_DOUBLE_EQ(quantile(iota(11), 0.5).value, 6.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5).value, 2.0);
}

TEST(TimeSlices, StallInOneSliceDoesNotMoveTheReportedPercentile) {
  // 1000 operations of 1 ms over 10 s; a stall makes 100 of them in the
  // third second take 50 ms.
  std::vector<Timed> steady, stalled;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = std::int64_t{i} * 10'000'000;
    steady.push_back(Timed{t, 1.0});
    stalled.push_back(Timed{t, i >= 200 && i < 300 ? 50.0 : 1.0});
  }
  EXPECT_DOUBLE_EQ(sliced_quantile(steady, 0.9).value, 1.0);
  EXPECT_DOUBLE_EQ(sliced_quantile(stalled, 0.9).value, 1.0);
  std::vector<double> flat;
  for (const Timed& s : stalled) flat.push_back(s.value);
  EXPECT_DOUBLE_EQ(quantile(flat, 0.95).value, 50.0);  // the stall shows
  EXPECT_EQ(sliced_quantile(stalled, 0.9).samples, 1000u);
  EXPECT_DOUBLE_EQ(sliced_mean(stalled), 1.0);
}

TEST(TimeSlices, SlicesCoverEveryObservationOnce) {
  std::vector<Timed> s;
  for (int i = 0; i < 37; ++i) s.push_back(Timed{std::int64_t{i} * 7, 1.0});
  std::size_t total = 0;
  for (const auto& slice : time_slices(s)) {
    EXPECT_FALSE(slice.empty());
    total += slice.size();
  }
  EXPECT_EQ(total, 37u);
}

TEST(OpenLoop, ScheduleIsFixedByRateNotBySends) {
  const OpenLoopSchedule s(1'000, 1e6);  // one event per microsecond
  EXPECT_EQ(s.due_ns(0), 1'000);
  EXPECT_EQ(s.due_ns(5), 6'000);
  EXPECT_EQ(s.due_by(999), 0u);
  EXPECT_EQ(s.due_by(1'000), 1u);
  EXPECT_EQ(s.due_by(6'000), 6u);
  EXPECT_EQ(s.due_by(6'999), 6u);
}

TEST(OpenLoop, StalledGeneratorIsChargedFromTheDueTime) {
  // The generator stalls for 5 ms, then offers everything that fell due.
  const OpenLoopSchedule s(0, 1e6);
  const std::int64_t now = 5'000'000;
  std::vector<Event> sent;
  const std::int64_t late = offer_due(
      s, 0, s.due_by(now), now, [&](std::uint64_t i, std::int64_t due) {
        sent.push_back(Event{static_cast<double>(i), due});
      });
  ASSERT_EQ(sent.size(), 5001u);
  EXPECT_EQ(late, 5'000'000);           // oldest event waited 5 ms
  EXPECT_EQ(sent[0].due_ns, 0);         // stamped with the schedule...
  EXPECT_EQ(sent[4000].due_ns, 4'000'000);  // ...not with the send time

  // A window closed by event 31 and emitted 1 ms after the send has a
  // latency of 6 ms minus event 31's due offset, not 1 ms.
  const WindowOut w{0.0, sent[31].due_ns, now + 1'000'000};
  EXPECT_EQ(window_latency_ns(w), 6'000'000 - 31'000);
}

TEST(OpenLoop, OnTimeGeneratorHasNoLateness) {
  const OpenLoopSchedule s(0, 1e3);
  std::uint64_t offered = 0;
  const std::int64_t late = offer_due(
      s, 3, 4, s.due_ns(3), [&](std::uint64_t, std::int64_t) { ++offered; });
  EXPECT_EQ(offered, 1u);
  EXPECT_EQ(late, 0);
}

}  // namespace
}  // namespace perfbench
