// The POWER2 characteristic through the pipeline: the paper's admission
// check ("verify that we work with a stream on which we may apply
// PowerList functions") must survive size-preserving operations and be
// dropped by size-changing ones.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>

#include "powerlist/collector_functions.hpp"
#include "powerlist/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

using pls::powerlist::TieSpliterator;
using pls::powerlist::ZipSpliterator;
using pls::streams::kPower2;
using pls::streams::Stream;
namespace stream_support = pls::streams::stream_support;

std::shared_ptr<const std::vector<double>> shared_n(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  return std::make_shared<const std::vector<double>>(std::move(v));
}

Stream<double> power2_stream(std::size_t n, bool parallel = true) {
  return stream_support::from_spliterator<double>(
      std::make_unique<ZipSpliterator<double>>(shared_n(n)), parallel);
}

TEST(Power2Pipeline, SourceHasIt) {
  EXPECT_TRUE(pls::streams::has_characteristics(
      power2_stream(64).characteristics(), kPower2));
  EXPECT_FALSE(pls::streams::has_characteristics(
      stream_support::from_spliterator<double>(
          std::make_unique<ZipSpliterator<double>>(shared_n(48)), true)
          .characteristics(),
      kPower2));
}

TEST(Power2Pipeline, MapPreservesIt) {
  auto s = power2_stream(32).map([](double d) { return d * 2.0; });
  EXPECT_TRUE(pls::streams::has_characteristics(s.characteristics(),
                                                kPower2));
}

TEST(Power2Pipeline, PeekPreservesIt) {
  auto s = power2_stream(32).peek([](const double&) {});
  EXPECT_TRUE(pls::streams::has_characteristics(s.characteristics(),
                                                kPower2));
}

TEST(Power2Pipeline, FilterDropsIt) {
  auto s = power2_stream(32).filter([](double) { return true; });
  EXPECT_FALSE(pls::streams::has_characteristics(s.characteristics(),
                                                 kPower2));
}

TEST(Power2Pipeline, LimitDropsIt) {
  auto s = power2_stream(32).limit(16);
  EXPECT_FALSE(pls::streams::has_characteristics(s.characteristics(),
                                                 kPower2));
}

TEST(Power2Pipeline, MapThenPowerCollectorStillReconstructs) {
  // A mapped power-of-two stream is still PowerList-collectable: the
  // mapping spliterator splits like its zip source, so zip_all
  // recombination reproduces the mapped sequence in order.
  const std::size_t n = 64;
  auto out = power2_stream(n)
                 .with_min_chunk(2)
                 .map([](double d) { return d + 100.0; })
                 .collect(pls::powerlist::to_power_array_zip<double>());
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) + 100.0);
  }
}

TEST(Power2Pipeline, TieSourceMapCollect) {
  const std::size_t n = 128;
  auto s = stream_support::from_spliterator<double>(
      std::make_unique<TieSpliterator<double>>(shared_n(n)), true);
  auto out = std::move(s)
                 .with_min_chunk(8)
                 .map([](double d) { return -d; })
                 .collect(pls::powerlist::to_power_array_tie<double>());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], -static_cast<double>(i));
  }
}

TEST(Power2Pipeline, ZipSourceThroughReduceMatchesTieSource) {
  const std::size_t n = 4096;
  auto zip_sum = power2_stream(n).reduce(
      0.0, [](double a, double b) { return a + b; });
  auto tie_sum = stream_support::from_spliterator<double>(
                     std::make_unique<TieSpliterator<double>>(shared_n(n)),
                     true)
                     .reduce(0.0, [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(zip_sum, tie_sum);
}

TEST(Power2Pipeline, SplitHalvesKeepPower2ThroughMap) {
  using Fn = std::function<double(const double&)>;
  std::unique_ptr<pls::streams::Spliterator<double>> base =
      std::make_unique<ZipSpliterator<double>>(shared_n(16));
  auto mapped = pls::streams::fuse_source(base);
  mapped->append_stage(
      std::make_shared<pls::streams::MapStage<double, double, Fn>>(
          std::make_shared<const Fn>([](const double& d) { return d; })));
  auto prefix = mapped->try_split();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(prefix->stage_count(), 1u);
  EXPECT_TRUE(pls::streams::has_characteristics(
      prefix->output_characteristics(), kPower2));
  EXPECT_TRUE(pls::streams::has_characteristics(
      mapped->output_characteristics(), kPower2));
}

}  // namespace
