// Bit-identity pins for the paper's workload: evaluate_polynomial_stream
// results as hex floats over sizes, worker counts, explicit grains and
// seeded schedules, plus zip-split PowerArray collects checked against
// their sequential run. The values were recorded from the walk that
// drained every zip leaf on its own; a walk that drives a task's sibling
// leaves together must reproduce them exactly, because every leaf still
// folds the same kFusionChunk batches at the same exponent and every
// combine runs in the same tree shape.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "powerlist/collector_functions.hpp"
#include "powerlist/spliterators.hpp"
#include "proptest/deterministic_pool.hpp"
#include "streams/plan.hpp"
#include "streams/stream.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::powerlist::evaluate_polynomial_stream;

constexpr double kX = -0.999;

std::shared_ptr<const std::vector<double>> coefficients(std::size_t n) {
  auto c = std::make_shared<std::vector<double>>(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*c)[i] = static_cast<double>((i * 2654435761ull) % 2001) / 1000.0 - 1.0;
  }
  return c;
}

struct Pin {
  unsigned log2n;
  unsigned workers;
  std::uint64_t min_chunk;  // 0 selects the default grain
  double value;
};

// min_chunk == n is the single-leaf (sequential-shaped) tree.
constexpr Pin kPins[] = {
    {12, 1, 0, 0x1.f886f578bc28p-5},
    {12, 1, 1, 0x1.f886f578bc5bp-5},
    {12, 1, 64, 0x1.f886f578bc7p-5},
    {12, 1, 1000, 0x1.f886f578bc62p-5},
    {12, 1, 4096, 0x1.f886f578bc30cp-5},
    {12, 2, 0, 0x1.f886f578bc62p-5},
    {12, 2, 1, 0x1.f886f578bc5bp-5},
    {12, 2, 64, 0x1.f886f578bc7p-5},
    {12, 2, 1000, 0x1.f886f578bc62p-5},
    {12, 2, 4096, 0x1.f886f578bc30cp-5},
    {12, 3, 0, 0x1.f886f578bc6ep-5},
    {12, 3, 1, 0x1.f886f578bc5bp-5},
    {12, 3, 64, 0x1.f886f578bc7p-5},
    {12, 3, 1000, 0x1.f886f578bc62p-5},
    {12, 3, 4096, 0x1.f886f578bc30cp-5},
    {12, 4, 0, 0x1.f886f578bc6ep-5},
    {12, 4, 1, 0x1.f886f578bc5bp-5},
    {12, 4, 64, 0x1.f886f578bc7p-5},
    {12, 4, 1000, 0x1.f886f578bc62p-5},
    {12, 4, 4096, 0x1.f886f578bc30cp-5},
    {16, 1, 0, 0x1.be7ac1543f13cp+0},
    {16, 1, 1, 0x1.be7ac1543f12dp+0},
    {16, 1, 64, 0x1.be7ac1543f12bp+0},
    {16, 1, 1000, 0x1.be7ac1543f131p+0},
    {16, 1, 65536, 0x1.be7ac1543f143p+0},
    {16, 2, 0, 0x1.be7ac1543f127p+0},
    {16, 2, 1, 0x1.be7ac1543f12dp+0},
    {16, 2, 64, 0x1.be7ac1543f12bp+0},
    {16, 2, 1000, 0x1.be7ac1543f131p+0},
    {16, 2, 65536, 0x1.be7ac1543f143p+0},
    {16, 3, 0, 0x1.be7ac1543f126p+0},
    {16, 3, 1, 0x1.be7ac1543f12dp+0},
    {16, 3, 64, 0x1.be7ac1543f12bp+0},
    {16, 3, 1000, 0x1.be7ac1543f131p+0},
    {16, 3, 65536, 0x1.be7ac1543f143p+0},
    {16, 4, 0, 0x1.be7ac1543f126p+0},
    {16, 4, 1, 0x1.be7ac1543f12dp+0},
    {16, 4, 64, 0x1.be7ac1543f12bp+0},
    {16, 4, 1000, 0x1.be7ac1543f131p+0},
    {16, 4, 65536, 0x1.be7ac1543f143p+0},
    {18, 1, 0, -0x1.22b62bb2c4b84p+0},
    {18, 1, 1, -0x1.22b62bb2c4ba1p+0},
    {18, 1, 64, -0x1.22b62bb2c4ba4p+0},
    {18, 1, 1000, -0x1.22b62bb2c4ba6p+0},
    {18, 1, 262144, -0x1.22b62bb2c4b82p+0},
    {18, 2, 0, -0x1.22b62bb2c4badp+0},
    {18, 2, 1, -0x1.22b62bb2c4ba1p+0},
    {18, 2, 64, -0x1.22b62bb2c4ba4p+0},
    {18, 2, 1000, -0x1.22b62bb2c4ba6p+0},
    {18, 2, 262144, -0x1.22b62bb2c4b82p+0},
    {18, 3, 0, -0x1.22b62bb2c4babp+0},
    {18, 3, 1, -0x1.22b62bb2c4ba1p+0},
    {18, 3, 64, -0x1.22b62bb2c4ba4p+0},
    {18, 3, 1000, -0x1.22b62bb2c4ba6p+0},
    {18, 3, 262144, -0x1.22b62bb2c4b82p+0},
    {18, 4, 0, -0x1.22b62bb2c4babp+0},
    {18, 4, 1, -0x1.22b62bb2c4ba1p+0},
    {18, 4, 64, -0x1.22b62bb2c4ba4p+0},
    {18, 4, 1000, -0x1.22b62bb2c4ba6p+0},
    {18, 4, 262144, -0x1.22b62bb2c4b82p+0},
};

TEST(PolynomialPin, StreamResultsAreBitIdentical) {
  for (unsigned log2n : {12u, 16u, 18u}) {
    const auto c = coefficients(std::size_t{1} << log2n);
    for (unsigned workers = 1; workers <= 4; ++workers) {
      ForkJoinPool pool(workers);
      for (const Pin& p : kPins) {
        if (p.log2n != log2n || p.workers != workers) continue;
        pls::streams::ExecutionConfig cfg;
        cfg.with_pool(pool).with_min_chunk(p.min_chunk);
        EXPECT_EQ(evaluate_polynomial_stream(c, kX, true, cfg), p.value)
            << "n=2^" << log2n << " workers=" << workers
            << " min_chunk=" << p.min_chunk;
      }
    }
  }
  EXPECT_EQ(evaluate_polynomial_stream(coefficients(1 << 12), kX, false),
            0x1.f886f578bc30cp-5);
  EXPECT_EQ(evaluate_polynomial_stream(coefficients(1 << 16), kX, false),
            0x1.be7ac1543f143p+0);
  EXPECT_EQ(evaluate_polynomial_stream(coefficients(1 << 18), kX, false),
            -0x1.22b62bb2c4b82p+0);
}

TEST(PolynomialPin, ScheduleSweepIsBitIdentical) {
  const auto c = coefficients(1 << 12);
  struct Grain {
    std::uint64_t min_chunk;
    double value;
  };
  for (const Grain g : {Grain{0, 0x1.f886f578bc28p-5},
                        Grain{64, 0x1.f886f578bc7p-5},
                        Grain{1000, 0x1.f886f578bc62p-5}}) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      pls::proptest::DeterministicPool det(seed);
      pls::streams::ExecutionConfig cfg;
      cfg.with_pool(det.pool()).with_min_chunk(g.min_chunk);
      EXPECT_EQ(evaluate_polynomial_stream(c, kX, true, cfg), g.value)
          << "seed " << seed << " min_chunk=" << g.min_chunk;
    }
  }
}

// to_power_array_zip over a zip-split source with a map stage: the
// destination-passing collect and the supplier/zip_all collect both
// rebuild exactly what the sequential run does.
TEST(PolynomialPin, ZipCollectsMatchSequential) {
  constexpr std::size_t kN = std::size_t{1} << 12;
  auto data = std::make_shared<std::vector<std::int64_t>>(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    (*data)[i] = static_cast<std::int64_t>((i * 7919) % 10007);
  }
  const std::shared_ptr<const std::vector<std::int64_t>> shared = data;
  const auto collect = [&](bool parallel, pls::streams::ExecutionConfig cfg) {
    return pls::streams::stream_support::from_spliterator<std::int64_t>(
               std::make_unique<pls::powerlist::ZipSpliterator<std::int64_t>>(
                   shared),
               parallel)
        .with_config(cfg)
        .map([](std::int64_t v) { return 3 * v - 1; })
        .collect(pls::powerlist::to_power_array_zip<std::int64_t>());
  };
  const auto want = collect(false, {});
  ASSERT_EQ(want.values().size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(want.values()[i], 3 * (*data)[i] - 1) << "position " << i;
  }
  for (const bool dps : {true, false}) {
    for (unsigned workers = 1; workers <= 4; ++workers) {
      ForkJoinPool pool(workers);
      for (const std::uint64_t min_chunk : {0ull, 1ull, 64ull, 1000ull,
                                            static_cast<unsigned long long>(
                                                kN)}) {
        pls::streams::ExecutionConfig cfg;
        cfg.with_pool(pool).with_min_chunk(min_chunk).with_sized_sink(dps);
        EXPECT_EQ(collect(true, cfg), want)
            << (dps ? "dps" : "supplier/combiner") << " workers=" << workers
            << " min_chunk=" << min_chunk;
        EXPECT_EQ(pls::streams::last_plan().dps, dps);
      }
    }
  }
}

// Zip leaves of an element type the lockstep gather does not copy
// (std::string is not trivially copyable) drain one after another
// through the buffered transport. Reduced in encounter order, they must
// concatenate exactly as the same tree over `long` indices does, whose
// leaves go through the lockstep gather.
TEST(PolynomialPin, NonTrivialZipLeavesMatchGatheredLeaves) {
  constexpr std::size_t kN = std::size_t{1} << 10;
  auto indices = std::make_shared<std::vector<long>>(kN);
  auto names = std::make_shared<std::vector<std::string>>(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    (*indices)[i] = static_cast<long>(i);
    (*names)[i] = std::to_string(i);
  }
  const std::shared_ptr<const std::vector<long>> shared_indices = indices;
  const std::shared_ptr<const std::vector<std::string>> shared_names = names;
  using pls::streams::stream_support::from_spliterator;
  for (unsigned workers = 1; workers <= 4; ++workers) {
    ForkJoinPool pool(workers);
    for (const std::uint64_t min_chunk : {0ull, 1ull, 64ull, 1000ull}) {
      pls::streams::ExecutionConfig cfg;
      cfg.with_pool(pool).with_min_chunk(min_chunk);
      const std::string gathered =
          from_spliterator<long>(
              std::make_unique<pls::powerlist::ZipSpliterator<long>>(
                  shared_indices),
              true)
              .with_config(cfg)
              .map([](long v) { return std::to_string(v) + ","; })
              .reduce(std::string{}, std::plus<std::string>{});
      EXPECT_TRUE(pls::streams::last_plan().batches_leaves());
      const std::string in_turn =
          from_spliterator<std::string>(
              std::make_unique<pls::powerlist::ZipSpliterator<std::string>>(
                  shared_names),
              true)
              .with_config(cfg)
              .map([](const std::string& s) { return s + ","; })
              .reduce(std::string{}, std::plus<std::string>{});
      EXPECT_TRUE(pls::streams::last_plan().batches_leaves());
      EXPECT_EQ(in_turn, gathered)
          << "workers=" << workers << " min_chunk=" << min_chunk;
    }
  }
}

}  // namespace
