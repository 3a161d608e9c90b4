// Kernel-level checks for the portable SIMD chunk kernels
// (support/simd.hpp): the blocked Horner fold, the blocked inclusive
// +-scan, the carry broadcast, and the FFT butterfly pass. Integer kernels
// must match the scalar references bit for bit (modular arithmetic is
// associative); floating-point kernels re-associate, so they are checked
// against the scalar fold within a tight relative bound, and against an
// exactness oracle on inputs where every intermediate is exactly
// representable.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <vector>

#include "support/simd.hpp"

namespace {

namespace simd = pls::simd;

// ---- Horner ----------------------------------------------------------

TEST(SimdHorner, IntegerMatchesScalarBitForBit) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = rng() % 300;
    std::vector<std::uint64_t> c(n);
    for (auto& v : c) v = rng();
    const std::uint64_t x = rng() | 1;  // odd, exercises full modular ring
    const std::uint64_t acc = rng();
    EXPECT_EQ(simd::horner_chunk(acc, x, c.data(), n),
              simd::horner_chunk_scalar(acc, x, c.data(), n))
        << "n=" << n << " iter=" << iter;
  }
}

TEST(SimdHorner, SmallIntegerExactValues) {
  // 3x^2 + 2x + 1 at x = 10, acc = 0: 321.
  const std::uint64_t c[] = {3, 2, 1};
  EXPECT_EQ(simd::horner_chunk_scalar<std::uint64_t>(0, 10, c, 3), 321u);
  EXPECT_EQ(simd::horner_chunk<std::uint64_t>(0, 10, c, 3), 321u);
  // Incoming accumulator is the high-order part: acc=5 prepends 5x^3.
  EXPECT_EQ(simd::horner_chunk<std::uint64_t>(5, 10, c, 3), 5321u);
}

TEST(SimdHorner, DoubleWithinRelativeBound) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coeff(-1.0, 1.0);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = 1 + rng() % 4096;
    std::vector<double> c(n);
    for (auto& v : c) v = coeff(rng);
    const double x = 0.9999993;  // the fig4 evaluation point regime
    const double acc = coeff(rng);
    const double blocked = simd::horner_chunk(acc, x, c.data(), n);
    const double scalar = simd::horner_chunk_scalar(acc, x, c.data(), n);
    const double scale = std::max({1.0, std::abs(scalar)});
    EXPECT_NEAR(blocked, scalar, 1e-10 * scale) << "n=" << n;
  }
  // |x| near 0.9 over long chunks: x^n underflows, the regime where a
  // running power of x^W used to sink into subnormals.
  for (const double x : {0.9, -0.9, 0.95, -0.95}) {
    for (int iter = 0; iter < 8; ++iter) {
      const std::size_t n = (std::size_t{1} << 14) + rng() % (1 << 14);
      std::vector<double> c(n);
      for (auto& v : c) v = coeff(rng);
      const double acc = coeff(rng);
      const double blocked = simd::horner_chunk(acc, x, c.data(), n);
      const double scalar = simd::horner_chunk_scalar(acc, x, c.data(), n);
      const double scale = std::max({1.0, std::abs(scalar)});
      EXPECT_NEAR(blocked, scalar, 1e-10 * scale) << "x=" << x << " n=" << n;
    }
  }
}

TEST(SimdHorner, DoubleExactWhenRepresentable) {
  // Small integers stored as doubles with x = 2: every intermediate is an
  // exact double, so re-association cannot change the value at all.
  std::mt19937_64 rng(11);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng() % 40;
    std::vector<double> c(n);
    for (auto& v : c) v = static_cast<double>(rng() % 3);
    const double blocked = simd::horner_chunk(0.0, 2.0, c.data(), n);
    const double scalar = simd::horner_chunk_scalar(0.0, 2.0, c.data(), n);
    EXPECT_EQ(blocked, scalar) << "n=" << n;
  }
}

TEST(SimdHorner, EmptyAndShortChunks) {
  const double c[] = {1.5, -2.5, 3.5};
  EXPECT_EQ(simd::horner_chunk(4.0, 0.5, c, 0), 4.0);
  for (std::size_t n = 1; n <= 3; ++n) {
    EXPECT_EQ(simd::horner_chunk(4.0, 0.5, c, n),
              simd::horner_chunk_scalar(4.0, 0.5, c, n));
  }
}

// ---- inclusive scan --------------------------------------------------

TEST(SimdScan, IntegerMatchesSerialBitForBit) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = rng() % 300;
    std::vector<std::uint64_t> in(n);
    for (auto& v : in) v = rng();
    const std::uint64_t carry_in = rng();

    std::vector<std::uint64_t> expected(n);
    std::uint64_t acc = carry_in;
    for (std::size_t i = 0; i < n; ++i) {
      acc += in[i];
      expected[i] = acc;
    }

    std::vector<std::uint64_t> out(n);
    const std::uint64_t carry_out =
        simd::inclusive_scan_add(in.data(), out.data(), n, carry_in);
    EXPECT_EQ(out, expected) << "n=" << n;
    EXPECT_EQ(carry_out, acc);
  }
}

TEST(SimdScan, InPlaceAliasingAllowed) {
  std::vector<std::int64_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<std::int64_t>(i) - 50;
  std::vector<std::int64_t> expected(v.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += v[i];
    expected[i] = acc;
  }
  simd::inclusive_scan_add(v.data(), v.data(), v.size());
  EXPECT_EQ(v, expected);
}

TEST(SimdScan, DoubleWithinRelativeBound) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng() % 2048;
    std::vector<double> in(n);
    for (auto& v : in) v = dist(rng);
    std::vector<double> out(n);
    simd::inclusive_scan_add(in.data(), out.data(), n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += in[i];
      EXPECT_NEAR(out[i], acc, 1e-11 * std::max(1.0, std::abs(acc)))
          << "i=" << i << " n=" << n;
    }
  }
}

TEST(SimdScan, AddCarryChunkMatchesLoop) {
  std::mt19937_64 rng(19);
  std::vector<std::uint64_t> v(173);
  for (auto& x : v) x = rng();
  std::vector<std::uint64_t> expected = v;
  const std::uint64_t carry = rng();
  for (auto& x : expected) x = carry + x;
  simd::add_carry_chunk(carry, v.data(), v.size());
  EXPECT_EQ(v, expected);
}

// ---- FFT butterfly ---------------------------------------------------

TEST(SimdButterfly, MatchesComplexArithmetic) {
  using C = std::complex<double>;
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = 1 + rng() % 257;
    std::vector<C> p(n), q(n), u(n), top(n), bot(n);
    for (std::size_t j = 0; j < n; ++j) {
      p[j] = {dist(rng), dist(rng)};
      q[j] = {dist(rng), dist(rng)};
      u[j] = {dist(rng), dist(rng)};
    }
    simd::butterfly_chunk(p.data(), q.data(), u.data(), top.data(),
                          bot.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const C t(u[j].real() * q[j].real() - u[j].imag() * q[j].imag(),
                u[j].real() * q[j].imag() + u[j].imag() * q[j].real());
      EXPECT_EQ(top[j], p[j] + t) << "j=" << j;
      EXPECT_EQ(bot[j], p[j] - t) << "j=" << j;
    }
  }
}

TEST(SimdButterfly, InPlaceElementwiseAliasing) {
  using C = std::complex<double>;
  std::vector<C> a = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  std::vector<C> u = {{1, 0}, {0, 1}};
  const std::vector<C> p = {a[0], a[1]};
  const std::vector<C> q = {a[2], a[3]};
  // top aliases the first half, bot the second: the fft_in_place pattern.
  simd::butterfly_chunk(&a[0], &a[2], u.data(), &a[0], &a[2], 2);
  for (std::size_t j = 0; j < 2; ++j) {
    const C t = u[j] * q[j];
    EXPECT_EQ(a[j], p[j] + t);
    EXPECT_EQ(a[j + 2], p[j] - t);
  }
}

// ---- operator identification -----------------------------------------

TEST(SimdTraits, PlusRecognition) {
  static_assert(simd::is_plus_v<simd::Plus>);
  static_assert(simd::is_plus_v<std::plus<int>>);
  static_assert(simd::is_plus_v<const simd::Plus&>);
  static_assert(!simd::is_plus_v<std::multiplies<int>>);
  auto lambda = [](int a, int b) { return a + b; };
  static_assert(!simd::is_plus_v<decltype(lambda)>);
  EXPECT_EQ(simd::Plus{}(3, 4), 7);
}

TEST(SimdTraits, Eligibility) {
  static_assert(simd::kernel_eligible_v<double>);
  static_assert(simd::kernel_eligible_v<std::int32_t>);
  static_assert(!simd::kernel_eligible_v<std::complex<double>>);
  static_assert(simd::lanes_v<double> >= 1);
  static_assert(simd::lanes_v<std::uint64_t> >= 1);
}

}  // namespace
