// Portable SIMD chunk kernels for the arithmetic hot loops.
//
// No intrinsics: every kernel is a fixed-width *blocked* scalar loop whose
// lanes are independent, annotated with PLS_PRAGMA_SIMD so the compiler's
// vectorizer turns the block into vector instructions on any target (and
// degrades to plain scalar code on targets without one). Block width is
// chosen from kSimdBytes / sizeof(T) — one cache-friendly vector register's
// worth of lanes.
//
// Numerical contract:
//  - Integer types: bit-exact. +, * over two's-complement / modular
//    arithmetic are associative and commutative, so re-blocking a fold
//    computes the identical value (tests/support/simd_test.cpp checks
//    against the scalar references exhaustively).
//  - Floating point: re-association changes rounding, so results are
//    ULP-bounded relative to the scalar fold, not bit-identical (the
//    proptest suite bounds the relative error; docs/execution.md states
//    the admission rule: kernels are only selected where the surrounding
//    collector declared its accumulator associative).
#pragma once

#include <complex>
#include <cstddef>
#include <functional>
#include <type_traits>

// Vectorization hint for a loop whose iterations are independent. Order of
// preference: OpenMP SIMD (when compiled with -fopenmp/-fopenmp-simd),
// clang's loop pragma, GCC's ivdep assertion, nothing.
#if defined(_OPENMP)
#define PLS_PRAGMA_SIMD _Pragma("omp simd")
#elif defined(__clang__)
#define PLS_PRAGMA_SIMD _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define PLS_PRAGMA_SIMD _Pragma("GCC ivdep")
#else
#define PLS_PRAGMA_SIMD
#endif

namespace pls::simd {

/// Nominal vector register width the blocked kernels target. 32 bytes
/// (AVX2-sized) is a good default even on 16-byte targets: the wider block
/// just unrolls 2x.
inline constexpr std::size_t kSimdBytes = 32;

/// Lanes of T per block.
template <typename T>
inline constexpr std::size_t lanes_v =
    kSimdBytes / sizeof(T) > 1 ? kSimdBytes / sizeof(T) : 1;

/// Element types the kernels accept (the "element type is arithmetic" half
/// of the kernel admission rule; the other half — accumulator
/// associativity — is the call site's responsibility).
template <typename T>
inline constexpr bool kernel_eligible_v = std::is_arithmetic_v<T>;

// ---- operator identification ----------------------------------------
//
// Generic algorithms (scan, reduce) take an arbitrary Op; the kernels only
// apply when the op is known-associative addition. simd::Plus is the
// opt-in tag functor; std::plus is recognised too.

struct Plus {
  template <typename T>
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a + b);
  }
};

template <typename Op>
struct is_plus : std::false_type {};
template <>
struct is_plus<Plus> : std::true_type {};
template <typename T>
struct is_plus<std::plus<T>> : std::true_type {};

template <typename Op>
inline constexpr bool is_plus_v = is_plus<std::remove_cvref_t<Op>>::value;

// ---- Horner polynomial evaluation ------------------------------------

/// Scalar reference: acc := acc * x + c[i] over the chunk, the exact
/// per-element step of PolynomialValueCollector::accumulate.
template <typename T>
constexpr T horner_chunk_scalar(T acc, T x, const T* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc = static_cast<T>(acc * x + c[i]);
  return acc;
}

/// Blocked Horner: W independent lane accumulators advance in base x^W
/// (lane[j] := lane[j] * x^W + c[i+j]), then fold with weights x^(W-1-j).
/// Algebraically identical to the scalar fold (exact for integers,
/// re-associated for floating point). Falls back to the scalar loop for
/// short chunks, where the fold overhead would dominate.
template <typename T>
T horner_chunk(T acc, T x, const T* c, std::size_t n) {
  constexpr std::size_t W = lanes_v<T>;
  if constexpr (W < 4) {
    return horner_chunk_scalar(acc, x, c, n);
  } else {
    if (n < 4 * W) return horner_chunk_scalar(acc, x, c, n);
    T xw = x;
    for (std::size_t k = 1; k < W; ++k) xw = static_cast<T>(xw * x);
    T lane[W];
    PLS_PRAGMA_SIMD
    for (std::size_t j = 0; j < W; ++j) lane[j] = c[j];
    std::size_t i = W;
    for (; i + W <= n; i += W) {
      PLS_PRAGMA_SIMD
      for (std::size_t j = 0; j < W; ++j)
        lane[j] = static_cast<T>(lane[j] * xw + c[i + j]);
    }
    // x^(elements consumed by the blocked prefix) = xw^(i / W), by
    // repeated squaring after the loop. A running product inside the loop
    // decays into subnormals for |x| < 1 and then pays a subnormal
    // multiply on every block.
    T xpow = T{1};
    T base = xw;
    for (std::size_t e = i / W; e != 0; e >>= 1) {
      if (e & 1) xpow = static_cast<T>(xpow * base);
      if (e > 1) base = static_cast<T>(base * base);
    }
    T folded = lane[0];
    for (std::size_t j = 1; j < W; ++j)
      folded = static_cast<T>(folded * x + lane[j]);
    T res = static_cast<T>(acc * xpow + folded);
    for (; i < n; ++i) res = static_cast<T>(res * x + c[i]);
    return res;
  }
}

// ---- inclusive prefix scan (+) ---------------------------------------

/// Inclusive +-scan of in[0..n) into out[0..n) with an incoming carry
/// (out[i] = carry + in[0] + ... + in[i]); returns the carry-out. Blocks
/// of W lanes run log2(W) Hillis–Steele passes — every pass is a lane-
/// independent loop — then the running carry is broadcast-added. Exact for
/// integers, re-associated (ULP-bounded) for floating point. in == out
/// aliasing is allowed (each position is read before it is written).
template <typename T>
T inclusive_scan_add(const T* in, T* out, std::size_t n, T carry = T{}) {
  constexpr std::size_t W = lanes_v<T>;
  std::size_t i = 0;
  if constexpr (W >= 4) {
    T b[W];
    T t[W];
    for (; i + W <= n; i += W) {
      PLS_PRAGMA_SIMD
      for (std::size_t j = 0; j < W; ++j) b[j] = in[i + j];
      for (std::size_t step = 1; step < W; step <<= 1) {
        PLS_PRAGMA_SIMD
        for (std::size_t j = 0; j < W; ++j)
          t[j] = j >= step ? static_cast<T>(b[j] + b[j - step]) : b[j];
        PLS_PRAGMA_SIMD
        for (std::size_t j = 0; j < W; ++j) b[j] = t[j];
      }
      PLS_PRAGMA_SIMD
      for (std::size_t j = 0; j < W; ++j)
        out[i + j] = static_cast<T>(carry + b[j]);
      carry = out[i + W - 1];
    }
  }
  for (; i < n; ++i) {
    carry = static_cast<T>(carry + in[i]);
    out[i] = carry;
  }
  return carry;
}

/// Broadcast-add a carry into a chunk: p[i] := carry + p[i] (the Sklansky
/// combine's right-half update, carry-first to match op(carry, right[i])).
template <typename T>
void add_carry_chunk(T carry, T* p, std::size_t n) {
  PLS_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<T>(carry + p[i]);
}

// ---- FFT butterfly ---------------------------------------------------

/// One pointwise butterfly pass over n element pairs:
///   top[j] = p[j] + u[j] * q[j]
///   bot[j] = p[j] - u[j] * q[j]
/// Operates on the real/imaginary planes directly (std::complex<double>
/// guarantees array-oriented access) so the twiddle multiply and both
/// updates vectorize as one independent-iteration loop. In-place use is
/// allowed when top aliases p and bot aliases q elementwise (each index is
/// read before written); shifted overlap is not.
inline void butterfly_chunk(const std::complex<double>* p,
                            const std::complex<double>* q,
                            const std::complex<double>* u,
                            std::complex<double>* top,
                            std::complex<double>* bot, std::size_t n) {
  const double* pr = reinterpret_cast<const double*>(p);
  const double* qr = reinterpret_cast<const double*>(q);
  const double* ur = reinterpret_cast<const double*>(u);
  double* tr = reinterpret_cast<double*>(top);
  double* br = reinterpret_cast<double*>(bot);
  PLS_PRAGMA_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const double wr = ur[2 * j];
    const double wi = ur[2 * j + 1];
    const double cr = qr[2 * j];
    const double ci = qr[2 * j + 1];
    const double twr = wr * cr - wi * ci;
    const double twi = wr * ci + wi * cr;
    const double er = pr[2 * j];
    const double ei = pr[2 * j + 1];
    tr[2 * j] = er + twr;
    tr[2 * j + 1] = ei + twi;
    br[2 * j] = er - twr;
    br[2 * j + 1] = ei - twi;
  }
}

}  // namespace pls::simd
