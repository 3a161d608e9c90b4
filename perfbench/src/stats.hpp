// Sample summaries for the benchmark's reported timings.
//
// Percentile rule: a tail percentile is reported only as high as the
// sample supports — the highest rank that still has at least
// kMinTailSamples samples beyond it — and always together with the sample
// count and the quantile actually reported. A run with 200 operations
// therefore reports "p99" as p95 (10 samples above it), never as the
// second-largest sample.
//
// Run summaries are medians over time slices: the run is cut into
// kSlices slices of equal duration, each slice is summarised on its own,
// and the median of the slice results is reported. A stall of the host
// inflates the slice it falls in, not the reported figure.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// One reported order statistic: the value, the quantile it really is,
/// and how many samples it was taken from.
struct Quantile {
  double value = 0.0;
  double q = 0.0;
  std::size_t samples = 0;
};

/// 0-based rank reported for quantile `q` of `n` sorted samples.
/// Nearest-rank (ceil(q*n) - 1); for tail quantiles (q > 0.5) capped so
/// that at least kMinTailSamples samples lie above it, but never below
/// the median's rank.
inline std::size_t supported_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  const auto nearest = [n](double p) {
    const double r = std::ceil(p * static_cast<double>(n)) - 1.0;
    return r <= 0.0 ? std::size_t{0}
                    : std::min(static_cast<std::size_t>(r), n - 1);
  };
  const std::size_t median = nearest(0.5);
  std::size_t rank = nearest(q);
  if (q > 0.5) {
    const std::size_t cap =
        n > kMinTailSamples ? n - 1 - kMinTailSamples : std::size_t{0};
    rank = std::max(median, std::min(rank, cap));
  }
  return rank;
}

/// Quantile of `samples` under the percentile rule (sorts a copy).
inline Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = supported_rank(q, samples.size());
  out.value = samples[rank];
  out.q = static_cast<double>(rank + 1) / static_cast<double>(samples.size());
  return out;
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5).value;
}

/// One observation and when it was made.
struct Timed {
  std::int64_t t_ns = 0;
  double value = 0.0;
};

inline constexpr std::size_t kSlices = 5;

/// The values of `samples`, cut into kSlices slices of equal duration
/// between the first and the last observation.
inline std::vector<std::vector<double>> time_slices(
    const std::vector<Timed>& samples) {
  std::vector<std::vector<double>> out(kSlices);
  if (samples.empty()) return out;
  std::int64_t lo = samples.front().t_ns;
  std::int64_t hi = lo;
  for (const Timed& s : samples) {
    lo = std::min(lo, s.t_ns);
    hi = std::max(hi, s.t_ns);
  }
  const double span = static_cast<double>(hi - lo) + 1.0;
  for (const Timed& s : samples) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(s.t_ns - lo) / span * static_cast<double>(kSlices));
    out[std::min(k, kSlices - 1)].push_back(s.value);
  }
  return out;
}

/// Median over time slices of each slice's quantile `q` (percentile rule
/// per slice). `q` of the result is the lowest quantile a slice reported;
/// `samples` counts all observations.
inline Quantile sliced_quantile(const std::vector<Timed>& samples, double q) {
  std::vector<double> values;
  Quantile out;
  out.q = 1.0;
  for (const auto& slice : time_slices(samples)) {
    if (slice.empty()) continue;
    const Quantile s = quantile(slice, q);
    values.push_back(s.value);
    out.q = std::min(out.q, s.q);
  }
  out.value = median(values);
  out.samples = samples.size();
  if (values.empty()) out.q = 0.0;
  return out;
}

/// Median over time slices of each slice's mean.
inline double sliced_mean(const std::vector<Timed>& samples) {
  std::vector<double> means;
  for (const auto& slice : time_slices(samples)) {
    if (slice.empty()) continue;
    double s = 0.0;
    for (const double v : slice) s += v;
    means.push_back(s / static_cast<double>(slice.size()));
  }
  return median(means);
}

}  // namespace perfbench
