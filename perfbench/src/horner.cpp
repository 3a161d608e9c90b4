// Workload `horner`: the paper's polynomial evaluation, closed loop by one
// caller. Each operation is one
//   powerlist::evaluate_polynomial_stream(coeffs, x, /*parallel=*/true, cfg)
// on a ForkJoinPool of nproc workers, over 2^kLog2N seeded coefficients,
// with the point x cycling through kPoints values (never the same x twice
// in a row). Outputs are checked against a long-double Horner per x.
//
// Traced, it adds the layer probes: the raw SIMD kernel, an in-process
// triad bandwidth roof at the same working-set size, the sequential path
// and the parallel path on 1, 2 and 4 workers, and the simulator's
// predicted makespan at P=2 and P=4 against the measured one.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "forkjoin/parallel.hpp"
#include "powerlist/collector_functions.hpp"
#include "simmachine/costmodel.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"
#include "support/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// 2^22, not ROADMAP item 2's 2^24: at 2^24 (128 MiB) the parallel path's
// median latency ranged 50-85 ms between processes on the reference host,
// a spread wider than any bound the benchmark could set (README.md).
constexpr unsigned kLog2N = 22;
constexpr std::size_t kPoints = 64;     // distinct x values per run
constexpr std::size_t kWarmPoint = kPoints / 2;  // |x| = 0.75
constexpr std::size_t kRefBlock = 8;    // x values per reference pass
constexpr int kProbeReps = 3;

using Pool = pls::forkjoin::ForkJoinPool;

/// Probe repetition `rep` evaluates at a point from the middle of one of
/// kProbeReps equal slices of the |x| range.
std::size_t probe_point(int rep) {
  return (2 * static_cast<std::size_t>(rep) + 1) * kPoints / (2 * kProbeReps);
}

struct Inputs {
  std::shared_ptr<const std::vector<double>> coeffs;
  std::vector<double> xs;
  std::vector<long double> ref;  ///< p(x) per point
  std::vector<long double> mag;  ///< sum |c_i| |x|^(n-1-i) per point
};

Inputs make_inputs(std::uint64_t seed, std::size_t n) {
  Rng rng(derive_seed(seed, "horner"));
  auto coeffs = std::make_shared<std::vector<double>>(n);
  for (double& c : *coeffs) c = rng.uniform(-1.0, 1.0);
  Inputs in;
  in.coeffs = std::move(coeffs);
  // |x| at the midpoints of kPoints equal strata of [0.5, 1) (no overflow
  // at any degree), with seeded signs: every seed evaluates the same
  // magnitudes, because the library's cost per evaluation depends on |x|
  // (subnormal powers; README.md).
  for (std::size_t k = 0; k < kPoints; ++k) {
    const double mag = 0.5 + 0.5 * (static_cast<double>(k) + 0.5) / kPoints;
    in.xs.push_back(rng.next() & 1 ? mag : -mag);
  }
  return in;
}

/// Long-double Horner for the points of blocks [first, last) of kRefBlock
/// points, one pass over the coefficients per block, blocks spread over
/// the pool.
void compute_reference(Pool& pool, Inputs& in, std::size_t first,
                       std::size_t last) {
  const std::vector<double>& c = *in.coeffs;
  in.ref.resize(kPoints, 0.0L);
  in.mag.resize(kPoints, 0.0L);
  pls::forkjoin::parallel_for(
      pool, first, last, std::size_t{1},
      [&](std::size_t block) {
        long double acc[kRefBlock] = {};
        long double mag[kRefBlock] = {};
        long double x[kRefBlock];
        long double ax[kRefBlock];
        for (std::size_t j = 0; j < kRefBlock; ++j) {
          x[j] = in.xs[block * kRefBlock + j];
          ax[j] = std::fabs(x[j]);
        }
        for (const double ci : c) {
          const long double lc = ci;
          const long double la = std::fabs(lc);
          for (std::size_t j = 0; j < kRefBlock; ++j) {
            acc[j] = acc[j] * x[j] + lc;
            mag[j] = mag[j] * ax[j] + la;
          }
        }
        for (std::size_t j = 0; j < kRefBlock; ++j) {
          in.ref[block * kRefBlock + j] = acc[j];
          in.mag[block * kRefBlock + j] = mag[j];
        }
      });
}

/// Tolerance: 8 n u * sum |c_i x^k|, a multiple of the classical Horner
/// bound gamma_2n that also covers the re-associated SIMD lanes and the
/// zip-form recombination (one pow and one multiply-add per level).
bool matches(const Inputs& in, std::size_t point, double got) {
  const long double n = static_cast<long double>(in.coeffs->size());
  const long double tol = 8.0L * n * 0x1.0p-53L * in.mag[point];
  return std::isfinite(got) &&
         std::fabs(static_cast<long double>(got) - in.ref[point]) <= tol;
}

double evaluate(const Inputs& in, std::size_t point, bool parallel,
                pls::streams::ExecutionConfig cfg) {
  return pls::powerlist::evaluate_polynomial_stream(in.coeffs, in.xs[point],
                                                    parallel, cfg);
}

/// The stream's split tree as a simulator trace: uniform binary splitting
/// down to the default n / (4P) target; a leaf costs one multiply-add per
/// coefficient, a split and a combine a few operations.
pls::simmachine::TaskTrace collect_trace(std::size_t n, unsigned p) {
  const std::size_t target = std::max<std::size_t>(1, n / (4ull * p));
  unsigned levels = 0;
  for (std::size_t chunk = n; chunk > target && chunk % 2 == 0; chunk /= 2) {
    ++levels;
  }
  return pls::simmachine::TaskTrace::balanced(
      levels, n, [](std::size_t len) { return 2.0 * static_cast<double>(len); },
      [](std::size_t) { return 4.0; }, [](std::size_t) { return 8.0; });
}

/// In-process STREAM triad a = b + s*c over the pool, three arrays that
/// together span `bytes`; returns GB/s (24 bytes moved per element).
double triad_gbs(Pool& pool, std::size_t bytes, Tracer& tracer,
                 std::uint32_t span) {
  const std::size_t m = bytes / (3 * sizeof(double));
  std::vector<double> a(m, 0.0), b(m, 1.0), c(m, 2.0);
  const std::size_t grain =
      std::max<std::size_t>(1, m / (8 * pool.parallelism()));
  std::vector<double> gbs;
  for (int rep = 0; rep < kProbeReps + 1; ++rep) {
    const auto s = tracer.span(span, m);
    const std::int64_t t0 = now_ns();
    pls::forkjoin::parallel_for(
        pool, std::size_t{0}, m, grain,
        [&](std::size_t i) { a[i] = b[i] + 3.0 * c[i]; });
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    if (rep > 0) gbs.push_back(24.0 * static_cast<double>(m) / secs / 1e9);
  }
  return median(gbs);
}

}  // namespace

Outcome run_horner(Context& ctx) {
  const std::size_t n = std::size_t{1} << kLog2N;
  Outcome out;
  Inputs in = make_inputs(ctx.args.seed, n);
  Tracer& tracer = ctx.tracer;
  const auto span_eval = tracer.name("evaluate_polynomial_stream");

  // Set-up: pool start and the first (warm-up) evaluation.
  const std::int64_t t0 = now_ns();
  std::optional<Pool> pool(std::in_place, ctx.nproc);
  const auto cfg = pls::streams::ExecutionConfig{}.with_pool(*pool);
  const double warm = evaluate(in, kWarmPoint, true, cfg);
  ctx.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  check_threads(out, ctx.nproc, /*parked=*/1);
  ++out.attempted;
  if (ctx.args.setup_only) {  // the warm-up point's reference suffices
    compute_reference(*pool, in, kWarmPoint / kRefBlock,
                      kWarmPoint / kRefBlock + 1);
    if (!matches(in, kWarmPoint, warm)) ++out.failed;
    ctx.end_to_end.add("setup_s", ctx.setup_s.back(), "s", 1);
    return out;
  }
  compute_reference(*pool, in, 0, kPoints / kRefBlock);
  if (!matches(in, kWarmPoint, warm)) ++out.failed;

  // Closed loop.
  GenericLayer g;
  double got = 0.0;
  auto run = [&](std::uint64_t op) {
    const auto s = tracer.span(span_eval, n);
    const std::int64_t start = now_ns();
    got = evaluate(in, op % kPoints, true, cfg);
    return std::make_pair(start, now_ns());
  };
  auto check = [&](std::uint64_t op) {
    return matches(in, op % kPoints, got);
  };
  const std::vector<Timed> latency_ms =
      run_closed_loop(ctx, *pool, g, out, run, check);
  g.terminals = g.ops;

  if (!ctx.args.trace) {
    report_end_to_end(ctx.end_to_end,
                      closed_loop_melem_s(static_cast<double>(n), latency_ms),
                      g.ops, latency_ms, ctx.setup_s, out);
    return out;
  }
  if (ctx.selected) {
    sample_utilization(ctx, *pool, g, out, run, check);
    report_generic(ctx.per_layer, g, out);
  }

  // ---- layer probes (traced runs only) ----
  Report& r = ctx.per_layer;
  tracer.set_enabled(true);
  const double dn = static_cast<double>(n);
  auto per_elem = [&](std::uint32_t span) {
    return median(tracer.durations_ns(span)) / dn;
  };

  const auto span_kernel = tracer.name("simd::horner_chunk");
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto s = tracer.span(span_kernel, n);
    const std::size_t point = probe_point(rep);
    const double got = pls::simd::horner_chunk(
        0.0, in.xs[point], in.coeffs->data(), in.coeffs->size());
    ++out.attempted;
    if (!matches(in, point, got)) ++out.failed;
  }
  r.add("support.horner_kernel_ns", per_elem(span_kernel), "ns/elem",
        kProbeReps);

  // seq, then the parallel path on 1, 2, 4 (and nproc) workers.
  const auto span_seq =
      tracer.name("evaluate_polynomial_stream.seq");
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto s = tracer.span(span_seq, n);
    const std::size_t point = probe_point(rep);
    const double got = evaluate(in, point, false, cfg);
    ++out.attempted;
    if (!matches(in, point, got)) ++out.failed;
  }
  const double seq_ns = per_elem(span_seq);
  pool.reset();  // the parallel probes size their own pools

  std::vector<unsigned> sizes = {1, 2, 4};
  if (std::find(sizes.begin(), sizes.end(), ctx.nproc) == sizes.end()) {
    sizes.push_back(ctx.nproc);
  }
  std::vector<double> par_ns(sizes.size());
  double triad = 0.0;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    Pool p(sizes[k]);
    check_threads(out, ctx.nproc, 1);
    const auto span_par = tracer.name(
        "evaluate_polynomial_stream.par" + std::to_string(sizes[k]));
    const auto pcfg = pls::streams::ExecutionConfig{}.with_pool(p);
    (void)evaluate(in, kWarmPoint, true, pcfg);  // warm the pool
    for (int rep = 0; rep < kProbeReps; ++rep) {
      const auto s = tracer.span(span_par, n);
      const std::size_t point = probe_point(rep);
      const double got = evaluate(in, point, true, pcfg);
      ++out.attempted;
      if (!matches(in, point, got)) ++out.failed;
    }
    par_ns[k] = per_elem(span_par);
    if (sizes[k] == ctx.nproc) {
      triad = triad_gbs(p, n * sizeof(double), tracer,
                        tracer.name("triad"));
    }
  }
  tracer.set_enabled(false);
  auto par_at = [&](unsigned p) {
    return par_ns[static_cast<std::size_t>(
        std::find(sizes.begin(), sizes.end(), p) - sizes.begin())];
  };

  r.add("roof.triad_gbs", triad, "GB/s", kProbeReps);
  r.add("powerlist.seq_ns", seq_ns, "ns/elem", kProbeReps);
  r.add("powerlist.par1_ns", par_at(1), "ns/elem", kProbeReps);
  r.add("powerlist.par2_ns", par_at(2), "ns/elem", kProbeReps);
  r.add("powerlist.par4_ns", par_at(4), "ns/elem", kProbeReps);
  r.add("powerlist.work_inflation", par_at(1) / seq_ns, "ratio", kProbeReps);
  // Coefficient bytes streamed per second at P=nproc over the triad roof.
  r.add("powerlist.roof_frac", (8.0 / par_at(ctx.nproc)) / triad, "ratio",
        kProbeReps);

  // The simulator calibrated on the measured P=1 run, predicting P=2, 4:
  // relative error |predicted / measured - 1| of the makespan.
  auto prediction_error = [&](unsigned p) {
    const auto model = pls::simmachine::CostModel::calibrated(
        par_at(1) * dn, 2.0 * dn);
    const double predicted = pls::simmachine::Simulator(model, p)
                                 .run(collect_trace(n, p))
                                 .makespan_ns;
    return std::fabs(predicted / (par_at(p) * dn) - 1.0);
  };
  r.add("simmachine.pred_err_p2", prediction_error(2), "ratio", kProbeReps);
  r.add("simmachine.pred_err_p4", prediction_error(4), "ratio", kProbeReps);
  return out;
}

}  // namespace perfbench
