// Workload `pipeline`: closed loop by one caller over a 2^kLog2N-double array.
// One operation is one round of a fixed mix run through Stream:
//   map_chain_seq    the dynamic 4-map chain with reduce, sequential
//   map_chain_par    the same chain, .parallel()
//   static_chain_par the same four maps through .stages(...), parallel
//   flat_map_par     fan-out-8 flat_map, then 4 maps and reduce, parallel
//   collect_par      the 4-map chain with to_vector (the DPS collect)
// Sums are checked against plain loops within a rounding bound, the
// collected vector element by element.
//
// Traced, each call is a span (per-operation-type timings) and the probe
// times the 4-map chain as a plain loop (the handwritten baseline).
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "streams/static_fusion.hpp"
#include "streams/stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// 2^20: at 2^22 the round's median ranged 148-182 ms between runs on the
// reference host (each round maps a fresh 32 MiB to_vector result).
constexpr unsigned kLog2N = 20;
constexpr std::size_t kFan = 8;
constexpr int kProbeReps = 5;
constexpr int kCalls = 5;  // stream terminals per round

using Pool = pls::forkjoin::ForkJoinPool;
using pls::streams::Stream;

// The 4-map chain, and the 4 maps after the fan-out.
inline double f1(double v) { return v * 1.0000001; }
inline double f2(double v) { return v + 0.25; }
inline double f3(double v) { return v * v; }
inline double f4(double v) { return v - 0.125; }
inline double chain(double v) { return f4(f3(f2(f1(v)))); }

inline double g1(double v) { return v * 1.0000001; }
inline double g2(double v) { return v + 0.0625; }
inline double g3(double v) { return v * 0.9999999; }
inline double g4(double v) { return v - 0.125; }

inline std::vector<double> fan_out(double v) {
  return {v, v * 0.5, v + 0.25, v * v, v - 0.125, v * 2.0, v + 1.0, v * -0.75};
}

struct Inputs {
  std::shared_ptr<const std::vector<double>> data;
  std::vector<double> chain_out;  ///< chain(v) for every v
  long double chain_sum = 0, chain_abs = 0;
  long double flat_sum = 0, flat_abs = 0;
};

Inputs make_inputs(std::uint64_t seed, std::size_t n) {
  Rng rng(derive_seed(seed, "pipeline"));
  auto data = std::make_shared<std::vector<double>>(n);
  for (double& v : *data) v = rng.uniform(-1.0, 1.0);
  Inputs in;
  in.data = std::move(data);
  in.chain_out.reserve(n);
  for (const double v : *in.data) {
    const double c = chain(v);
    in.chain_out.push_back(c);
    in.chain_sum += c;
    in.chain_abs += std::fabs(c);
    for (const double e : fan_out(v)) {
      const double f = g4(g3(g2(g1(e))));
      in.flat_sum += f;
      in.flat_abs += std::fabs(f);
    }
  }
  return in;
}

/// A sum of `terms` doubles in any association is within (terms-1) u of
/// the sum of magnitudes; allow twice that.
bool sum_matches(double got, long double ref, long double abs,
                 std::size_t terms) {
  const long double tol =
      2.0L * static_cast<long double>(terms) * 0x1.0p-53L * abs;
  return std::isfinite(got) && std::fabs(got - ref) <= tol;
}

struct Spans {
  std::uint32_t seq, par, stat, flat, collect;
};

bool collect_matches(const Inputs& in, const std::vector<double>& got) {
  return got.size() == in.chain_out.size() &&
         std::memcmp(got.data(), in.chain_out.data(),
                     got.size() * sizeof(double)) == 0;
}

/// One mix round; returns true when the four sums are correct and leaves
/// the collected vector in `collected` for the caller to check.
bool run_round(const Inputs& in, const pls::streams::ExecutionConfig& cfg,
               Tracer& tracer, const Spans& sp,
               std::vector<double>& collected) {
  namespace st = pls::streams::stages;
  const std::size_t n = in.data->size();
  auto plus = [](double a, double b) { return a + b; };
  bool ok = true;
  {
    const auto s = tracer.span(sp.seq, n);
    const double r = Stream<double>::of_shared(in.data)
                         .with_config(cfg)
                         .map([](const double& v) { return f1(v); })
                         .map([](const double& v) { return f2(v); })
                         .map([](const double& v) { return f3(v); })
                         .map([](const double& v) { return f4(v); })
                         .reduce(0.0, plus);
    ok &= sum_matches(r, in.chain_sum, in.chain_abs, n);
  }
  {
    const auto s = tracer.span(sp.par, n);
    const double r = Stream<double>::of_shared(in.data)
                         .parallel(cfg)
                         .map([](const double& v) { return f1(v); })
                         .map([](const double& v) { return f2(v); })
                         .map([](const double& v) { return f3(v); })
                         .map([](const double& v) { return f4(v); })
                         .reduce(0.0, plus);
    ok &= sum_matches(r, in.chain_sum, in.chain_abs, n);
  }
  {
    const auto s = tracer.span(sp.stat, n);
    const double r = Stream<double>::of_shared(in.data)
                         .parallel(cfg)
                         .stages(st::map([](double v) { return f1(v); }),
                                 st::map([](double v) { return f2(v); }),
                                 st::map([](double v) { return f3(v); }),
                                 st::map([](double v) { return f4(v); }))
                         .reduce(0.0, plus);
    ok &= sum_matches(r, in.chain_sum, in.chain_abs, n);
  }
  {
    const auto s = tracer.span(sp.flat, n);
    const double r = Stream<double>::of_shared(in.data)
                         .parallel(cfg)
                         .flat_map([](const double& v) { return fan_out(v); })
                         .map([](const double& v) { return g1(v); })
                         .map([](const double& v) { return g2(v); })
                         .map([](const double& v) { return g3(v); })
                         .map([](const double& v) { return g4(v); })
                         .reduce(0.0, plus);
    ok &= sum_matches(r, in.flat_sum, in.flat_abs, n * kFan);
  }
  {
    const auto s = tracer.span(sp.collect, n);
    collected = Stream<double>::of_shared(in.data)
              .parallel(cfg)
              .map([](const double& v) { return f1(v); })
              .map([](const double& v) { return f2(v); })
              .map([](const double& v) { return f3(v); })
              .map([](const double& v) { return f4(v); })
              .to_vector();
  }
  return ok;
}

}  // namespace

Outcome run_pipeline(Context& ctx) {
  const std::size_t n = std::size_t{1} << kLog2N;
  Outcome out;
  const Inputs in = make_inputs(ctx.args.seed, n);
  Tracer& tracer = ctx.tracer;
  const Spans sp{tracer.name("map_chain_seq"), tracer.name("map_chain_par"),
                 tracer.name("static_chain_par"), tracer.name("flat_map_par"),
                 tracer.name("collect_par")};

  // Set-up: pool start and the first (warm-up) round.
  std::vector<double> collected;
  const std::int64_t t0 = now_ns();
  Pool pool(ctx.nproc);
  const auto cfg = pls::streams::ExecutionConfig{}.with_pool(pool);
  const bool warm_ok = run_round(in, cfg, tracer, sp, collected);
  ctx.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  check_threads(out, ctx.nproc, /*parked=*/1);
  ++out.attempted;
  if (!warm_ok || !collect_matches(in, collected)) ++out.failed;
  if (ctx.args.setup_only) {
    ctx.end_to_end.add("setup_s", ctx.setup_s.back(), "s", 1);
    return out;
  }

  // Closed loop.
  GenericLayer g;
  bool sums_ok = false;
  auto run = [&](std::uint64_t) {
    const std::int64_t start = now_ns();
    sums_ok = run_round(in, cfg, tracer, sp, collected);
    return std::make_pair(start, now_ns());
  };
  auto check = [&](std::uint64_t) {
    return sums_ok && collect_matches(in, collected);
  };
  const std::vector<Timed> latency_ms =
      run_closed_loop(ctx, pool, g, out, run, check);
  g.terminals = g.ops * kCalls;

  if (!ctx.args.trace) {
    report_end_to_end(ctx.end_to_end,
                      closed_loop_melem_s(static_cast<double>(kCalls * n),
                                          latency_ms),
                      g.ops, latency_ms, ctx.setup_s, out);
    return out;
  }
  if (ctx.selected) {
    sample_utilization(ctx, pool, g, out, run, check);
    report_generic(ctx.per_layer, g, out);
  }

  // ---- layer probe: the same 4-map chain as a plain loop ----
  Report& r = ctx.per_layer;
  tracer.set_enabled(true);
  const auto span_hand = tracer.name("handwritten_loop");
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto s = tracer.span(span_hand, n);
    double acc = 0.0;
    for (const double v : *in.data) acc += chain(v);
    ++out.attempted;
    if (!sum_matches(acc, in.chain_sum, in.chain_abs, n)) ++out.failed;
  }
  tracer.set_enabled(false);

  const double hand = tracer.median_per_item_ns(span_hand);
  const double seq = tracer.median_per_item_ns(sp.seq);
  r.add("support.handwritten_ns", hand, "ns/elem", kProbeReps);
  r.add("streams.map_chain_seq_ns", seq, "ns/elem", g.ops);
  r.add("streams.map_chain_par_ns", tracer.median_per_item_ns(sp.par),
        "ns/elem", g.ops);
  r.add("streams.static_chain_par_ns", tracer.median_per_item_ns(sp.stat),
        "ns/elem", g.ops);
  r.add("streams.flat_map_par_ns", tracer.median_per_item_ns(sp.flat),
        "ns/elem", g.ops);
  r.add("streams.collect_par_ns", tracer.median_per_item_ns(sp.collect),
        "ns/elem", g.ops);
  r.add("streams.abstraction_ratio", hand > 0.0 ? seq / hand : 0.0, "ratio",
        g.ops);
  return out;
}

}  // namespace perfbench
