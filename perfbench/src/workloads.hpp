// The three workloads. Each generates its inputs from the seed, times its
// set-up, runs its loop for ctx.seconds and checks every output against a
// reference computed at set-up.
//
// Untraced (--trace 0), only the selected workload runs and fills the
// end-to-end report. Traced (--trace 1), every workload runs — the
// selected one for the full run length with traced and untraced
// operations interleaved and run the same way (their difference is the
// tracing overhead), the others briefly — and each fills its own
// per-layer metrics; the selected one also fills the workload-generic
// ones (forkjoin.*, observe.records_per_op, bench.*).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/metrics.hpp"
#include "observe/run_registry.hpp"

namespace perfbench {

struct Context {
  const Args& args;
  unsigned nproc = 1;
  Tracer& tracer;
  Report& end_to_end;
  Report& per_layer;
  bool selected = true;
  double seconds = 10.0;
  /// Set-up times (s) measured in fresh processes; the workload adds its
  /// own and reports the median as setup_s.
  std::vector<double> setup_s;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Busiest thread count seen: pool workers plus the benchmark's own
  /// working threads (generator/pump). A caller parked in pool.run() is
  /// not counted.
  unsigned threads = 0;
  bool within_budget = true;
};

Outcome run_horner(Context& ctx);
Outcome run_pipeline(Context& ctx);
Outcome run_service(Context& ctx);

// ---- helpers shared by the workloads -------------------------------------

/// Record the thread count now; `parked` threads (a caller blocked in
/// pool.run()) are not working threads.
inline void check_threads(Outcome& out, unsigned nproc, unsigned parked) {
  const unsigned t = os_threads();
  const unsigned working = t > parked ? t - parked : 0;
  if (working > out.threads) out.threads = working;
  if (working > nproc) out.within_budget = false;
}

/// RunRecords appended so far, the monotone count behind session::runs().
inline std::uint64_t run_records_total() {
  return pls::observe::RunRegistry::global().total();
}

/// The pls_pool_utilization gauge of the only live pool, read through the
/// metrics registry (the exported value).
inline double pool_utilization_gauge() {
  const auto sample = pls::observe::MetricsRegistry::global().collect();
  for (const auto& row : sample.rows) {
    if (row.name == "pls_pool_utilization") return row.value;
  }
  return 0.0;
}

/// Workload-generic per-layer metrics of the selected workload: fork-join
/// counter deltas per operation, pool utilization, run records per
/// terminal/batch, thread count, and the tracing overhead (traced over
/// untraced median operation latency, minus one).
struct GenericLayer {
  pls::observe::CounterTotals counters;  ///< pool delta over the loop
  std::uint64_t ops = 0;
  std::uint64_t run_records = 0;
  std::uint64_t terminals = 0;  ///< terminals or batches run
  std::vector<double> utilization;
  std::vector<double> traced_latency;
  std::vector<double> untraced_latency;
};

inline void report_generic(Report& r, const GenericLayer& g,
                           const Outcome& out) {
  const double ops = g.ops > 0 ? static_cast<double>(g.ops) : 1.0;
  const double steals = static_cast<double>(g.counters.steals);
  const double sweeps = steals + static_cast<double>(g.counters.steal_failures);
  r.add("forkjoin.tasks_per_op",
        static_cast<double>(g.counters.tasks_executed) / ops, "count", g.ops);
  r.add("forkjoin.steals_per_op", steals / ops, "count", g.ops);
  r.add("forkjoin.steal_success", sweeps > 0.0 ? steals / sweeps : 0.0,
        "ratio", static_cast<std::size_t>(sweeps));
  double util = 0.0;
  for (const double u : g.utilization) util += u;
  const double samples = static_cast<double>(g.utilization.size());
  r.add("forkjoin.utilization", samples > 0.0 ? util / samples : 0.0, "ratio",
        g.utilization.size());
  r.add("observe.records_per_op",
        g.terminals > 0 ? static_cast<double>(g.run_records) /
                              static_cast<double>(g.terminals)
                        : 0.0,
        "count", g.terminals);
  const double traced = median(g.traced_latency);
  const double untraced = median(g.untraced_latency);
  r.add("bench.trace_overhead", untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
        "ratio", g.traced_latency.size() + g.untraced_latency.size());
  r.add("bench.threads", static_cast<double>(out.threads), "count", 1);
}

/// The closed loop of `horner` and `pipeline`: one caller runs operation
/// after operation until ctx.seconds have passed. `run(op)` performs
/// operation `op` and returns when its timed part started and ended (ns);
/// `check(op)` then verifies its output, outside the timed part. Traced
/// runs alternate traced and untraced operations in the selected
/// workload; both kinds run on the caller, so they differ only in the
/// spans recorded. Returns each operation's latency (ms).
template <typename Run, typename Check>
std::vector<Timed> run_closed_loop(Context& ctx,
                                   pls::forkjoin::ForkJoinPool& pool,
                                   GenericLayer& g, Outcome& out, Run run,
                                   Check check) {
  std::vector<Timed> latency_ms;
  const auto before = pool.counter_snapshot();
  const std::uint64_t records_before = run_records_total();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  std::int64_t next_thread_check = now_ns();
  for (std::uint64_t op = 1; now_ns() < deadline; ++op) {
    const bool traced = ctx.args.trace && (!ctx.selected || op % 2 == 1);
    ctx.tracer.set_enabled(traced);
    const auto [t0, t1] = run(op);
    ctx.tracer.set_enabled(false);
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    (traced ? g.traced_latency : g.untraced_latency).push_back(ms);
    latency_ms.push_back(Timed{t1, ms});
    ++out.attempted;
    if (!check(op)) ++out.failed;
    ++g.ops;
    if (t1 >= next_thread_check) {
      check_threads(out, ctx.nproc, /*parked=*/1);
      next_thread_check = t1 + 1'000'000'000;
    }
  }
  g.counters = (pool.counter_snapshot() - before).total;
  g.run_records = run_records_total() - records_before;
  return latency_ms;
}

/// forkjoin.utilization, in its own window after the closed loop (so the
/// loop's counters and tracing overhead do not include it): operations
/// run untraced on a pool worker, because a caller parked in pool.run()
/// cannot sample, while this thread reads the pls_pool_utilization gauge
/// every millisecond. Outputs are checked as in the loop.
template <typename Run, typename Check>
void sample_utilization(Context& ctx, pls::forkjoin::ForkJoinPool& pool,
                        GenericLayer& g, Outcome& out, Run run, Check check) {
  constexpr std::int64_t kWindowNs = 1'000'000'000;
  const std::int64_t stop = now_ns() + kWindowNs;
  for (std::uint64_t op = g.ops + 1; now_ns() < stop; ++op) {
    std::atomic<bool> done{false};
    pool.submit([&] {
      run(op);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      g.utilization.push_back(pool_utilization_gauge());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++out.attempted;
    if (!check(op)) ++out.failed;
    // The sampling thread sleeps between reads, like a parked caller.
    check_threads(out, ctx.nproc, /*parked=*/1);
  }
}

/// The end-to-end metrics every workload reports. Latencies (ms) are
/// stamped with when each operation finished; every percentile is a
/// median over time slices (stats.hpp). `setup_s` holds the run's own
/// set-up time and those measured in fresh processes (main.cpp).
inline void report_end_to_end(Report& r, double melem_s,
                              std::size_t throughput_samples,
                              const std::vector<Timed>& latency_ms,
                              const std::vector<double>& setup_s,
                              const Outcome& out) {
  r.add("throughput_melem_s", melem_s, "Melem/s", throughput_samples);
  r.add("latency_p50_ms", sliced_quantile(latency_ms, 0.5), 1.0, "ms");
  r.add("latency_p90_ms", sliced_quantile(latency_ms, 0.9), 1.0, "ms");
  r.add("latency_p99_ms", sliced_quantile(latency_ms, 0.99), 1.0, "ms");
  r.add("error_rate",
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0,
        "ratio", out.attempted);
  r.add("setup_s", median(setup_s), "s", setup_s.size());
  r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

/// Closed-loop throughput: elements per operation over the mean operation
/// time (median over time slices), in Melem/s.
inline double closed_loop_melem_s(double elements_per_op,
                                  const std::vector<Timed>& latency_ms) {
  const double mean_ms = sliced_mean(latency_ms);
  return mean_ms > 0.0 ? elements_per_op / (mean_ms * 1e-3) / 1e6 : 0.0;
}

}  // namespace perfbench
