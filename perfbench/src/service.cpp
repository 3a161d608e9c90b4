// Workload `service`: kSessions sessions built with
//   pls::service::pipeline(map).window(32).batch(64)
// and a benchmark collector whose finish() stamps each window's emission.
// Every event carries its due time from the generator. One thread is
// both the generator and the pump (it calls driver.pump() itself); the
// pool has nproc - 1 workers, so the run uses nproc threads.
//
// Two phases:
//   1. open loop: events due at a fixed aggregate rate (kOpenRate, a rate
//      at which the open loop is steady on the reference host; README.md),
//      round-robin over the sessions, with a pump every kPumpIntervalNs;
//      window latency runs from the due time of the window's last event to
//      its emission (openloop.hpp);
//   2. closed loop: a flood of offer_all() chunks under OverloadPolicy::
//      kBlock measures saturation throughput.
// Every window is checked against the per-window sums of the generated
// stream, computed at set-up.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "observe/config.hpp"
#include "observe/histogram.hpp"
#include "openloop.hpp"
#include "service/driver.hpp"
#include "service/facade.hpp"
#include "streams/collector.hpp"
#include "streams/static_fusion.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSessions = 256;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kTable = 4096;  // distinct event values, cycled
constexpr std::size_t kTableWindows = kTable / kWindow;
constexpr double kOpenRate = 2.0e6;   // events per second, all sessions
constexpr std::uint64_t kMaxBurst = 256;
constexpr std::size_t kFloodChunk = 64;  // events per session per round
constexpr double kOpenShare = 0.6;       // of the run length
constexpr std::int64_t kPumpIntervalNs = 250'000;  // generator's pump cadence
constexpr std::int64_t kSliceNs = 100'000'000;   // traced/untraced slices
constexpr std::int64_t kRateSliceNs = 250'000'000;  // flood throughput slices
constexpr std::int64_t kAggregateNs = 1'000'000;  // aggregation probe period

using Pool = pls::forkjoin::ForkJoinPool;

struct WindowAcc {
  double sum = 0.0;
  std::int64_t last_due_ns = 0;
};

/// Sums the (mapped) values of a window, remembers its last event's due
/// time and stamps the emission in finish().
class WindowCollector final
    : public pls::streams::Collector<Event, WindowAcc, WindowOut> {
 public:
  WindowAcc supply() const override { return {}; }
  void accumulate(WindowAcc& acc, const Event& e) const override {
    acc.sum += e.value;
    acc.last_due_ns = e.due_ns;
  }
  void combine(WindowAcc& left, WindowAcc& right) const override {
    left.sum += right.sum;
    left.last_due_ns = std::max(left.last_due_ns, right.last_due_ns);
  }
  WindowOut finish(WindowAcc&& acc) const override {
    return WindowOut{acc.sum, acc.last_due_ns, now_ns()};
  }
};

inline double stage(double v) { return v * 1.5 + 0.25; }

/// Every config names the pool: a config without one makes the planner
/// start the process-wide common pool, outside the thread budget.
auto make_spec(Pool& pool) {
  return pls::service::pipeline(pls::streams::stages::map([](Event e) {
           return Event{stage(e.value), e.due_ns};
         }))
      .window(kWindow)
      .batch(kBatch)
      .configure(pls::streams::ExecutionConfig{}.with_pool(pool)
                     .with_queue_capacity(kQueueCapacity))
      .collect(WindowCollector{});
}
using Spec = decltype(make_spec(std::declval<Pool&>()));
using SessionPtr = decltype(std::declval<const Spec&>().open<Event>(
    std::declval<pls::service::ServiceDriver&>()));

/// Event values and the expected per-window sums.
struct Inputs {
  std::vector<double> table;
  std::vector<double> window_sum;    ///< per table window
  std::vector<std::size_t> offset;   ///< per session, in table windows

  double value(std::size_t session, std::uint64_t j) const {
    return table[(offset[session] * kWindow + j) % kTable];
  }
  double expected(std::size_t session, std::uint64_t window) const {
    return window_sum[(offset[session] + window) % kTableWindows];
  }
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng(derive_seed(seed, "service"));
  Inputs in;
  in.table.resize(kTable);
  for (double& v : in.table) v = rng.uniform(-1.0, 1.0);
  for (std::size_t w = 0; w < kTableWindows; ++w) {
    double s = 0.0;  // the collector's fold, in encounter order
    for (std::size_t k = 0; k < kWindow; ++k) {
      s += stage(in.table[w * kWindow + k]);
    }
    in.window_sum.push_back(s);
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    in.offset.push_back(static_cast<std::size_t>(rng.next() % kTableWindows));
  }
  return in;
}

/// One service instance: pool, driver, sessions, and per-session
/// bookkeeping. Every session has received `events_each` events.
struct Service {
  Pool pool;
  pls::service::ServiceDriver driver;
  std::vector<SessionPtr> sessions;
  std::uint64_t events_each = 0;
  std::vector<std::uint64_t> windows_seen;
  std::uint64_t wrong = 0;

  explicit Service(unsigned workers)
      : pool(workers), driver(&pool), windows_seen(kSessions, 0) {
    const Spec spec = make_spec(pool);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(spec.open<Event>(driver));
    }
  }

  /// Take every emitted window, check it, and keep those passed in.
  void take_windows(const Inputs& in, std::vector<WindowOut>* keep) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (const WindowOut& w : sessions[s]->take_results()) {
        const double want = in.expected(s, windows_seen[s]++);
        if (!(std::fabs(w.sum - want) <= 1e-12 * (std::fabs(want) + kWindow))) {
          ++wrong;
        }
        if (keep != nullptr) keep->push_back(w);
      }
    }
  }

  std::uint64_t windows_expected() const {
    return kSessions * (events_each / kWindow);
  }
  std::uint64_t windows_missing() const {
    std::uint64_t missing = 0;
    for (const std::uint64_t seen : windows_seen) {
      if (seen < events_each / kWindow) missing += events_each / kWindow - seen;
    }
    return missing;
  }

  pls::service::QueueStats stats() const {
    pls::service::QueueStats t;
    for (const auto& s : sessions) {
      const auto q = s->queue_stats();
      t.offered += q.offered;
      t.accepted += q.accepted;
      t.shed += q.shed;
      t.drained += q.drained;
      t.batches += q.batches;
      t.depth_hwm = std::max(t.depth_hwm, q.depth_hwm);
    }
    return t;
  }

  /// Set-up's warm-up operation: one window into every session, drained.
  void warm_up(const Inputs& in) {
    const std::int64_t now = now_ns();
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::uint64_t j = 0; j < kWindow; ++j) {
        sessions[s]->offer(Event{in.value(s, events_each + j), now});
      }
    }
    events_each += kWindow;
    driver.drain_all();
  }
};

struct Spans {
  std::uint32_t offer, offer_all, pump;
};

}  // namespace

Outcome run_service(Context& ctx) {
  Outcome out;
  const Inputs in = make_inputs(ctx.args.seed);
  const unsigned workers = ctx.nproc > 1 ? ctx.nproc - 1 : 1;
  Tracer& tracer = ctx.tracer;
  const Spans sp{tracer.name("offer"), tracer.name("offer_all"),
                 tracer.name("pump")};

  // Set-up: pool start, driver, sessions opened and planned, and one
  // warm-up window through every session.
  const std::int64_t t0 = now_ns();
  std::optional<Service> svc(std::in_place, workers);
  svc->warm_up(in);
  ctx.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  svc->take_windows(in, nullptr);
  check_threads(out, ctx.nproc, /*parked=*/0);
  auto retire = [&] {  // account for every window of the run
    svc->take_windows(in, nullptr);
    out.attempted += svc->windows_expected();
    out.failed += svc->wrong + svc->windows_missing() + svc->stats().shed;
  };
  if (ctx.args.setup_only) {
    retire();
    ctx.end_to_end.add("setup_s", ctx.setup_s.back(), "s", 1);
    return out;
  }

  GenericLayer g;
  const auto before = svc->pool.counter_snapshot();
  const std::uint64_t records_before = run_records_total();
  const std::uint64_t batches_before = svc->stats().batches;
  const std::uint64_t windows_before = svc->windows_expected();
  const double seconds = ctx.seconds;

  // ---- phase 1: open loop ----
  // Traced runs probe the observe layer every kAggregateNs in every
  // slice, traced or not, so the tracing overhead compares slices under
  // the same probe load.
  std::vector<double> lateness_ns;
  std::vector<double> aggregate_ns;
  std::vector<WindowOut> open_windows;
  open_windows.reserve(static_cast<std::size_t>(
      kOpenRate * seconds * kOpenShare / kWindow + 2 * kSessions));
  std::int64_t t_start = 0;
  {
    const std::int64_t stop_offset =
        static_cast<std::int64_t>(seconds * kOpenShare * 1e9);
    t_start = now_ns() + 1'000'000;
    const OpenLoopSchedule schedule(t_start, kOpenRate);
    const std::uint64_t base = svc->events_each;
    const std::uint64_t round = kSessions * kWindow;  // whole windows
    std::uint64_t next = 0;
    std::uint64_t end = ~std::uint64_t{0};
    std::int64_t last_pump = 0;
    std::int64_t last_aggregate = 0;
    std::int64_t next_check = t_start;
    // The generator's lag, one sample per pump cycle: the lateness of the
    // oldest event offered in that cycle.
    constexpr std::int64_t kNoLateness = INT64_MIN;
    std::int64_t cycle_late = kNoLateness;
    while (next < end) {
      const std::int64_t now = now_ns();
      if (end == ~std::uint64_t{0} && now - t_start >= stop_offset) {
        end = (next + round - 1) / round * round;
      }
      const bool odd_slice = ((now - t_start) / kSliceNs) % 2 == 1;
      tracer.set_enabled(ctx.args.trace && (!ctx.selected || odd_slice));
      const std::uint64_t due = std::min(schedule.due_by(now), end);
      if (due > next) {
        const std::uint64_t burst_end = std::min(due, next + kMaxBurst);
        std::int64_t late = 0;
        {
          const auto s = tracer.span(sp.offer, burst_end - next);
          late = offer_due(schedule, next, burst_end, now,
                           [&](std::uint64_t i, std::int64_t due_ns) {
                             const std::size_t session = i % kSessions;
                             const double v =
                                 in.value(session, base + i / kSessions);
                             svc->sessions[session]->offer(Event{v, due_ns});
                           });
        }
        cycle_late = std::max(cycle_late, late);
        next = burst_end;
      }
      if (now - last_pump < kPumpIntervalNs && next < end) continue;
      if (cycle_late != kNoLateness) {
        lateness_ns.push_back(static_cast<double>(cycle_late));
      }
      cycle_late = kNoLateness;
      {
        const auto s = tracer.span(sp.pump);
        svc->driver.pump(/*drain_all=*/true);
      }
      last_pump = now;
      if (ctx.args.trace && now - last_aggregate >= kAggregateNs) {
        const std::int64_t a0 = now_ns();
        const auto counters = pls::observe::aggregate_counters();
        const auto histograms = pls::observe::aggregate_histograms();
        aggregate_ns.push_back(static_cast<double>(now_ns() - a0));
        (void)counters;
        (void)histograms;
        if (ctx.selected) g.utilization.push_back(pool_utilization_gauge());
        last_aggregate = now;
      }
      if (now >= next_check) {  // windows are taken as they come
        check_threads(out, ctx.nproc, 0);
        svc->take_windows(in, &open_windows);
        next_check = now + kRateSliceNs;
      }
    }
    tracer.set_enabled(false);
    svc->driver.drain_all();
    svc->events_each += end / kSessions;
    svc->take_windows(in, &open_windows);
  }

  // ---- phase 2: closed-loop flood ----
  // Throughput is the median over kRateSliceNs slices of elements drained
  // per second, so one stall of the host does not move it; windows are
  // taken and checked once per slice, which keeps memory flat.
  std::vector<double> flood_rate;
  {
    std::vector<Event> chunk(kFloodChunk);
    const std::int64_t t0 = now_ns();
    const std::int64_t stop =
        t0 + static_cast<std::int64_t>(seconds * (1.0 - kOpenShare) * 1e9);
    std::int64_t slice_start = t0;
    std::uint64_t slice_drained = svc->stats().drained;
    for (std::uint64_t round = 0; now_ns() < stop; ++round) {
      tracer.set_enabled(ctx.args.trace && (!ctx.selected || round % 2 == 1));
      const std::int64_t now = now_ns();
      for (std::size_t s = 0; s < kSessions; ++s) {
        for (std::size_t k = 0; k < kFloodChunk; ++k) {
          chunk[k] = Event{in.value(s, svc->events_each + k), now};
        }
        // This thread is the only pump, so an offer that blocked at the
        // high watermark (the capacity) could never be released: pump
        // until the chunk fits below it instead.
        while (svc->sessions[s]->queue_stats().depth + kFloodChunk >=
               kQueueCapacity) {
          svc->driver.pump(/*drain_all=*/true);
          std::this_thread::yield();
        }
        const auto span = tracer.span(sp.offer_all, kFloodChunk);
        svc->sessions[s]->offer_all(chunk.data(), kFloodChunk);
      }
      svc->events_each += kFloodChunk;
      {
        const auto span = tracer.span(sp.pump);
        svc->driver.pump(/*drain_all=*/true);
      }
      if (now - slice_start >= kRateSliceNs) {
        const std::uint64_t drained = svc->stats().drained;
        flood_rate.push_back(static_cast<double>(drained - slice_drained) *
                             1e9 / static_cast<double>(now - slice_start));
        slice_start = now;
        slice_drained = drained;
        svc->take_windows(in, nullptr);
      }
    }
    tracer.set_enabled(false);
    svc->driver.drain_all();
    check_threads(out, ctx.nproc, 0);
    svc->take_windows(in, nullptr);
  }

  const pls::service::QueueStats q = svc->stats();

  std::vector<Timed> latency_ms;
  latency_ms.reserve(open_windows.size());
  for (const WindowOut& w : open_windows) {
    const double ms = static_cast<double>(window_latency_ns(w)) * 1e-6;
    latency_ms.push_back(Timed{w.emitted_ns, ms});
    const bool traced = ((w.last_due_ns - t_start) / kSliceNs) % 2 == 1;
    (traced ? g.traced_latency : g.untraced_latency).push_back(ms);
  }

  if (!ctx.args.trace) {
    retire();
    report_end_to_end(ctx.end_to_end, median(flood_rate) / 1e6,
                      flood_rate.size(), latency_ms, ctx.setup_s, out);
    return out;
  }

  g.ops = svc->windows_expected() - windows_before;
  g.counters = (svc->pool.counter_snapshot() - before).total;
  g.run_records = run_records_total() - records_before;
  g.terminals = q.batches - batches_before;
  if (ctx.selected) report_generic(ctx.per_layer, g, out);

  Report& r = ctx.per_layer;
  pls::observe::HistogramSnapshot batch;
  for (const auto& s : svc->sessions) batch += s->latency();
  const double tick_us = pls::observe::ns_per_tick() * 1e-3;
  const auto pumps = tracer.durations_ns(sp.pump);
  r.add("service.offer_ns", tracer.median_per_item_ns(sp.offer_all), "ns/elem",
        tracer.durations_ns(sp.offer_all).size());
  r.add("service.pump_us", median(pumps) * 1e-3, "us", pumps.size());
  r.add("service.batch_us_p50", batch.quantile(0.5, tick_us), "us",
        batch.total, 0.5);
  r.add("service.batch_us_p99", batch.quantile(0.99, tick_us), "us",
        batch.total, 0.99);
  r.add("service.batch_fill",
        q.batches > 0 ? static_cast<double>(q.drained) /
                            static_cast<double>(q.batches) / kBatch
                      : 0.0,
        "ratio", q.batches);
  r.add("service.queue_depth_max", static_cast<double>(q.depth_hwm), "count",
        kSessions);
  r.add("service.shed_ratio",
        q.offered > 0
            ? static_cast<double>(q.shed) / static_cast<double>(q.offered)
            : 0.0,
        "ratio", q.offered);
  r.add("service.generator_late_ms_p99", quantile(lateness_ns, 0.99), 1e-6,
        "ms");
  r.add("observe.aggregate_us", median(aggregate_ns) * 1e-3, "us",
        aggregate_ns.size());
  retire();
  return out;
}

}  // namespace perfbench
