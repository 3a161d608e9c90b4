// Executors for PowerFunctions: sequential, fork-join, and simulated.
//
// JPLF's key design point (Section III) is that execution is managed
// separately from function definition; these executors all consume the
// same PowerFunction interface:
//   execute_sequential — plain depth-first recursion;
//   execute_forkjoin   — the library's one fork-join walk
//                        (forkjoin/walk.hpp) over a FunctionNode;
//   execute_simulated  — depth-first recursion, then the balanced task
//                        tree priced with the function's operation counts
//                        is scheduled on P virtual processors (the
//                        stand-in for the paper's 8-core testbed; see
//                        DESIGN.md, Substitutions).
// A fourth executor runs over the message-passing simulation
// (src/mpisim/power_executor.hpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "forkjoin/pool.hpp"
#include "forkjoin/walk.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "powerlist/function.hpp"
#include "powerlist/view.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"
#include "streams/plan.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::powerlist {

namespace detail {

template <typename T, typename R, typename Ctx>
R run_sequential(const PowerFunction<T, R, Ctx>& f,
                 PowerListView<const T> input, const Ctx& ctx,
                 std::size_t leaf_size) {
  if (input.length() <= leaf_size) return f.basic_case(input, ctx);
  const auto [left_view, right_view] = input.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  R left = run_sequential(f, left_view, left_ctx, leaf_size);
  R right = run_sequential(f, right_view, right_ctx, leaf_size);
  return f.combine(std::move(left), std::move(right), ctx, input.length());
}

/// The executors' walk node (forkjoin/walk.hpp): one PowerList view and
/// its context. Split is the function's decomposition plus its descend;
/// combine reads the parent's context and length.
template <typename T, typename R, typename Ctx>
struct FunctionNode {
  const PowerFunction<T, R, Ctx>& f;
  PowerListView<const T> input;
  Ctx ctx;

  std::uint64_t size() const { return input.length(); }
  std::uint64_t elements() const { return input.length(); }
  R leaf() const { return f.basic_case(input, ctx); }

  std::optional<std::pair<FunctionNode, FunctionNode>> split() const {
    const auto [left, right] = input.split(f.decomposition());
    auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
    return std::pair{FunctionNode{f, left, std::move(left_ctx)},
                     FunctionNode{f, right, std::move(right_ctx)}};
  }

  R combine(R&& left, R&& right) const {
    return f.combine(std::move(left), std::move(right), ctx, input.length());
  }
};

inline std::size_t checked_leaf_size(std::size_t leaf_size) {
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  return leaf_size;
}

template <typename T, typename U, typename Ctx>
void run_sequential_into(const InplacePowerFunction<T, U, Ctx>& f,
                         PowerListView<const T> input, PowerListView<U> out,
                         const Ctx& ctx, std::size_t leaf_size) {
  if (input.length() <= leaf_size) {
    f.basic_case_into(input, out, ctx);
    return;
  }
  const auto [left_in, right_in] = input.split(f.decomposition());
  const auto [left_out, right_out] = out.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  run_sequential_into(f, left_in, left_out, left_ctx, leaf_size);
  run_sequential_into(f, right_in, right_out, right_ctx, leaf_size);
}

/// The destination-passing node: input and destination split together,
/// so every leaf writes its final window and the join does nothing.
template <typename T, typename U, typename Ctx>
struct IntoNode {
  const InplacePowerFunction<T, U, Ctx>& f;
  PowerListView<const T> input;
  PowerListView<U> out;
  Ctx ctx;

  std::uint64_t size() const { return input.length(); }
  std::uint64_t elements() const { return input.length(); }
  forkjoin::Unit leaf() const {
    f.basic_case_into(input, out, ctx);
    return {};
  }

  std::optional<std::pair<IntoNode, IntoNode>> split() const {
    const auto [left_in, right_in] = input.split(f.decomposition());
    const auto [left_out, right_out] = out.split(f.decomposition());
    auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
    return std::pair{IntoNode{f, left_in, left_out, std::move(left_ctx)},
                     IntoNode{f, right_in, right_out, std::move(right_ctx)}};
  }
};

}  // namespace detail

/// Depth-first sequential execution. The view parameter is deduced from
/// either a mutable or a const view (TV may be const-qualified).
template <typename TV, typename R, typename Ctx>
R execute_sequential(
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  return detail::run_sequential(
      f, PowerListView<const std::remove_const_t<TV>>(input), ctx,
      leaf_size);
}

/// Parallel execution on a fork-join pool. The function's hooks run
/// concurrently; they are const and must be thread-safe.
template <typename TV, typename R, typename Ctx>
R execute_forkjoin(forkjoin::ForkJoinPool& pool,
                   const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
                   PowerListView<TV> input, Ctx ctx = Ctx{},
                   std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  detail::FunctionNode<std::remove_const_t<TV>, R, Ctx> node{f, input, ctx};
  return forkjoin::run_walk(pool, node, leaf_size);
}

/// Depth-first sequential destination-passing execution: split input and
/// destination together, let every leaf write its final window. `out`
/// must be similar to `input` and not alias it.
template <typename TV, typename U, typename Ctx>
void execute_sequential_into(
    const InplacePowerFunction<std::remove_const_t<TV>, U, Ctx>& f,
    PowerListView<TV> input, PowerListView<U> out, Ctx ctx = Ctx{},
    std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  PLS_CHECK(input.similar(out),
            "destination must be similar to the input PowerList");
  detail::run_sequential_into(
      f, PowerListView<const std::remove_const_t<TV>>(input), out, ctx,
      leaf_size);
}

/// Parallel destination-passing execution on a fork-join pool: the
/// executor-side analogue of the sized-sink collect — leaves write
/// concurrently into disjoint windows of `out`, and there is no combine
/// phase at all. `out` must be similar to `input` and not alias it.
template <typename TV, typename U, typename Ctx>
void execute_forkjoin_into(
    forkjoin::ForkJoinPool& pool,
    const InplacePowerFunction<std::remove_const_t<TV>, U, Ctx>& f,
    PowerListView<TV> input, PowerListView<U> out, Ctx ctx = Ctx{},
    std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  PLS_CHECK(input.similar(out),
            "destination must be similar to the input PowerList");
  detail::IntoNode<std::remove_const_t<TV>, U, Ctx> node{f, input, out, ctx};
  forkjoin::run_walk(pool, node, leaf_size);
}

/// Structural statistics of one execution: how the skeleton actually
/// decomposed the input.
struct ExecutionStats {
  std::size_t basic_cases = 0;   ///< leaf-phase invocations
  std::size_t combines = 0;      ///< ascending-phase invocations
  std::size_t descends = 0;      ///< splitting-phase invocations
  unsigned max_depth = 0;        ///< deepest recursion level reached
  std::size_t min_leaf_length = 0;
  std::size_t max_leaf_length = 0;
};

/// Unified result of any reporting executor — the single type the
/// instrumented, simulated, and fork-join-reported paths all return.
/// Fields not produced by a given path stay default-initialised:
///   execute_instrumented       fills result + stats;
///   execute_simulated          fills result + stats + sim (simulated=true);
///   execute_forkjoin_reported  fills result + stats + counters;
///   execute_forkjoin_profiled  additionally fills profile + wall_ns +
///                              histograms (critical-path run).
template <typename R>
struct ExecutionReport {
  R result;
  ExecutionStats stats{};
  simmachine::SimResult sim{};        ///< meaningful when `simulated`
  bool simulated = false;
  observe::CounterTotals counters{};  ///< pool-worker delta for the run
  observe::CriticalPathStats profile{};  ///< measured T1/T∞ (profiled runs)
  observe::HistogramSetSnapshot histograms{};  ///< latency histograms
  double wall_ns = 0.0;  ///< wall-clock time of the profiled run
  streams::ExecutionPlan plan{};  ///< how the run was routed (reported runs)

  /// Human-readable profile: work/span/parallelism header plus the
  /// per-phase (split / accumulate / combine / steal-idle) attribution
  /// table. Empty string when the run was not profiled.
  std::string profile_summary(unsigned workers = 0) const {
    if (profile.empty()) return {};
    std::ostringstream os;
    os << "work T1 = " << profile.work_ns / 1e6 << " ms, span Tinf = "
       << profile.span_ns / 1e6 << " ms, parallelism T1/Tinf = "
       << profile.parallelism();
    if (workers > 0) {
      os << ", Brent bound T" << workers << " <= "
         << profile.brent_bound_ns(workers) / 1e6 << " ms";
    }
    os << '\n' << profile.phase_table(wall_ns, workers);
    return os.str();
  }
};

namespace detail {

/// Closed-form decomposition shape of a power-of-two recursion: both
/// decomposition operators halve, so the tree is uniform and fully
/// determined by (length, leaf_size) — no need to instrument the parallel
/// recursion to know how it unfolded.
inline ExecutionStats uniform_shape(std::size_t length,
                                    std::size_t leaf_size) {
  ExecutionStats s;
  unsigned depth = 0;
  std::size_t len = length;
  while (len > leaf_size && len % 2 == 0) {
    len /= 2;
    ++depth;
  }
  const std::size_t leaves = std::size_t{1} << depth;
  s.basic_cases = leaves;
  s.descends = leaves - 1;
  s.combines = leaves - 1;
  s.max_depth = depth;
  s.min_leaf_length = len;
  s.max_leaf_length = len;
  return s;
}

template <typename T, typename R, typename Ctx>
R run_instrumented(const PowerFunction<T, R, Ctx>& f,
                   PowerListView<const T> input, const Ctx& ctx,
                   std::size_t leaf_size, unsigned depth,
                   ExecutionStats& stats) {
  stats.max_depth = std::max(stats.max_depth, depth);
  if (input.length() <= leaf_size) {
    ++stats.basic_cases;
    if (stats.min_leaf_length == 0 ||
        input.length() < stats.min_leaf_length) {
      stats.min_leaf_length = input.length();
    }
    stats.max_leaf_length = std::max(stats.max_leaf_length, input.length());
    return f.basic_case(input, ctx);
  }
  ++stats.descends;
  const auto [left_view, right_view] = input.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  R left = run_instrumented(f, left_view, left_ctx, leaf_size, depth + 1,
                            stats);
  R right = run_instrumented(f, right_view, right_ctx, leaf_size, depth + 1,
                             stats);
  ++stats.combines;
  return f.combine(std::move(left), std::move(right), ctx, input.length());
}

/// Plan describing a PowerList fork-join run in the planner's vocabulary
/// (origin kSynthesized): the divide-and-conquer drive is fixed by the
/// executor, so the DPS verdict reads kNotAStreamPipeline and the grain
/// is the caller's leaf_size. Recorded via streams::record_plan so
/// pls::session::explain() covers PowerList runs too.
inline streams::ExecutionPlan synthesized_plan(std::size_t length,
                                               std::size_t leaf_size,
                                               const forkjoin::ForkJoinPool&
                                                   pool) {
  streams::ExecutionPlan p;
  p.origin = streams::PlanOrigin::kSynthesized;
  p.terminal = streams::TerminalKind::kPowerFunction;
  p.parallel = true;
  p.parallelism = pool.parallelism();
  p.source_size = length;
  p.sized = true;
  p.subsized = true;
  p.windowed = false;
  p.power_of_two = is_power_of_two(static_cast<std::uint64_t>(length));
  p.stages = 0;
  p.one_to_one = true;
  p.cancels = false;
  p.fused = false;
  p.dps = false;
  p.dps_reason = streams::PlanReason::kNotAStreamPipeline;
  p.drive = streams::DriveMode::kForkJoinTree;
  p.grain = leaf_size;
  p.grain_source = streams::GrainSource::kExplicit;
  p.kernel = streams::KernelMode::kScalarLoop;
  p.cache_key = streams::plan_cache_key(
      streams::TerminalKind::kPowerFunction, length, p.parallelism, 0, true,
      false);
  return p;
}

}  // namespace detail

/// Sequential execution that additionally reports how the recursion
/// unfolded — the observable counterpart of the paper's remark that "we
/// don't have control over the level at which parallel decomposition
/// stops" (here we do, and the stats prove where it stopped).
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_instrumented(
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  ExecutionStats stats;
  R result = detail::run_instrumented(
      f, PowerListView<const std::remove_const_t<TV>>(input), ctx,
      leaf_size, 0, stats);
  ExecutionReport<R> report{std::move(result)};
  report.stats = stats;
  return report;
}

/// Execute sequentially, then schedule the run's task tree on the
/// simulator's virtual processors. Both decomposition operators halve, so
/// that tree is the balanced one of uniform_shape, each node priced by the
/// function's cost hooks at its sublist length. The report carries both
/// the decomposition shape and the simulated schedule.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_simulated(
    const simmachine::Simulator& sim,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  ExecutionReport<R> report{detail::run_sequential(
      f, PowerListView<const std::remove_const_t<TV>>(input), ctx,
      leaf_size)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.sim = sim.run(simmachine::TaskTrace::balanced(
      report.stats.max_depth, input.length(),
      [&](std::size_t len) { return f.leaf_cost_ops(len); },
      [&](std::size_t len) { return f.descend_cost_ops(len); },
      [&](std::size_t len) { return f.combine_cost_ops(len); }));
  report.simulated = true;
  return report;
}

/// Parallel execution on a fork-join pool that additionally reports the
/// decomposition shape (closed form — the halving recursion is uniform)
/// and the pool's observability-counter delta for the run (zeros when
/// PLS_OBSERVE=0). The delta is pool-wide: concurrent unrelated work on
/// the same pool is attributed to this report.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_forkjoin_reported(
    forkjoin::ForkJoinPool& pool,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  // Plan before running so the run-record scope brackets the execution
  // (one RunRecord per executed terminal, PowerList runs included).
  const streams::ExecutionPlan plan =
      detail::synthesized_plan(input.length(), leaf_size, pool);
  streams::record_plan(plan);
  const observe::CounterTotals before = pool.counter_totals();
  std::optional<R> result;
  {
    streams::RunScope run_scope(plan);
    result.emplace(execute_forkjoin(pool, f, input, ctx, leaf_size));
  }
  ExecutionReport<R> report{std::move(*result)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.counters = pool.counter_totals() - before;
  report.plan = plan;
  return report;
}

/// Parallel execution with full critical-path profiling: clears and
/// enables the global CriticalPathRecorder for the duration of the run,
/// then reports measured work T1, span T∞, per-phase attribution, the
/// run's wall time, and the aggregated latency histograms alongside the
/// counter delta. The recorder is process-global, so profile exactly one
/// run at a time; report.profile is all zeros when PLS_OBSERVE=0.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_forkjoin_profiled(
    forkjoin::ForkJoinPool& pool,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  const streams::ExecutionPlan plan =
      detail::synthesized_plan(input.length(), leaf_size, pool);
  streams::record_plan(plan);
  auto& recorder = observe::CriticalPathRecorder::global();
  recorder.clear();
  recorder.enable();
  const observe::CounterTotals before = pool.counter_totals();
  const auto wall0 = std::chrono::steady_clock::now();
  std::optional<R> result;
  {
    streams::RunScope run_scope(plan);
    result.emplace(execute_forkjoin(pool, f, input, ctx, leaf_size));
  }
  const auto wall1 = std::chrono::steady_clock::now();
  recorder.disable();
  ExecutionReport<R> report{std::move(*result)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.counters = pool.counter_totals() - before;
  report.profile = recorder.analyze();
  report.histograms = observe::aggregate_histograms();
  report.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
          .count());
  report.plan = plan;
  return report;
}

}  // namespace pls::powerlist
