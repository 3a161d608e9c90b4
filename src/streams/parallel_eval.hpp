// Terminal-operation evaluator: one fork-join walk for every terminal.
//
// Every stream terminal runs over a FusedPipeline (streams/fusion.hpp):
// the source spliterator plus the stage chain the Stream built. Parallel
// evaluation mirrors Java's: the pipeline is split recursively until
// chunks reach the planned grain (estimate / (parallelism * 4) by
// default, as in AbstractTask.suggestTargetSize), each leaf drives its
// chunk through one composed sink chain into a fresh result, and sibling
// results are merged pairwise on the way up — the divide-and-conquer
// template the paper builds PowerList functions on. try_split returns the
// *prefix*, so the left child of every fork is the earlier half:
// combining left <- right preserves encounter order for non-commutative
// combiners.
//
// That template is forkjoin::walk (forkjoin/walk.hpp), shared with the
// PowerFunction executors and the multiway collects; here it walks a
// PipelineNode. A terminal is a policy of four parts: state<T>(fp) makes
// a leaf's fresh state (an accumulator, a count, a destination cursor),
// sink<T>(state) the terminal sink feeding it, result(state) turns the
// drained state into the leaf's result, and combine(left, right) merges
// two sibling results — or is absent, when leaves deliver their results
// in place (for_each, and the destination-passing collect) and the join
// does nothing. Keeping state and sink apart lets several leaves be open
// at once: over an interleaved (zip-split) source the walk hands a task's
// sibling leaves to PipelineNode::leaf_batch, which drives them in one
// pass (FusedPipeline::drive_lockstep) into one state each.
//
// collect has a second execution model, destination-passing style (DPS):
// when the collector is a sized sink (streams/sized_sink.hpp) and the
// planner admits the pipeline (SIZED|SUBSIZED windowed power-of-two
// source, all-1:1 chain; plan_fused_pipeline in streams/plan.hpp), the
// result is allocated exactly once, each leaf rebases its source window
// against the root's and writes its elements straight to their final
// positions, and the combine phase disappears — dropping combine-phase
// data movement from O(n log n) to zero (docs/execution.md). Everything
// else collects through the supplier/combiner policy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "forkjoin/walk.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "streams/collector.hpp"
#include "streams/fusion.hpp"
#include "streams/plan.hpp"
#include "streams/sink.hpp"
#include "streams/sized_sink.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"

namespace pls::streams {

// ExecutionConfig and every admission predicate (DPS, grain, drive,
// kernel) live in streams/plan.hpp — the planner. This file is the
// execution layer: it obeys plans, it does not make decisions.

namespace detail {

// ---- terminal sinks ----------------------------------------------------

/// Terminal sink feeding a classic collector's accumulator. Templated on
/// the concrete collector so final collectors devirtualise in the chunk
/// loop; collectors exposing a chunk fold (ChunkAccumulatingCollector —
/// the SIMD kernel hook) get whole contiguous chunks instead of the
/// per-element loop.
template <typename T, typename C>
class CollectorSink final : public Sink<T> {
 public:
  CollectorSink(const C& c, typename C::accumulation_type& acc)
      : c_(c), acc_(acc) {}

  void accept(const T& value) override { c_.accumulate(acc_, value); }

  void accept_chunk(const T* values, std::size_t n) override {
    if constexpr (ChunkAccumulatingCollector<C, T>) {
      c_.accumulate_chunk(acc_, values, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) c_.accumulate(acc_, values[i]);
    }
  }

 private:
  const C& c_;
  typename C::accumulation_type& acc_;
};

/// A destination-passing leaf's state: where its elements land in the
/// shared sized sink (element k at base + k * step) and how many it wrote.
struct DpsCursor {
  std::uint64_t base = 0;
  std::uint64_t step = 1;
  std::uint64_t count = 0;  ///< the leaf's window size
  std::uint64_t written = 0;
};

/// Terminal sink of the destination-passing collect: writes the leaf's
/// elements to their final positions in the shared sized sink.
template <typename T, typename C>
class DpsSink final : public Sink<T> {
 public:
  DpsSink(const C& c, typename C::sized_accumulation_type& sink,
          DpsCursor& at)
      : c_(c), sink_(sink), at_(at) {}

  void accept(const T& value) override {
    c_.accumulate_at(sink_, at_.base + at_.written * at_.step, value);
    ++at_.written;
  }

  void accept_chunk(const T* values, std::size_t n) override {
    // Locals: the writes through the sink may alias the cursor.
    const std::uint64_t base = at_.base;
    const std::uint64_t step = at_.step;
    const std::uint64_t k = at_.written;
    for (std::size_t i = 0; i < n; ++i) {
      c_.accumulate_at(sink_, base + (k + i) * step, values[i]);
    }
    at_.written = k + n;
  }

 private:
  const C& c_;
  typename C::sized_accumulation_type& sink_;
  DpsCursor& at_;
};

template <typename T, typename Op>
class ReduceSink final : public Sink<T> {
 public:
  ReduceSink(const Op& op, std::optional<T>& acc) : op_(op), acc_(acc) {}

  void accept(const T& value) override {
    if (acc_.has_value()) {
      *acc_ = op_(std::move(*acc_), value);
    } else {
      acc_ = value;
    }
  }

  void accept_chunk(const T* values, std::size_t n) override {
    std::size_t i = 0;
    if (!acc_.has_value() && n > 0) acc_ = values[i++];
    for (; i < n; ++i) *acc_ = op_(std::move(*acc_), values[i]);
  }

 private:
  const Op& op_;
  std::optional<T>& acc_;
};

template <typename T>
class CountSink final : public Sink<T> {
 public:
  explicit CountSink(std::uint64_t& n) : n_(n) {}
  void accept(const T&) override { ++n_; }
  void accept_chunk(const T*, std::size_t n) override { n_ += n; }

 private:
  std::uint64_t& n_;
};

// Cancelling terminal sinks of the short-circuit terminals. Each raises
// cancellation_requested() the moment its answer is decided; the
// element-mode driver (FusedPipeline::drive_short_circuit) checks it
// between source elements, so the source is consumed no deeper than the
// first deciding element.

/// Stops at the first element whose predicate value is `stop_on`:
/// any_match and none_match stop on true, all_match on false.
template <typename T, typename Pred>
class MatchSink final : public Sink<T> {
 public:
  MatchSink(const Pred& pred, bool stop_on, bool& hit)
      : pred_(pred), stop_on_(stop_on), hit_(hit) {}

  void accept(const T& value) override {
    if (!hit_ && static_cast<bool>(pred_(value)) == stop_on_) hit_ = true;
  }
  bool cancellation_requested() const override { return hit_; }

 private:
  const Pred& pred_;
  bool stop_on_;
  bool& hit_;
};

template <typename T>
class FindFirstSink final : public Sink<T> {
 public:
  explicit FindFirstSink(std::optional<T>& out) : out_(out) {}

  void accept(const T& value) override {
    if (!out_.has_value()) out_ = value;
  }
  bool cancellation_requested() const override { return out_.has_value(); }

 private:
  std::optional<T>& out_;
};

/// Where a chunk with source window `w` writes in a result buffer indexed
/// 0..root.count in root strides: {base, step}. The source may itself be
/// a strided sub-window (e.g. a zip-split product).
inline std::pair<std::uint64_t, std::uint64_t> rebase_window(
    const std::optional<OutputWindow>& w, const OutputWindow& root) {
  PLS_CHECK(w.has_value(),
            "windowed SUBSIZED source split into a non-windowed chunk");
  const std::uint64_t base = (w->start - root.start) / root.incr;
  const std::uint64_t step = w->incr / root.incr;
  PLS_CHECK(w->count == 0 || base + (w->count - 1) * step < root.count,
            "destination window exceeds the result buffer");
  return {base, step};
}

}  // namespace detail

/// Terminal policies, one value type per terminal kind, holding the
/// operation by reference (they live only for the duration of the
/// evaluate call). Both the dynamic Stream terminals and the typed static
/// pipeline (streams/static_fusion.hpp) funnel through these and walk().
/// Short-circuit terminals (any/all/none_match, find_first) carry their
/// cancellation signal in the terminal sink, so they run one element-mode
/// leaf whatever the chain (DriveMode::kElementLoop) and never combine.
namespace terminals {

template <typename C>
struct Collect {
  static constexpr TerminalKind kind = TerminalKind::kCollect;
  const C& collector;

  template <typename T>
  typename C::accumulation_type state(FusedPipeline&) const {
    observe::local_counters().on_allocation();
    return collector.supply();
  }
  template <typename T>
  detail::CollectorSink<T, C> sink(typename C::accumulation_type& acc) const {
    return {collector, acc};
  }
  typename C::accumulation_type result(
      typename C::accumulation_type&& acc) const {
    return std::move(acc);
  }
  void combine(typename C::accumulation_type& left,
               typename C::accumulation_type& right) const {
    collector.combine(left, right);
  }
};

template <typename Op>
struct Reduce {
  static constexpr TerminalKind kind = TerminalKind::kReduce;
  const Op& op;

  template <typename T>
  std::optional<T> state(FusedPipeline&) const {
    return std::nullopt;
  }
  template <typename T>
  detail::ReduceSink<T, Op> sink(std::optional<T>& acc) const {
    return {op, acc};
  }
  template <typename T>
  std::optional<T> result(std::optional<T>&& acc) const {
    return std::move(acc);
  }
  template <typename T>
  void combine(std::optional<T>& left, std::optional<T>& right) const {
    if (!left.has_value()) {
      left = std::move(right);
    } else if (right.has_value()) {
      left = op(std::move(*left), std::move(*right));
    }
  }
};

template <typename Fn>
struct ForEach {
  static constexpr TerminalKind kind = TerminalKind::kForEach;
  const Fn& fn;

  template <typename T>
  forkjoin::Unit state(FusedPipeline&) const {
    return {};
  }
  template <typename T>
  ForEachSink<T, Fn> sink(forkjoin::Unit&) const {
    return ForEachSink<T, Fn>(fn);
  }
  forkjoin::Unit result(forkjoin::Unit&&) const { return {}; }
};

struct Count {
  static constexpr TerminalKind kind = TerminalKind::kCount;

  template <typename T>
  std::uint64_t state(FusedPipeline&) const {
    return 0;
  }
  template <typename T>
  detail::CountSink<T> sink(std::uint64_t& n) const {
    return detail::CountSink<T>(n);
  }
  std::uint64_t result(std::uint64_t&& n) const { return n; }
  void combine(std::uint64_t& left, std::uint64_t& right) const {
    left += right;
  }
};

/// any/all/none_match: the state is "an element stopped the drive";
/// `stop_on` is the predicate value that stops it, `negate` turns the
/// hit into the answer.
template <typename Pred, TerminalKind K, bool stop_on, bool negate>
struct Match {
  static constexpr TerminalKind kind = K;
  const Pred& pred;

  template <typename T>
  bool state(FusedPipeline&) const {
    return false;
  }
  template <typename T>
  detail::MatchSink<T, Pred> sink(bool& hit) const {
    return {pred, stop_on, hit};
  }
  bool result(bool&& hit) const { return hit != negate; }
};

template <typename Pred>
using AnyMatch = Match<Pred, TerminalKind::kAnyMatch, true, false>;
template <typename Pred>
using AllMatch = Match<Pred, TerminalKind::kAllMatch, false, true>;
template <typename Pred>
using NoneMatch = Match<Pred, TerminalKind::kNoneMatch, true, true>;

struct FindFirst {
  static constexpr TerminalKind kind = TerminalKind::kFindFirst;

  template <typename T>
  std::optional<T> state(FusedPipeline&) const {
    return std::nullopt;
  }
  template <typename T>
  detail::FindFirstSink<T> sink(std::optional<T>& out) const {
    return detail::FindFirstSink<T>(out);
  }
  template <typename T>
  std::optional<T> result(std::optional<T>&& out) const {
    return std::move(out);
  }
};

template <typename C>
constexpr Collect<C> collect(const C& c) {
  return {c};
}
template <typename Op>
constexpr Reduce<Op> reduce(const Op& op) {
  return {op};
}
template <typename Fn>
constexpr ForEach<Fn> for_each(const Fn& fn) {
  return {fn};
}
constexpr Count count() { return {}; }
template <typename Pred>
constexpr AnyMatch<Pred> any_match(const Pred& pred) {
  return {pred};
}
template <typename Pred>
constexpr AllMatch<Pred> all_match(const Pred& pred) {
  return {pred};
}
template <typename Pred>
constexpr NoneMatch<Pred> none_match(const Pred& pred) {
  return {pred};
}
constexpr FindFirst find_first() { return {}; }

}  // namespace terminals

namespace detail {

/// The destination-passing collect as a terminal policy: each leaf writes
/// its chunk into its window of the shared sized sink; no combine.
template <typename C>
struct DpsCollect {
  static constexpr TerminalKind kind = TerminalKind::kCollect;
  const C& collector;
  typename C::sized_accumulation_type& sink_at;
  OutputWindow root;

  template <typename T>
  DpsCursor state(FusedPipeline& fp) const {
    const auto w = fp.source_window();
    const auto [base, step] = rebase_window(w, root);
    return {base, step, w->count};
  }
  template <typename T>
  DpsSink<T, C> sink(DpsCursor& at) const {
    return {collector, sink_at, at};
  }
  forkjoin::Unit result(DpsCursor&& at) const {
    PLS_CHECK(at.written == at.count,
              "chunk yielded a different count than its window");
    return {};
  }
};

/// One leaf's terminal: the policy's fresh state and the sink feeding it,
/// built in place (the sink refers to the state).
template <typename T, typename Term>
struct TerminalLeaf {
  using State = decltype(std::declval<const Term&>().template state<T>(
      std::declval<FusedPipeline&>()));

  State state;
  decltype(std::declval<const Term&>().template sink<T>(
      std::declval<State&>())) sink;

  TerminalLeaf(const Term& term, FusedPipeline& fp)
      : state(term.template state<T>(fp)),
        sink(term.template sink<T>(state)) {}
};

/// The streams walk node: the pipeline's source window plus the terminal
/// policy. Splitting keeps the suffix in `fp` and the prefix in the
/// parent, so the left child is the earlier half. `batch` (the plan's
/// verdict for an interleaved source) makes the walk run the sibling
/// leaves of each task together through leaf_batch.
template <typename T, typename Term>
struct PipelineNode {
  using Leaf = TerminalLeaf<T, Term>;
  using R = decltype(std::declval<const Term&>().result(
      std::declval<typename Leaf::State&&>()));

  FusedPipeline& fp;
  const Term& term;
  bool batch = false;
  std::unique_ptr<FusedPipeline> prefix{};

  std::uint64_t size() const { return fp.estimate_size(); }
  std::uint64_t elements() const { return fp.countable_estimate(); }
  bool batches() const { return batch; }

  R leaf() {
    Leaf l(term, fp);
    if constexpr (terminal_short_circuits(Term::kind)) {
      fp.drive_short_circuit(l.sink);
    } else {
      fp.drive(l.sink);
    }
    return term.result(std::move(l.state));
  }

  /// The sibling leaves of one task, drained in one lockstep pass, each
  /// into its own state.
  void leaf_batch(std::span<PipelineNode* const> leaves,
                  std::span<std::optional<R>> out) const {
    const std::size_t k = leaves.size();
    std::array<std::optional<Leaf>, forkjoin::kBatchLeaves> open;
    std::array<FusedPipeline*, forkjoin::kBatchLeaves> fps{};
    std::array<SinkControl*, forkjoin::kBatchLeaves> sinks{};
    for (std::size_t j = 0; j < k; ++j) {
      open[j].emplace(term, leaves[j]->fp);
      fps[j] = &leaves[j]->fp;
      sinks[j] = &open[j]->sink;
    }
    fps[0]->drive_lockstep({fps.data(), k}, {sinks.data(), k});
    for (std::size_t j = 0; j < k; ++j) {
      out[j].emplace(term.result(std::move(open[j]->state)));
    }
  }

  // count reports what it counted, exact even where a stage (or an
  // unsized source) leaves the estimate unknown.
  std::uint64_t counted(const R& n) const
    requires(Term::kind == TerminalKind::kCount)
  {
    return n;
  }

  std::optional<std::pair<PipelineNode, PipelineNode>> split() {
    prefix = fp.try_split();
    if (!prefix) return std::nullopt;
    return std::pair{PipelineNode{*prefix, term, batch},
                     PipelineNode{fp, term, batch}};
  }

  R combine(R&& left, R&& right) const
    requires requires(const Term& t, R& r) { t.combine(r, r); }
  {
    term.combine(left, right);
    return std::move(left);
  }
};

/// Drive `term` over `fp` as the plan says: one leaf on the calling
/// thread (sequential plans, short-circuit terminals), or the walk on the
/// configured pool, feeding the profiled tree back to the PlanCache.
template <typename T, typename Term>
auto run_walk(FusedPipeline& fp, const Term& term, const ExecutionConfig& cfg,
              const ExecutionPlan& plan) {
  PipelineNode<T, Term> node{fp, term, plan.batches_leaves()};
  if constexpr (terminal_short_circuits(Term::kind)) {
    return forkjoin::walk_leaf(node);
  } else {
    if (!plan.parallel) return forkjoin::walk_leaf(node);
    auto& pool = cfg.effective_pool();
    observe::CpNode* cp = observe::cp_new_root();
    auto out = forkjoin::run_walk(pool, node, plan.grain, cp);
    plan_feedback(plan, cp);
    return out;
  }
}

/// collect picks its policy from the plan: destination-passing when
/// admitted, supplier/combiner otherwise.
template <typename T, typename C>
typename C::result_type run_collect(FusedPipeline& fp,
                                    const terminals::Collect<C>& term,
                                    const ExecutionConfig& cfg,
                                    const ExecutionPlan& plan) {
  const C& c = term.collector;
  if constexpr (SizedSinkCollector<C, T>) {
    if (plan.dps) {
      auto sink = c.supply_sized(plan.window->count);
      run_walk<T>(fp, DpsCollect<C>{c, sink, *plan.window}, cfg, plan);
      return c.finish_sized(std::move(sink));
    }
  }
  return c.finish(run_walk<T>(fp, term, cfg, plan));
}

// Compile-time collector facts the planner needs (false for every
// terminal but collect).
template <typename T, typename Term>
inline constexpr bool kSizedCollector = false;
template <typename T, typename C>
inline constexpr bool kSizedCollector<T, terminals::Collect<C>> =
    SizedSinkCollector<C, T>;
template <typename T, typename Term>
inline constexpr bool kChunkCollector = false;
template <typename T, typename C>
inline constexpr bool kChunkCollector<T, terminals::Collect<C>> =
    ChunkAccumulatingCollector<C, T>;

}  // namespace detail

/// THE terminal entry point: evaluate a terminal over a FusedPipeline whose
/// output element type is T — plan (plan_fused_pipeline), record, walk.
/// Every Stream terminal calls this on the pipeline it holds; the static
/// pipeline calls it after appending its StaticChainStage.
template <typename T, typename Term>
auto evaluate_fused(FusedPipeline& fused, const Term& term, bool parallel,
                    const ExecutionConfig& cfg = {},
                    PlanOrigin origin = PlanOrigin::kStatic) {
  PLS_CHECK(fused.output_type() == typeid(T),
            "fused pipeline output type does not match the terminal");
  const ExecutionPlan plan = plan_fused_pipeline(
      fused, Term::kind, detail::kSizedCollector<T, Term>,
      detail::kChunkCollector<T, Term>, parallel, cfg, origin);
  record_plan(plan);
  // Declared before the dispatch: its destructor fires once the
  // terminal's result is materialized, appending one RunRecord covering
  // the full run.
  RunScope run_scope(plan);
  if constexpr (Term::kind == TerminalKind::kCollect) {
    return detail::run_collect<T>(fused, term, cfg, plan);
  } else {
    return detail::run_walk<T>(fused, term, cfg, plan);
  }
}

}  // namespace pls::streams
