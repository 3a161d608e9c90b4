// Stream<T>: the lazy pipeline facade (mirrors java.util.stream.Stream).
//
// A Stream owns its pipeline — the source spliterator plus the stage
// chain, a FusedPipeline (streams/fusion.hpp) — and its execution
// settings (sequential vs. parallel, pool, chunk target). Intermediate
// operations append a stage and return a new Stream; terminal operations
// evaluate the pipeline (evaluate_fused) — a Stream, like Java's, is
// single-use.
//
// Parallelism is requested exactly as in the paper's snippets: create the
// stream from a spliterator with `parallel = true`
// (stream_support::from_spliterator, the analogue of StreamSupport.stream)
// or toggle with .parallel()/.sequential().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "streams/collector.hpp"
#include "streams/fusion.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterator.hpp"
#include "streams/spliterators.hpp"
#include "support/assert.hpp"

namespace pls::streams {

namespace detail {

/// sorted's source: Java's full-barrier stateful op as a lazy buffer. At
/// first observation it drives the upstream pipeline into a vector and
/// sorts it; from then on it is an array spliterator over the buffer, so
/// the pipeline restarts on a fresh windowed SIZED|SUBSIZED source and
/// every stage *downstream* of sorted still fuses.
template <typename T, typename Cmp>
class SortedBufferSource final : public Spliterator<T>,
                                 public WindowedSource {
 public:
  using Action = typename Spliterator<T>::Action;

  SortedBufferSource(std::unique_ptr<FusedPipeline> upstream, Cmp cmp)
      : upstream_(std::move(upstream)), cmp_(std::move(cmp)) {
    PLS_CHECK(upstream_ != nullptr, "sorted requires an upstream pipeline");
  }

  bool try_advance(Action action) override {
    return buffer().try_advance(action);
  }

  void for_each_remaining(Action action) override {
    buffer().for_each_remaining(action);
  }

  StridedSpan<T> try_take_span() override {
    return buffer().try_take_span();
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    return buffer().try_split();
  }

  // The shape probes buffer eagerly: sorted is a full barrier regardless,
  // and the buffer recovers exact sizing even when upstream obscured it —
  // the planner must see the same shape the drive will.
  std::uint64_t estimate_size() const override {
    return buffer().estimate_size();
  }

  Characteristics characteristics() const override {
    return buffer().characteristics() | kSorted;
  }

  std::optional<OutputWindow> try_output_window() const override {
    // Only the materialised buffer can name destination positions.
    return output_window_of(buffer());
  }

 private:
  // Logically const: every observation goes through the buffer, so
  // materialising it early never changes what callers see.
  ArraySpliterator<T>& buffer() const {
    if (!buffer_) {
      auto values = std::make_shared<std::vector<T>>();
      const auto push = [&](const T& v) { values->push_back(v); };
      ForEachSink<T, decltype(push)> sink(push);
      upstream_->drive(sink);
      upstream_.reset();
      std::sort(values->begin(), values->end(), cmp_);
      buffer_ = std::make_unique<ArraySpliterator<T>>(
          std::shared_ptr<const std::vector<T>>(std::move(values)));
    }
    return *buffer_;
  }

  mutable std::unique_ptr<FusedPipeline> upstream_;
  Cmp cmp_;
  mutable std::unique_ptr<ArraySpliterator<T>> buffer_;
};

}  // namespace detail

template <typename T>
class Stream {
 public:
  /// Adopt a spliterator (the analogue of StreamSupport.stream).
  Stream(std::unique_ptr<Spliterator<T>> source, bool parallel)
      : parallel_(parallel) {
    PLS_CHECK(source != nullptr, "Stream requires a source spliterator");
    pipeline_ = fuse_source(source);
  }

  // ---- factories ----------------------------------------------------

  /// Stream over a copy (or move) of a vector.
  static Stream<T> of(std::vector<T> values) {
    auto shared =
        std::make_shared<const std::vector<T>>(std::move(values));
    return Stream<T>(std::make_unique<ArraySpliterator<T>>(shared), false);
  }

  /// Stream over shared storage (no copy).
  static Stream<T> of_shared(std::shared_ptr<const std::vector<T>> values) {
    return Stream<T>(std::make_unique<ArraySpliterator<T>>(std::move(values)),
                     false);
  }

  /// Integer range [begin, end).
  static Stream<T> range(T begin, T end) {
    static_assert(std::is_integral_v<T>, "range requires an integer type");
    return Stream<T>(std::make_unique<RangeSpliterator<T>>(begin, end),
                     false);
  }

  /// n elements produced by fn(0), fn(1), ..., fn(n-1).
  template <typename Fn>
  static Stream<T> generate(Fn fn, std::uint64_t n) {
    auto shared = std::make_shared<const Fn>(std::move(fn));
    return Stream<T>(
        std::make_unique<GenerateSpliterator<T, Fn>>(shared, 0, n), false);
  }

  /// Infinite stream seed, next(seed), ... (Stream.iterate); bound it
  /// with .limit(n). Parallel evaluation carves array batches off the
  /// lazy tail (see streams/unsized.hpp).
  template <typename Next>
  static Stream<T> iterate(T seed, Next next);

  /// All elements of `a`, then all elements of `b` (Stream.concat).
  /// Execution settings are taken from `a`. A side without stages joins
  /// as its bare source; a side with stages is pulled through the
  /// pipeline adapter (FusedSpliterator).
  static Stream<T> concat(Stream<T> a, Stream<T> b) {
    std::unique_ptr<Spliterator<T>> joined =
        std::make_unique<ConcatSpliterator<T>>(
            as_spliterator<T>(a.take_pipeline()),
            as_spliterator<T>(b.take_pipeline()));
    return Stream<T>(fuse_source(joined), a.parallel_, a.config_);
  }

  // ---- execution configuration --------------------------------------
  //
  // All execution builders are &&-qualified: a Stream is single-use and
  // the builders consume it, exactly like the intermediate operations.
  // Lvalue chaining was a foot-gun (it silently mutated a stream someone
  // else still held) and is deleted.

  Stream<T>& parallel() & = delete;
  Stream<T>&& parallel() && {
    parallel_ = true;
    return std::move(*this);
  }
  /// Parallel with an explicit execution config (pool, chunk target,
  /// sized-sink toggle, auto-grain), e.g. the one handed out by
  /// pls::session::stream_config().
  Stream<T>&& parallel(const ExecutionConfig& cfg) && {
    parallel_ = true;
    config_ = cfg;
    return std::move(*this);
  }
  Stream<T>& sequential() & = delete;
  Stream<T>&& sequential() && {
    parallel_ = false;
    return std::move(*this);
  }
  bool is_parallel() const noexcept { return parallel_; }

  /// Run parallel terminals on a specific pool (default: common pool).
  Stream<T>&& via(forkjoin::ForkJoinPool& pool) && {
    config_.with_pool(pool);
    return std::move(*this);
  }

  /// Set the split target: chunks of at most `n` elements.
  Stream<T>&& with_min_chunk(std::uint64_t n) && {
    config_.with_min_chunk(n);
    return std::move(*this);
  }

  /// Allow or forbid the destination-passing collect path (on by
  /// default; see docs/execution.md). Off forces every collect through
  /// the supplier/combiner reduction.
  Stream<T>&& with_sized_sink(bool enabled) && {
    config_.with_sized_sink(enabled);
    return std::move(*this);
  }

  /// Replace the whole execution configuration at once (pool, grain,
  /// sized-sink, auto-grain) — the bulk form of the with_*
  /// setters above, for callers that already hold an ExecutionConfig.
  Stream<T>&& with_config(const ExecutionConfig& cfg) && {
    config_ = cfg;
    return std::move(*this);
  }

  // ---- intermediate operations (consume the stream) ------------------
  //
  // Each appends its StageNode (streams/fusion.hpp) to the pipeline.

  template <typename Fn>
  auto map(Fn fn) && {
    using U = std::remove_cvref_t<std::invoke_result_t<Fn&, const T&>>;
    return append<U>(std::make_shared<MapStage<U, T, Fn>>(
        std::make_shared<const Fn>(std::move(fn))));
  }

  template <typename Pred>
  Stream<T> filter(Pred pred) && {
    return append<T>(std::make_shared<FilterStage<T, Pred>>(
        std::make_shared<const Pred>(std::move(pred))));
  }

  template <typename Fn>
  Stream<T> peek(Fn observer) && {
    return append<T>(std::make_shared<PeekStage<T, Fn>>(
        std::make_shared<const Fn>(std::move(observer))));
  }

  /// Fn(T) -> std::vector<U>, concatenating the results.
  template <typename Fn>
  auto flat_map(Fn fn) && {
    using Vec = std::remove_cvref_t<std::invoke_result_t<Fn&, const T&>>;
    using U = typename Vec::value_type;
    return append<U>(std::make_shared<FlatMapStage<U, T, Fn>>(
        std::make_shared<const Fn>(std::move(fn))));
  }

  /// Truncate to at most n elements. Sequential slicing semantics: the
  /// stage cancels, so the pipeline never splits (slicing a parallel
  /// pipeline deterministically needs encounter-order bookkeeping that
  /// Java, too, pays a heavy price for).
  Stream<T> limit(std::uint64_t n) && {
    return append<T>(std::make_shared<SliceStage<T>>(0, n));
  }

  /// Drop the first n elements (sequential slicing semantics).
  Stream<T> skip(std::uint64_t n) && {
    return append<T>(std::make_shared<SliceStage<T>>(
        n, std::numeric_limits<std::uint64_t>::max()));
  }

  /// Longest prefix satisfying the predicate (Java 9's takeWhile).
  /// Sequential slicing semantics, like limit.
  template <typename Pred>
  Stream<T> take_while(Pred pred) && {
    return append<T>(std::make_shared<TakeWhileStage<T, Pred>>(
        std::make_shared<const Pred>(std::move(pred))));
  }

  /// Drop the longest prefix satisfying the predicate (dropWhile). Its
  /// still-dropping flag makes the chain single-leaf-only.
  template <typename Pred>
  Stream<T> drop_while(Pred pred) && {
    return append<T>(std::make_shared<DropWhileStage<T, Pred>>(
        std::make_shared<const Pred>(std::move(pred))));
  }

  /// Sort the elements (stateful: materialises lazily at first
  /// observation, like Java's sorted()). The pipeline restarts on the
  /// sorted buffer as a fresh windowed array source, so downstream stages
  /// still fuse.
  template <typename Cmp = std::less<T>>
  Stream<T> sorted(Cmp cmp = Cmp{}) && {
    std::unique_ptr<Spliterator<T>> buffer =
        std::make_unique<detail::SortedBufferSource<T, Cmp>>(take_pipeline(),
                                                             std::move(cmp));
    return Stream<T>(fuse_source(buffer), parallel_, config_);
  }

  /// Remove duplicates, keeping first occurrences (stateful: the seen-set
  /// makes the chain single-leaf-only).
  Stream<T> distinct() && {
    return append<T>(std::make_shared<DistinctStage<T>>());
  }

  // ---- typed static pipeline -----------------------------------------

  /// Hand the stream's source to a compile-time stage stack: the ops
  /// (streams/static_fusion.hpp: stages::map/filter/peek values) become a
  /// tuple type, and terminals run the whole chain as one inlined loop
  /// per chunk with no virtual calls between stages. Defined in
  /// streams/static_fusion.hpp (include it, or pls.hpp, to use).
  template <typename... Ops>
  auto stages(Ops&&... ops) &&;

  // ---- terminal operations -------------------------------------------

  /// Mutable reduction with a Collector (the template method of the
  /// paper's adaptation).
  template <typename C>
  typename C::result_type collect(const C& collector) && {
    return run(terminals::collect(collector));
  }

  /// Three-function collect, as in the paper's snippets:
  /// collect(supplier, accumulator, combiner).
  template <typename SupplyFn, typename AccumulateFn, typename CombineFn>
  auto collect(SupplyFn supply, AccumulateFn accumulate,
               CombineFn combine) && {
    auto c = make_collector<T>(std::move(supply), std::move(accumulate),
                               std::move(combine));
    return run(terminals::collect(c));
  }

  /// Reduce with an associative operator; nullopt on an empty stream.
  template <typename Op>
  std::optional<T> reduce(Op op) && {
    return run(terminals::reduce(op));
  }

  /// Reduce with identity; `identity` must be a true identity of `op`.
  template <typename Op>
  T reduce(T identity, Op op) && {
    auto r = run(terminals::reduce(op));
    return r.has_value() ? std::move(*r) : std::move(identity);
  }

  template <typename Fn>
  void for_each(Fn fn) && {
    run(terminals::for_each(fn));
  }

  std::uint64_t count() && { return run(terminals::count()); }

  std::vector<T> to_vector() && {
    return run(terminals::collect(VectorCollector<T>{}));
  }

  template <typename Cmp = std::less<T>>
  std::optional<T> min(Cmp cmp = Cmp{}) && {
    return std::move(*this).reduce(
        [cmp](const T& a, const T& b) { return cmp(b, a) ? b : a; });
  }

  template <typename Cmp = std::less<T>>
  std::optional<T> max(Cmp cmp = Cmp{}) && {
    return std::move(*this).reduce(
        [cmp](const T& a, const T& b) { return cmp(a, b) ? b : a; });
  }

  /// Sum of elements (arithmetic T); empty stream sums to T{}.
  T sum() && {
    static_assert(std::is_arithmetic_v<T>, "sum requires arithmetic T");
    return std::move(*this).reduce(T{},
                                   [](T a, T b) { return a + b; });
  }

  /// Short-circuit search terminals (sequential encounter-order
  /// traversal). Planned like every other terminal: a cancelling terminal
  /// sink runs through the element-mode push loop
  /// (DriveMode::kElementLoop), consuming the source no deeper than the
  /// first deciding element.
  template <typename Pred>
  bool any_match(Pred pred) && {
    return run(terminals::any_match(pred));
  }

  /// Direct cancelling sink — not a negated any_match, so no negated
  /// predicate wrapper is evaluated per element.
  template <typename Pred>
  bool all_match(Pred pred) && {
    return run(terminals::all_match(pred));
  }

  template <typename Pred>
  bool none_match(Pred pred) && {
    return run(terminals::none_match(pred));
  }

  std::optional<T> find_first() && { return run(terminals::find_first()); }

  // ---- introspection --------------------------------------------------

  /// The pipeline's characteristic flags: the source's, folded through
  /// every stage (e.g. to check POWER2 before applying a PowerList
  /// function, as the paper's snippet does).
  Characteristics characteristics() const {
    return pipeline_->output_characteristics();
  }

  /// The pipeline's size estimate (exact while characteristics() has
  /// kSized).
  std::uint64_t estimate_size() const { return pipeline_->output_estimate(); }

 private:
  Stream(std::unique_ptr<FusedPipeline> pipeline, bool parallel,
         const ExecutionConfig& config)
      : pipeline_(std::move(pipeline)), parallel_(parallel), config_(config) {
    PLS_CHECK(pipeline_ != nullptr && pipeline_->output_type() == typeid(T),
              "Stream requires a pipeline of its element type");
  }

  std::unique_ptr<FusedPipeline> take_pipeline() {
    PLS_CHECK(pipeline_ != nullptr, "Stream is single-use");
    return std::move(pipeline_);
  }

  template <typename U>
  Stream<U> append(std::shared_ptr<const StageNode> stage) {
    auto pipeline = take_pipeline();
    pipeline->append_stage(std::move(stage));
    return Stream<U>(std::move(pipeline), parallel_, config_);
  }

  template <typename Term>
  auto run(const Term& term) {
    const auto pipeline = take_pipeline();
    return evaluate_fused<T>(*pipeline, term, parallel_, config_,
                             PlanOrigin::kDynamic);
  }

  template <typename U>
  friend class Stream;

  // The typed static pipeline adopts a stream's pipeline and settings
  // (streams/static_fusion.hpp).
  template <typename S, typename... Ops>
  friend class StaticPipeline;

  std::unique_ptr<FusedPipeline> pipeline_;
  bool parallel_ = false;
  ExecutionConfig config_{};
};

namespace stream_support {

/// The analogue of StreamSupport.stream(spliterator, parallel).
template <typename T>
Stream<T> from_spliterator(std::unique_ptr<Spliterator<T>> sp,
                           bool parallel) {
  return Stream<T>(std::move(sp), parallel);
}

}  // namespace stream_support

}  // namespace pls::streams

#include "streams/unsized.hpp"

namespace pls::streams {

template <typename T>
template <typename Next>
Stream<T> Stream<T>::iterate(T seed, Next next) {
  return Stream<T>(iterate_stream(std::move(seed), std::move(next)), false);
}

}  // namespace pls::streams
