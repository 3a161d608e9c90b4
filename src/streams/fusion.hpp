// Pipeline fusion: a stream pipeline as its source spliterator plus the
// ordered stage chain, so terminal evaluation composes one Sink chain per
// leaf and runs a single tight push loop (docs/execution.md, "Pipeline
// fusion").
//
// A Stream holds its FusedPipeline from the start: the constructor adopts
// the source through fuse_source, and every intermediate op appends its
// immutable StageNode. Each StageNode is the one home of its op: it wraps
// a downstream sink, and it says how the op transforms the element count
// and the characteristic flags, so Stream introspection folds the source
// through the stages. Two ops still pull. sorted is a full barrier: it
// drives its upstream pipeline into a buffer and the pipeline restarts on
// that buffer (streams/stream.hpp). concat joins two spliterators, so a
// side that carries stages is seen through FusedSpliterator, the one
// generic pull adapter, which steps the element-mode drive one source
// element at a time.
//
// Splitting a FusedPipeline splits the source and shares the stage chain,
// so the parallel tree walk forks fused leaves wherever the source splits.
// The sibling leaves of an interleaved (zip-split) source are driven in
// lockstep: one gather pass over their common window deals each batch to
// its own leaf's chain (drive_lockstep).
// Chains containing a cancelling stage (limit/skip/take_while) refuse to
// split and always run the element-mode driver, preserving short-circuit
// consumption depth. Stateful chains (distinct, drop_while) also refuse
// to split, but keep the chunked transport within their single leaf.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <typeinfo>
#include <utility>
#include <vector>

#include "forkjoin/walk.hpp"
#include "streams/sink.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"

namespace pls::streams {

/// Immutable, type-erased descriptor of one intermediate operation. The
/// concrete templates below carry the shared operator and know how to
/// wrap a downstream sink; the type-erased face is what FusedPipeline
/// stores and what chain assembly walks — one virtual wrap_sink per stage
/// per leaf, never per element.
class StageNode {
 public:
  virtual ~StageNode() = default;

  /// Wrap `downstream` (a Sink of this stage's output type) into a sink of
  /// this stage's input type. Chain typing is enforced at append time via
  /// input_type()/output_type(), so the static_cast inside is sound.
  virtual std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const = 0;

  virtual const std::type_info& input_type() const noexcept = 0;
  virtual const std::type_info& output_type() const noexcept = 0;

  /// True for short-circuit stages (limit / take_while): the chain must
  /// run element-mode with cancellation checks and never split.
  virtual bool cancels() const noexcept { return false; }

  /// True for stages whose sink carries traversal-wide state (distinct's
  /// seen-set, drop_while's still-dropping flag): the chain must be driven
  /// by exactly one leaf — split products would each dedup against their
  /// own empty set — but may still use the chunked transport.
  virtual bool stateful() const noexcept { return false; }

  /// True when the stage maps elements 1:1 (map / peek) — the property
  /// that keeps destination windows meaningful through the chain.
  virtual bool one_to_one() const noexcept { return true; }

  /// How the stage transforms a known upstream element count; returns
  /// kUnknownSinkSize when the result count cannot be known (filter,
  /// take_while). Leaves feed the observe counters the count folded
  /// through every stage, and Stream::estimate_size() keeps the upstream
  /// count as its bound where this returns kUnknownSinkSize.
  virtual std::uint64_t transform_count(std::uint64_t count) const noexcept {
    return count;
  }

  /// The characteristic flags of the stage's output given its upstream's
  /// (Stream::characteristics() folds the source through every stage).
  /// A stage drops kSized exactly where transform_count is unknowable.
  virtual Characteristics transform_characteristics(
      Characteristics upstream) const noexcept {
    return upstream;
  }
};

/// A pipeline: the source spliterator (of a hidden element type) plus the
/// stage chain, ready to drive sink chains. Output element type is
/// stages.back().output_type(), checked at every append_stage.
class FusedPipeline {
 public:
  virtual ~FusedPipeline() = default;

  /// Remaining source elements (exact when the source is SIZED).
  virtual std::uint64_t estimate_size() const = 0;

  /// The source's characteristic flags (the planner's shape facts).
  virtual Characteristics source_characteristics() const = 0;

  /// The source's destination window, or nullopt when it names none
  /// (split products inherit it from their source).
  virtual std::optional<OutputWindow> source_window() const = 0;

  /// Split off a prefix pipeline sharing this stage chain, or nullptr
  /// (always nullptr for cancelling chains).
  virtual std::unique_ptr<FusedPipeline> try_split() = 0;

  /// Push every remaining source element through the composed sink chain
  /// into `terminal` (a Sink of the pipeline's output type). Calls
  /// begin/end; uses the chunked transport unless the chain cancels.
  virtual void drive(SinkControl& terminal) = 0;

  /// drive() for sibling split products of one pipeline, called on any
  /// one of them: leaves[j] is pushed into terminals[j], each through its
  /// own sink chain. When their sources' spans interleave into one window
  /// (the leaves of one task over a kInterleaved source: one count, one
  /// stride, starts a window step apart), one gather pass over that window
  /// deals each kFusionChunk batch to its own chain, cut at the same
  /// boundaries as each leaf's own drive(); otherwise each leaf drives in
  /// turn. At most forkjoin::kBatchLeaves leaves.
  virtual void drive_lockstep(std::span<FusedPipeline* const> leaves,
                              std::span<SinkControl* const> terminals) = 0;

  /// Like drive(), but always element-mode with a cancellation check
  /// between source elements, regardless of whether any *stage* cancels —
  /// for short-circuit terminals (any/all/none_match, find_first), whose
  /// cancellation signal lives in the terminal sink itself.
  virtual void drive_short_circuit(SinkControl& terminal) = 0;

  /// The element-mode drive in three steps, for callers that pull:
  /// open() composes the sink chain into `terminal` and calls begin;
  /// each step() pushes one source element through it and returns false
  /// once the chain cancels or the source is exhausted; close() calls end.
  virtual void open(SinkControl& terminal) = 0;
  virtual bool step() = 0;
  virtual void close() = 0;

  virtual const std::type_info& output_type() const noexcept = 0;

  /// Append the next stage downstream. Checks the element-type seam.
  virtual void append_stage(std::shared_ptr<const StageNode> stage) = 0;

  /// Re-arm the chain for another drive. Batch terminals drive a pipeline
  /// exactly once; the service layer (src/service/) plans a chain once per
  /// session and drives it once per micro-batch, so the source must be a
  /// ReusableSource and the chain must be re-armed between drives.
  /// PLS_CHECKs that the chain is resettable: no cancelling stage (a
  /// short-circuited chain has consumed an unknowable prefix), the
  /// previous drive did not end cancelled (accidental reuse of a
  /// cancelled chain is a bug, not a retry), and the source opts in via
  /// ReusableSource.
  virtual void reset() = 0;

  bool cancels() const noexcept { return cancels_; }
  bool one_to_one() const noexcept { return one_to_one_; }
  bool stateful() const noexcept { return stateful_; }

  /// Number of stages in the chain (the planner's stage summary).
  std::size_t stage_count() const noexcept { return stages().size(); }

  /// The source's characteristics folded through every stage: what the
  /// pipeline's output reports (Stream::characteristics()).
  Characteristics output_characteristics() const {
    Characteristics c = source_characteristics();
    for (const auto& s : stages()) c = s->transform_characteristics(c);
    return c;
  }

  /// The source's size estimate folded through every stage
  /// (Stream::estimate_size()): exact while the output stays kSized, the
  /// upstream bound past a stage whose count is unknowable.
  std::uint64_t output_estimate() const {
    std::uint64_t n = estimate_size();
    for (const auto& s : stages()) {
      const std::uint64_t t = s->transform_count(n);
      if (t != kUnknownSinkSize) n = t;
    }
    return n;
  }

  /// The element count a leaf reports to the observe counters: the
  /// output estimate while the output is kSized, 0 for an unsized source
  /// or once any stage makes the count unknowable.
  std::uint64_t countable_estimate() const {
    return has_characteristics(output_characteristics(), kSized)
               ? output_estimate()
               : 0;
  }

 protected:
  virtual const std::vector<std::shared_ptr<const StageNode>>& stages()
      const noexcept = 0;

  bool cancels_ = false;
  bool one_to_one_ = true;
  bool stateful_ = false;
};

/// Mixin for spliterators that can be driven more than once. A source
/// implementing this promises that rearm() restores it to "everything
/// remaining" — either over the same bound data or over data freshly
/// bound between drives (the service layer's BatchSpliterator rebinds a
/// new micro-batch before each rearm). FusedPipeline::reset() requires
/// the source to implement this; ordinary one-shot sources never do.
class ReusableSource {
 public:
  virtual ~ReusableSource() = default;
  virtual void rearm() = 0;
};

template <typename S>
class FusedPipelineImpl final : public FusedPipeline {
 public:
  explicit FusedPipelineImpl(std::unique_ptr<Spliterator<S>> source)
      : source_(std::move(source)) {
    PLS_CHECK(source_ != nullptr, "fused pipeline requires a source");
  }

  std::uint64_t estimate_size() const override {
    return source_->estimate_size();
  }

  Characteristics source_characteristics() const override {
    return source_->characteristics();
  }

  std::optional<OutputWindow> source_window() const override {
    return output_window_of(*source_);
  }

  std::unique_ptr<FusedPipeline> try_split() override {
    if (cancels_ || stateful_) return nullptr;
    auto prefix = source_->try_split();
    if (!prefix) return nullptr;
    auto out = std::make_unique<FusedPipelineImpl<S>>(std::move(prefix));
    out->stages_ = stages_;
    out->cancels_ = cancels_;
    out->one_to_one_ = one_to_one_;
    out->stateful_ = stateful_;
    return out;
  }

  const std::type_info& output_type() const noexcept override {
    return stages_.empty() ? typeid(S) : stages_.back()->output_type();
  }

  void append_stage(std::shared_ptr<const StageNode> stage) override {
    PLS_CHECK(stage != nullptr, "null fusion stage");
    PLS_CHECK(stage->input_type() == output_type(),
              "fusion stage input does not match chain output");
    cancels_ = cancels_ || stage->cancels();
    one_to_one_ = one_to_one_ && stage->one_to_one();
    stateful_ = stateful_ || stage->stateful();
    stages_.push_back(std::move(stage));
  }

  void drive(SinkControl& terminal) override {
    run_drive(terminal, /*element_mode=*/cancels_);
  }

  void drive_lockstep(std::span<FusedPipeline* const> leaves,
                      std::span<SinkControl* const> terminals) override {
    const std::size_t k = leaves.size();
    PLS_CHECK(k == terminals.size() && k >= 1 && k <= forkjoin::kBatchLeaves,
              "lockstep drive needs one terminal per leaf, at most "
              "kBatchLeaves leaves");
    // A cancelling chain refuses to split, so it never has siblings.
    PLS_CHECK(!cancels_, "a cancelling chain drives one leaf at a time");
    std::array<FusedPipelineImpl*, forkjoin::kBatchLeaves> leaf{};
    std::array<StridedSpan<S>, forkjoin::kBatchLeaves> spans{};
    for (std::size_t j = 0; j < k; ++j) {
      PLS_CHECK(typeid(*leaves[j]) == typeid(*this),
                "lockstep leaves must be split products of one pipeline");
      leaf[j] = static_cast<FusedPipelineImpl*>(leaves[j]);
      leaf[j]->open(*terminals[j]);
      spans[j] = leaf[j]->source_->try_take_span();
    }
    bool together = false;
    if constexpr (kGatherable) {
      std::array<std::size_t, forkjoin::kBatchLeaves> order{};
      together = k > 1 && interleaved(spans, k, order);
      if (together) {
        std::array<Sink<S>*, forkjoin::kBatchLeaves> heads{};
        for (std::size_t q = 0; q < k; ++q) heads[q] = leaf[order[q]]->head_;
        const std::span<Sink<S>* const> hs{heads.data(), k};
        const StridedSpan<S>& first = spans[order[0]];
        const std::size_t step = first.stride / k;
        // k is a power of two above 1 and at most kBatchLeaves.
        static_assert(forkjoin::kBatchLeaves == 4);
        if (k == 2) {
          gather_rows<2>(hs, first.data, first.stride, step, first.count);
        } else {
          gather_rows<4>(hs, first.data, first.stride, step, first.count);
        }
      }
    }
    for (std::size_t j = 0; !together && j < k; ++j) {
      leaf[j]->drive_span(*leaf[j]->head_, spans[j]);
    }
    for (std::size_t j = 0; j < k; ++j) leaf[j]->close();
  }

  void drive_short_circuit(SinkControl& terminal) override {
    run_drive(terminal, /*element_mode=*/true);
  }

  void open(SinkControl& terminal) override {
    PLS_CHECK(!driven_,
              "fused pipeline already driven; call reset() between drives");
    driven_ = true;
    // Compose the sink chain back-to-front: terminal first, then each
    // stage outermost-in. One virtual wrap_sink per stage per leaf.
    chain_.clear();
    SinkControl* down = &terminal;
    for (std::size_t i = stages_.size(); i-- > 0;) {
      chain_.push_back(stages_[i]->wrap_sink(*down));
      down = chain_.back().get();
    }
    // `down` now consumes the source element type S: it is either the
    // innermost stage's sink or (stage-free chain) the terminal itself,
    // whose element type the caller matched to output_type() == S.
    head_ = &static_cast<Sink<S>&>(*down);
    head_->begin(source_->has(kSized) ? source_->estimate_size()
                                      : kUnknownSinkSize);
  }

  /// Element mode: one source element per call, with the cancellation
  /// check ahead of the pull, so the source is consumed exactly as deep
  /// as the chain's short-circuit demands.
  bool step() override {
    return !head_->cancellation_requested() &&
           source_->try_advance([&](const S& v) { head_->accept(v); });
  }

  void close() override {
    head_->end();
    last_drive_cancelled_ = head_->cancellation_requested();
    head_ = nullptr;
    chain_.clear();
  }

  void reset() override {
    PLS_CHECK(!cancels_,
              "cannot reset a fused pipeline with a cancelling stage "
              "(limit/take_while chains are single-drive)");
    PLS_CHECK(!last_drive_cancelled_,
              "cannot reset a fused pipeline whose last drive was "
              "cancelled (the source was left partially consumed)");
    auto* reusable = dynamic_cast<ReusableSource*>(source_.get());
    PLS_CHECK(reusable != nullptr,
              "fused pipeline source is not reusable (ReusableSource)");
    reusable->rearm();
    driven_ = false;
  }

  /// Hand back the source of a stage-free pipeline (concat joins bare
  /// sources; see as_spliterator).
  std::unique_ptr<Spliterator<S>> release_source() {
    PLS_CHECK(stages_.empty(), "only a stage-free pipeline is its source");
    return std::move(source_);
  }

 private:
  void run_drive(SinkControl& terminal, bool element_mode) {
    open(terminal);
    if (element_mode) {
      while (step()) {
      }
    } else {
      drive_span(*head_, source_->try_take_span());
    }
    close();
  }

  /// Element types the gather copies into uninitialised scratch by plain
  /// assignment.
  static constexpr bool kGatherable = std::is_trivially_copyable_v<S> &&
                                      std::is_default_constructible_v<S>;

  /// Chunked transport of one leaf from the span its source handed over
  /// (try_take_span). A memory-backed source hands over its remaining
  /// elements as one strided span: stride 1 goes to the chain whole (zero
  /// copies), any other stride is gathered into scratch a kFusionChunk
  /// batch at a time. Other sources, and element types the gather cannot
  /// copy, batch through a buffer at one push per element. Both batchings
  /// cut at the same boundaries, so a source's results do not depend on
  /// its route. Non-copyable elements fall back to element pushes.
  void drive_span(Sink<S>& head, const StridedSpan<S>& span) {
    if (span.data != nullptr && span.stride == 1) {
      if (span.count != 0) head.accept_chunk(span.data, span.count);
      return;
    }
    if constexpr (kGatherable) {
      if (span.data != nullptr) {
        Sink<S>* heads[] = {&head};
        gather_rows<1>(heads, span.data, span.stride, span.stride, span.count);
        return;
      }
    }
    if constexpr (std::is_copy_constructible_v<S>) {
      std::vector<S> buf;
      buf.reserve(kFusionChunk);
      const auto put = [&](const S& v) {
        buf.push_back(v);
        if (buf.size() == kFusionChunk) {
          head.accept_chunk(buf.data(), buf.size());
          buf.clear();
        }
      };
      for (std::size_t k = 0; k < span.count; ++k) {
        put(span.data[k * span.stride]);
      }
      source_->for_each_remaining(put);
      if (!buf.empty()) head.accept_chunk(buf.data(), buf.size());
    } else {
      for (std::size_t k = 0; k < span.count; ++k) {
        head.accept(span.data[k * span.stride]);
      }
      source_->for_each_remaining([&](const S& v) { head.accept(v); });
    }
  }

  /// True when the k spans (k a power of two) interleave into one window:
  /// one count, one stride divisible by k, and starts stride / k apart.
  /// `order` receives the spans in memory order.
  static bool interleaved(
      const std::array<StridedSpan<S>, forkjoin::kBatchLeaves>& spans,
      std::size_t k, std::array<std::size_t, forkjoin::kBatchLeaves>& order) {
    for (std::size_t q = 0; q < k; ++q) order[q] = q;
    std::sort(order.begin(), order.begin() + k, [&](std::size_t a,
                                                    std::size_t b) {
      return std::less<const S*>{}(spans[a].data, spans[b].data);
    });
    const StridedSpan<S>& first = spans[order[0]];
    if ((k & (k - 1)) != 0 || first.data == nullptr || first.stride % k != 0) {
      return false;
    }
    for (std::size_t q = 0; q < k; ++q) {
      const StridedSpan<S>& sq = spans[order[q]];
      if (sq.count != first.count || sq.stride != first.stride ||
          sq.data != first.data + q * (first.stride / k)) {
        return false;
      }
    }
    return true;
  }

  /// One pass over a strided window of `count` rows: row i holds element
  /// i of every head, head q's at base[i * stride + q * step]. Each
  /// kFusionChunk batch of rows is gathered into one scratch slot per
  /// head and handed to that head whole.
  template <std::size_t K>
  static void gather_rows(std::span<Sink<S>* const> heads, const S* base,
                          std::size_t stride, std::size_t step,
                          std::size_t count) {
    PLS_ASSERT(heads.size() == K);
    const std::size_t per = std::min(count, kFusionChunk);
    const auto scratch = std::make_unique_for_overwrite<S[]>(K * per);
    for (std::size_t i = 0; i < count; i += kFusionChunk) {
      const std::size_t m = std::min(count - i, kFusionChunk);
      const S* row = base + i * stride;
      for (std::size_t j = 0; j < m; ++j, row += stride) {
        for (std::size_t q = 0; q < K; ++q) {
          scratch[q * per + j] = row[q * step];
        }
      }
      for (std::size_t q = 0; q < K; ++q) {
        heads[q]->accept_chunk(scratch.get() + q * per, m);
      }
    }
  }

  const std::vector<std::shared_ptr<const StageNode>>& stages()
      const noexcept override {
    return stages_;
  }

  std::unique_ptr<Spliterator<S>> source_;
  std::vector<std::shared_ptr<const StageNode>> stages_;
  // The composed sink chain of the open drive (open() to close()).
  std::vector<std::unique_ptr<SinkControl>> chain_;
  Sink<S>* head_ = nullptr;
  bool driven_ = false;
  bool last_drive_cancelled_ = false;
};

// ---- stage descriptors ----------------------------------------------

template <typename Out, typename In, typename Fn>
class MapStage final : public StageNode {
 public:
  explicit MapStage(std::shared_ptr<const Fn> fn) : fn_(std::move(fn)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<MapSink<In, Out, Fn>>(
        fn_, static_cast<Sink<Out>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(In);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(Out);
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    // Mapping preserves size and order but not sortedness/distinctness.
    return upstream & ~(kSorted | kDistinct);
  }

 private:
  std::shared_ptr<const Fn> fn_;
};

template <typename T, typename Pred>
class FilterStage final : public StageNode {
 public:
  explicit FilterStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<FilterSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    return upstream & ~(kSized | kSubsized | kPower2 | kInterleaved);
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

template <typename T, typename Fn>
class PeekStage final : public StageNode {
 public:
  explicit PeekStage(std::shared_ptr<const Fn> observer)
      : observer_(std::move(observer)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<PeekSink<T, Fn>>(
        observer_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }

 private:
  std::shared_ptr<const Fn> observer_;
};

template <typename T>
class SliceStage final : public StageNode {
 public:
  SliceStage(std::uint64_t skip, std::uint64_t limit)
      : skip_(skip), limit_(limit) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<SliceSink<T>>(skip_, limit_,
                                          static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool cancels() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t count) const noexcept override {
    // The slice of a known count is known: slicing keeps kSized.
    const std::uint64_t after_skip = count > skip_ ? count - skip_ : 0;
    return after_skip < limit_ ? after_skip : limit_;
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    return upstream & ~(kSubsized | kPower2 | kInterleaved);
  }

 private:
  std::uint64_t skip_;
  std::uint64_t limit_;
};

template <typename Out, typename In, typename Fn>
class FlatMapStage final : public StageNode {
 public:
  explicit FlatMapStage(std::shared_ptr<const Fn> fn) : fn_(std::move(fn)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<FlatMapSink<In, Out, Fn>>(
        fn_, static_cast<Sink<Out>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(In);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(Out);
  }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    // Fan-out per element is arbitrary, so the count is unknowable.
    return kUnknownSinkSize;
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    return upstream & ~(kSized | kSubsized | kSorted | kDistinct | kPower2 |
                       kInterleaved);
  }

 private:
  std::shared_ptr<const Fn> fn_;
};

template <typename T>
class DistinctStage final : public StageNode {
 public:
  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<DistinctSink<T>>(static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool one_to_one() const noexcept override { return false; }
  bool stateful() const noexcept override { return true; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    return (upstream & ~(kSized | kSubsized | kPower2 | kInterleaved)) |
           kDistinct;
  }
};

template <typename T, typename Pred>
class TakeWhileStage final : public StageNode {
 public:
  explicit TakeWhileStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<TakeWhileSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool cancels() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    return upstream & ~(kSized | kSubsized | kPower2 | kInterleaved);
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

template <typename T, typename Pred>
class DropWhileStage final : public StageNode {
 public:
  explicit DropWhileStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<DropWhileSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool one_to_one() const noexcept override { return false; }
  bool stateful() const noexcept override { return true; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }
  Characteristics transform_characteristics(
      Characteristics upstream) const noexcept override {
    return upstream & ~(kSized | kSubsized | kPower2 | kInterleaved);
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

// ---- sources and the pull adapter ----------------------------------------

/// Adopt any spliterator as the source of a stage-free pipeline. Never
/// refuses: source shape (SIZED|SUBSIZED, windowed, power of two) only
/// matters to destination-passing admission, which the planner decides
/// on the fused pipeline (plan_fused_pipeline in streams/plan.hpp).
template <typename T>
std::unique_ptr<FusedPipeline> fuse_source(
    std::unique_ptr<Spliterator<T>>& sp) {
  return std::make_unique<FusedPipelineImpl<T>>(std::move(sp));
}

/// The pull adapter: a FusedPipeline of output type T seen as a
/// Spliterator<T> (Java's WrappingSpliterator). try_advance steps the
/// element-mode drive one source element at a time into a buffer (a stage
/// may emit zero or several elements per source element), so a chain is
/// pulled exactly as deep as an element-at-a-time evaluation would;
/// for_each_remaining drives the rest in one go with the chunked
/// transport. Splits, sizes and flags come from the pipeline; it names no
/// destination window (concat, its one user, has none).
template <typename T>
class FusedSpliterator final : public Spliterator<T> {
 public:
  using Action = typename Spliterator<T>::Action;

  explicit FusedSpliterator(std::unique_ptr<FusedPipeline> fp)
      : fp_(std::move(fp)) {
    PLS_CHECK(fp_ != nullptr && fp_->output_type() == typeid(T),
              "pull adapter requires a pipeline of its element type");
  }

  bool try_advance(Action action) override {
    if (state_ == State::kFresh) {
      fp_->open(buffer_);
      state_ = State::kOpen;
    }
    while (cursor_ == buffer_.values.size()) {
      buffer_.values.clear();
      cursor_ = 0;
      if (state_ == State::kDone) return false;
      if (!fp_->step()) {
        fp_->close();
        state_ = State::kDone;
      }
    }
    action(buffer_.values[cursor_++]);
    return true;
  }

  void for_each_remaining(Action action) override {
    if (state_ == State::kFresh) {
      ForEachSink<T, Action> sink(action);
      fp_->drive(sink);
      state_ = State::kDone;
      return;
    }
    while (try_advance(action)) {
    }
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    // A started pull owns the composed chain; only a fresh one splits.
    if (state_ != State::kFresh) return nullptr;
    auto prefix = fp_->try_split();
    if (!prefix) return nullptr;
    return std::make_unique<FusedSpliterator<T>>(std::move(prefix));
  }

  std::uint64_t estimate_size() const override {
    return fp_->output_estimate();
  }

  Characteristics characteristics() const override {
    return fp_->output_characteristics();
  }

 private:
  struct BufferSink final : Sink<T> {
    void accept(const T& value) override { values.push_back(value); }
    std::vector<T> values;
  };

  enum class State : std::uint8_t { kFresh, kOpen, kDone };

  BufferSink buffer_;  // the open chain's terminal; outlives fp_'s chain
  std::unique_ptr<FusedPipeline> fp_;
  std::size_t cursor_ = 0;
  State state_ = State::kFresh;
};

/// The pipeline as a Spliterator<T>: its bare source when it carries no
/// stage, the pull adapter over it otherwise.
template <typename T>
std::unique_ptr<Spliterator<T>> as_spliterator(
    std::unique_ptr<FusedPipeline> fp) {
  PLS_CHECK(fp != nullptr && fp->output_type() == typeid(T),
            "pipeline output type does not match the spliterator");
  if (fp->stage_count() == 0) {
    return static_cast<FusedPipelineImpl<T>&>(*fp).release_source();
  }
  return std::make_unique<FusedSpliterator<T>>(std::move(fp));
}

}  // namespace pls::streams
