// Multiway spliterators: the Spliterator extension the paper proposes.
//
// Section V: "Since the definition of the Spliterator interface offers only
// the possibility to split the data in two parts (each time), the
// possibility to include also the PList extension, and so multi-way
// divide-and-conquer is not possible (yet). If the definition of the
// Spliterator would be extended with a trySplit method that returns a set
// of Spliterators that all together cover all the elements of the source,
// then the adaptation to PList would become possible."
//
// This header builds exactly that extension: MultiwaySpliterator adds
//   try_split_n(n) -> vector of n-1 prefix spliterators (this keeps the
//   last part),
// NTie/NZip implement it over strided windows, and evaluate_collect_multiway
// runs the collect template method over the n-ary split, on the library's
// one fork-join walk (forkjoin/walk.hpp), combining the parts in
// encounter order with the collector's combiner.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "forkjoin/walk.hpp"
#include "powerlist/spliterators.hpp"
#include "streams/collector.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"

namespace pls::plist {

/// Spliterator that can also split into n parts at once.
template <typename T>
class MultiwaySpliterator : public streams::Spliterator<T> {
 public:
  /// Partition off n-1 spliterators so that, together with this one (which
  /// keeps the *last* part), they cover all remaining elements in
  /// encounter order (returned[0] first, ..., this last). Returns an empty
  /// vector when the source cannot be split n ways.
  virtual std::vector<std::unique_ptr<streams::Spliterator<T>>> try_split_n(
      std::size_t n) = 0;

  /// Binary split defaults to try_split_n(2).
  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    auto parts = try_split_n(2);
    if (parts.empty()) return nullptr;
    PLS_ASSERT(parts.size() == 1);
    return std::move(parts.front());
  }
};

namespace detail {

/// The strided-window plumbing the binary PowerList spliterators use: both
/// n-way split rules partition the parent's (start, incr, count) window
/// (n-way tie keeps the stride, n-way zip multiplies it by n), so every
/// part of try_split_n is itself windowed and hands its window to the
/// fused chunk transport as one strided span.
template <typename T>
using StridedMultiwayBase =
    powerlist::StridedWindowSpliterator<T, MultiwaySpliterator<T>>;

}  // namespace detail

/// n-way segment splitting (the n-way tie operator).
template <typename T>
class NTieSpliterator final : public detail::StridedMultiwayBase<T> {
 public:
  using detail::StridedMultiwayBase<T>::StridedWindowSpliterator;

  explicit NTieSpliterator(std::shared_ptr<const std::vector<T>> data)
      : detail::StridedMultiwayBase<T>(data, 0, 1, data ? data->size() : 0) {}

  std::vector<std::unique_ptr<streams::Spliterator<T>>> try_split_n(
      std::size_t n) override {
    if (n < 2 || this->count_ < n || this->count_ % n != 0) return {};
    const std::size_t part = this->count_ / n;
    std::vector<std::unique_ptr<streams::Spliterator<T>>> out;
    out.reserve(n - 1);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      out.push_back(std::make_unique<NTieSpliterator<T>>(
          this->data_, this->start_ + this->incr_ * part * k, this->incr_,
          part));
    }
    this->start_ += this->incr_ * part * (n - 1);
    this->count_ = part;
    return out;
  }
};

/// n-way interleaved splitting (the n-way zip operator): part k holds the
/// elements at positions ≡ k (mod n); this keeps the last residue.
template <typename T>
class NZipSpliterator final : public detail::StridedMultiwayBase<T> {
 public:
  using detail::StridedMultiwayBase<T>::StridedWindowSpliterator;

  explicit NZipSpliterator(std::shared_ptr<const std::vector<T>> data)
      : detail::StridedMultiwayBase<T>(data, 0, 1, data ? data->size() : 0) {}

  std::vector<std::unique_ptr<streams::Spliterator<T>>> try_split_n(
      std::size_t n) override {
    if (n < 2 || this->count_ < n || this->count_ % n != 0) return {};
    const std::size_t part = this->count_ / n;
    std::vector<std::unique_ptr<streams::Spliterator<T>>> out;
    out.reserve(n - 1);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      out.push_back(std::make_unique<NZipSpliterator<T>>(
          this->data_, this->start_ + this->incr_ * k, this->incr_ * n,
          part));
    }
    this->start_ += this->incr_ * (n - 1);
    this->incr_ *= n;
    this->count_ = part;
    return out;
  }
};

namespace detail {

/// The multiway walk node (forkjoin/walk.hpp): a run of parts in
/// encounter order. The n-way split stays binary inside the walk: a
/// single part splits through try_split_n(arity) (binary try_split where
/// the source refuses) into a run this node owns, and a run splits in
/// halves. A run at or below the grain is one leaf that drains its parts
/// in order. `Drain` supplies that leaf and, on the fold path, combine.
template <typename T, typename Drain>
class PartsNode {
 public:
  using Part = streams::Spliterator<T>*;
  using R = decltype(std::declval<const Drain&>().leaf(
      std::declval<std::span<const Part>>()));

  PartsNode(std::span<const Part> parts, const Drain& drain,
            std::size_t arity)
      : parts_(parts), drain_(drain), arity_(arity) {}

  std::uint64_t size() const { return total(false); }
  std::uint64_t elements() const { return total(true); }
  R leaf() const { return drain_.leaf(parts_); }

  std::optional<std::pair<PartsNode, PartsNode>> split() {
    if (parts_.size() == 1) {
      streams::Spliterator<T>& sp = *parts_.front();
      if (auto* multiway = dynamic_cast<MultiwaySpliterator<T>*>(&sp)) {
        owned_ = multiway->try_split_n(arity_);
      }
      if (owned_.empty()) {
        auto prefix = sp.try_split();
        if (!prefix) return std::nullopt;
        owned_.push_back(std::move(prefix));
      }
      for (const auto& prefix : owned_) run_.push_back(prefix.get());
      run_.push_back(&sp);
      return halves(run_);
    }
    return halves(parts_);
  }

  R combine(R&& left, R&& right) const
    requires requires(const Drain& d, R& r) { d.combine(r, r); }
  {
    drain_.combine(left, right);
    return std::move(left);
  }

 private:
  std::uint64_t total(bool sized_only) const {
    std::uint64_t n = 0;
    for (const Part sp : parts_) {
      if (!sized_only || sp->has(streams::kSized)) n += sp->estimate_size();
    }
    return n;
  }
  std::pair<PartsNode, PartsNode> halves(std::span<const Part> run) const {
    const std::size_t mid = run.size() / 2;
    return {PartsNode(run.first(mid), drain_, arity_),
            PartsNode(run.subspan(mid), drain_, arity_)};
  }

  std::span<const Part> parts_;
  const Drain& drain_;
  std::size_t arity_;
  std::vector<std::unique_ptr<streams::Spliterator<T>>> owned_;
  std::vector<Part> run_;
};

/// Supplier/combiner leaves: one accumulation per run.
template <typename T, typename C>
struct FoldParts {
  const C& c;

  typename C::accumulation_type leaf(
      std::span<streams::Spliterator<T>* const> parts) const {
    auto acc = c.supply();
    observe::local_counters().on_allocation();
    for (streams::Spliterator<T>* sp : parts) {
      sp->for_each_remaining([&](const T& value) { c.accumulate(acc, value); });
    }
    return acc;
  }
  void combine(typename C::accumulation_type& left,
               typename C::accumulation_type& right) const {
    c.combine(left, right);
  }
};

/// Destination-passing leaves: every part writes into its own window of
/// the shared sink, so no fold runs at all — which is what makes n-way
/// *zip* reconstruction expressible here (the windows encode the n-way
/// interleaving that no pairwise combiner can).
template <typename T, typename C>
  requires streams::SizedSinkCollector<C, T>
struct DrainIntoSink {
  const C& c;
  typename C::sized_accumulation_type& sink;
  streams::OutputWindow root;

  forkjoin::Unit leaf(std::span<streams::Spliterator<T>* const> parts) const {
    for (streams::Spliterator<T>* sp : parts) {
      const auto w = streams::output_window_of(*sp);
      const auto [base, step] = streams::detail::rebase_window(w, root);
      std::uint64_t k = 0;
      sp->for_each_remaining([&](const T& value) {
        c.accumulate_at(sink, base + k * step, value);
        ++k;
      });
      PLS_CHECK(k == w->count,
                "chunk yielded a different count than its window");
    }
    return {};
  }
};

/// One leaf on the calling thread, or the walk on the configured pool.
template <typename T, typename Drain>
auto walk_parts(streams::Spliterator<T>& sp, const Drain& drain,
                std::size_t arity, bool parallel,
                const streams::ExecutionConfig& cfg) {
  streams::Spliterator<T>* const root = &sp;
  PartsNode<T, Drain> node({&root, 1}, drain, arity);
  if (!parallel) return forkjoin::walk_leaf(node);
  auto& pool = cfg.effective_pool();
  return forkjoin::run_walk(
      pool, node, cfg.target_size(sp.estimate_size(), pool.parallelism()));
}

}  // namespace detail

/// Run a mutable reduction over a multiway source, splitting `arity` ways
/// at each level (binary fallback where the source refuses).
///
/// On the supplier/combiner path the parts combine pairwise in encounter
/// order with the collector's combiner (a run of parts at or below the
/// grain accumulates into one result), which is correct for tie-structured/
/// associative collectors (concat, sums, ...) but cannot express n-way
/// *zip* reconstruction (zip_join(a,b,c) != zip_all(zip_all(a,b),c)).
/// The destination-passing path lifts that restriction: when the
/// collector is a sized sink and the source is windowed, every part
/// writes straight into its interleaved window and no combiner runs —
/// so an NZipSpliterator source reconstructs correctly at any arity.
/// Supplier/combiner functions needing n-way zip must still use
/// PListFunction::combine_n (see plist/functions.hpp).
template <typename T, typename C>
typename C::result_type evaluate_collect_multiway(
    streams::Spliterator<T>& sp, const C& c, std::size_t arity, bool parallel,
    const streams::ExecutionConfig& cfg = {}) {
  PLS_CHECK(arity >= 2, "multiway evaluation needs arity >= 2");
  if constexpr (streams::SizedSinkCollector<C, T>) {
    if (cfg.sized_sink) {
      if (auto root = streams::plan_dps_window(sp)) {
        auto sink = c.supply_sized(root->count);
        detail::walk_parts(sp, detail::DrainIntoSink<T, C>{c, sink, *root},
                           arity, parallel, cfg);
        return c.finish_sized(std::move(sink));
      }
    }
  }
  return c.finish(
      detail::walk_parts(sp, detail::FoldParts<T, C>{c}, arity, parallel, cfg));
}

}  // namespace pls::plist
