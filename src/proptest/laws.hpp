// Law suites: executable statements of the algebraic contracts the library
// rests on, checked against arbitrary implementations.
//
//   check_spliterator_laws — the Spliterator contract (java.util.Spliterator
//     semantics): bulk/stepwise/span traversal agreement, SIZED bookkeeping,
//     SUBSIZED split-size conservation, split disjointness + coverage in
//     encounter order, destination-window consistency for
//     WindowedSource implementations (windows of split children partition
//     the parent's window), and the interleaving law: a source reporting
//     kInterleaved splits its window zip-style, and a prefix-splitting
//     source never reports it.
//
//   check_collector_laws — the Collector contract: combiner associativity
//     (any combine tree over any contiguous partition yields the single-
//     accumulator result), supplier identity, and — for sized-sink
//     collectors — equivalence of the destination-passing protocol with
//     the supplier/combiner fold.
//
// Both return PropStatus so they slot directly into proptest::check as the
// property body; the Rand argument drives partition and split choices so
// every proptest iteration exercises a different decomposition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "proptest/prop.hpp"
#include "streams/collector.hpp"
#include "streams/sized_sink.hpp"
#include "streams/spliterator.hpp"

namespace pls::proptest {

/// Consume every remaining element through for_each_remaining.
template <typename T>
std::vector<T> drain_bulk(streams::Spliterator<T>& sp) {
  std::vector<T> out;
  sp.for_each_remaining([&](const T& v) { out.push_back(v); });
  return out;
}

/// Consume every remaining element one try_advance at a time.
template <typename T>
std::vector<T> drain_stepwise(streams::Spliterator<T>& sp) {
  std::vector<T> out;
  while (sp.try_advance([&](const T& v) { out.push_back(v); })) {
  }
  return out;
}

/// Consume every remaining element through the bulk-pull hook
/// try_take_span, expanding (data, count, stride); nullopt when the
/// source is not memory-backed (the span's data is null).
template <typename T>
std::optional<std::vector<T>> drain_span(streams::Spliterator<T>& sp) {
  const streams::StridedSpan<T> span = sp.try_take_span();
  if (span.data == nullptr) return std::nullopt;
  std::vector<T> out;
  out.reserve(span.count);
  for (std::size_t k = 0; k < span.count; ++k) {
    out.push_back(span.data[k * span.stride]);
  }
  return out;
}

/// The result positions a window covers, in window (encounter) order.
inline std::vector<std::uint64_t> window_positions(
    const streams::OutputWindow& w) {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(w.count));
  for (std::uint64_t j = 0; j < w.count; ++j) {
    out.push_back(w.start + j * w.incr);
  }
  return out;
}

/// How a spliterator's try_split relates to encounter order.
///   kPrefix: the returned spliterator covers a strict prefix (tie-style
///     halving, array/range chunking) — concatenating leaf traversals in
///     prefix-first tree order reproduces the full encounter order.
///   kInterleaved: splits partition by position pattern (zip-style
///     even/odd), so leaf concatenation is a permutation of the source;
///     encounter positions are recoverable only through output windows.
enum class SplitOrder { kPrefix, kInterleaved };

namespace detail {

inline PropStatus law_fail(const std::string& law, const std::string& what) {
  return PropStatus::fail("[" + law + "] " + what);
}

/// One fully-drained leaf of a split tree: its traversal plus the window
/// it advertised before draining (when the source is windowed).
template <typename T>
struct SplitLeaf {
  std::optional<streams::OutputWindow> window;
  std::vector<T> values;
};

/// The interleaving law of one split: a parent reporting kInterleaved
/// over window (s, i, c) must hand the prefix (s, 2i, c/2) and keep
/// (s + i, 2i, c/2) — the split shape the fork-join walk's batched leaves
/// rely on (forkjoin/walk.hpp).
template <typename T>
PropStatus interleave_law(const std::optional<streams::OutputWindow>& parent,
                          const streams::Spliterator<T>& prefix,
                          const streams::Spliterator<T>& suffix) {
  if (!parent.has_value()) {
    return law_fail("interleaved", "an interleaved source names no window");
  }
  const auto left = streams::output_window_of(prefix);
  const auto right = streams::output_window_of(suffix);
  const std::uint64_t half = parent->count / 2;
  const auto is = [](const std::optional<streams::OutputWindow>& w,
                     std::uint64_t start, std::uint64_t incr,
                     std::uint64_t count) {
    return w.has_value() && w->start == start && w->incr == incr &&
           w->count == count;
  };
  if (parent->count % 2 != 0 ||
      !is(left, parent->start, 2 * parent->incr, half) ||
      !is(right, parent->start + parent->incr, 2 * parent->incr, half)) {
    std::ostringstream os;
    os << "window (" << parent->start << ", " << parent->incr << ", "
       << parent->count << ") did not split into its even and odd halves";
    return law_fail("interleaved", os.str());
  }
  return PropStatus::pass();
}

/// Recursively split `sp` under Rand-driven decisions, checking the split
/// laws at every node and appending leaf traversals (prefix subtree first)
/// to `leaves`.
template <typename T>
PropStatus split_tree_check(streams::Spliterator<T>& sp, Rand& r,
                            unsigned depth, SplitOrder order,
                            std::vector<SplitLeaf<T>>& leaves) {
  const std::uint64_t before_estimate = sp.estimate_size();
  const bool sized = sp.has(streams::kSized);
  const bool subsized = sp.has(streams::kSized | streams::kSubsized);
  const bool interleaved = sp.has(streams::kInterleaved);
  const std::optional<streams::OutputWindow> parent_window =
      streams::output_window_of(sp);
  if (interleaved && order == SplitOrder::kPrefix) {
    return law_fail("interleaved",
                    "a prefix-splitting source reports kInterleaved");
  }

  // Stop splitting on a Rand coin (deeper levels stop more eagerly), so
  // iterations cover shallow and deep decompositions alike.
  const bool want_split = depth < 12 && r.chance(3, depth < 2 ? 3 : 4);
  std::unique_ptr<streams::Spliterator<T>> prefix =
      want_split ? sp.try_split() : nullptr;
  if (prefix == nullptr) {
    const std::uint64_t claimed = sp.estimate_size();
    const auto leaf_window = streams::output_window_of(sp);
    // A coin picks the leaf's drain, so split products (strided zip
    // windows included) exercise the span hook as well as the bulk one.
    std::optional<std::vector<T>> spanned;
    if (r.chance(1, 2)) spanned = drain_span(sp);
    std::vector<T> chunk = spanned ? std::move(*spanned) : drain_bulk(sp);
    if (sized && claimed != chunk.size()) {
      std::ostringstream os;
      os << "leaf claimed " << claimed << " elements but yielded "
         << chunk.size();
      return law_fail("sized-leaf", os.str());
    }
    if (sp.has(streams::kSized) && sp.estimate_size() != 0) {
      return law_fail("sized-leaf", "estimate_size nonzero after full drain");
    }
    leaves.push_back(SplitLeaf<T>{leaf_window, std::move(chunk)});
    return PropStatus::pass();
  }

  if (subsized) {
    if (!prefix->has(streams::kSized)) {
      return law_fail("subsized", "split of a SUBSIZED source lost SIZED");
    }
    const std::uint64_t sum = prefix->estimate_size() + sp.estimate_size();
    if (sum != before_estimate) {
      std::ostringstream os;
      os << "child sizes " << prefix->estimate_size() << " + "
         << sp.estimate_size() << " != parent " << before_estimate;
      return law_fail("subsized", os.str());
    }
  }

  // Window law: when the parent names a window consistent with its size,
  // the children's windows must exist and partition it exactly.
  if (parent_window.has_value() && subsized &&
      parent_window->count == before_estimate) {
    const auto left_window = streams::output_window_of(*prefix);
    const auto right_window = streams::output_window_of(sp);
    if (!left_window.has_value() || !right_window.has_value()) {
      return law_fail("window", "windowed parent split to windowless child");
    }
    if (left_window->count != prefix->estimate_size() ||
        right_window->count != sp.estimate_size()) {
      return law_fail("window", "child window count != child size");
    }
    std::vector<std::uint64_t> got = window_positions(*left_window);
    const std::vector<std::uint64_t> right = window_positions(*right_window);
    got.insert(got.end(), right.begin(), right.end());
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      return law_fail("window", "child windows overlap");
    }
    std::vector<std::uint64_t> want = window_positions(*parent_window);
    std::sort(want.begin(), want.end());
    if (got != want) {
      return law_fail("window",
                      "child windows do not cover the parent window");
    }
  }

  if (interleaved) {
    if (PropStatus s = interleave_law(parent_window, *prefix, sp); !s.ok) {
      return s;
    }
  }

  if (PropStatus s = split_tree_check(*prefix, r, depth + 1, order, leaves);
      !s.ok) {
    return s;
  }
  return split_tree_check(sp, r, depth + 1, order, leaves);
}

}  // namespace detail

/// Check the Spliterator contract for the spliterators produced by `make`
/// (each call must return a fresh spliterator over the same conceptual
/// source). Rand drives the split decisions. Pass
/// SplitOrder::kInterleaved for zip-style sources, whose splits permute
/// encounter order and carry it in output windows instead; only those may
/// report kInterleaved, and any that does must split zip-style.
template <typename T>
PropStatus check_spliterator_laws(
    const std::function<std::unique_ptr<streams::Spliterator<T>>()>& make,
    Rand& r, SplitOrder order = SplitOrder::kPrefix) {
  auto bulk_sp = make();
  const std::vector<T> full = drain_bulk(*bulk_sp);

  {
    auto step_sp = make();
    const std::vector<T> stepped = drain_stepwise(*step_sp);
    if (stepped != full) {
      return detail::law_fail(
          "traversal", "try_advance and for_each_remaining sequences differ");
    }
    if (step_sp->try_advance([](const T&) {})) {
      return detail::law_fail("traversal",
                              "try_advance succeeded after exhaustion");
    }
  }

  {
    // Span law: a memory-backed source hands over exactly the bulk
    // sequence and is left empty; any other source consumes nothing.
    auto span_sp = make();
    const std::optional<std::vector<T>> spanned = drain_span(*span_sp);
    if (!spanned) {
      if (drain_bulk(*span_sp) != full) {
        return detail::law_fail(
            "span", "a null span consumed elements of the source");
      }
    } else {
      if (*spanned != full) {
        return detail::law_fail(
            "span", "span and for_each_remaining sequences differ");
      }
      if (span_sp->estimate_size() != 0) {
        return detail::law_fail("span",
                                "estimate_size nonzero after taking the span");
      }
      if (span_sp->try_advance([](const T&) {})) {
        return detail::law_fail("span",
                                "try_advance succeeded after taking the span");
      }
      if (span_sp->try_take_span().count != 0) {
        return detail::law_fail("span",
                                "a second span yielded elements again");
      }
    }
  }

  {
    auto sized_sp = make();
    if (sized_sp->has(streams::kSized) &&
        sized_sp->estimate_size() != full.size()) {
      std::ostringstream os;
      os << "SIZED estimate " << sized_sp->estimate_size() << " != actual "
         << full.size();
      return detail::law_fail("sized", os.str());
    }
    const auto window = streams::output_window_of(*sized_sp);
    if (window.has_value() && sized_sp->has(streams::kSized) &&
        window->count != sized_sp->estimate_size()) {
      // Windows are allowed to be absent, but a present window must agree
      // with the size it claims to cover.
      std::ostringstream os;
      os << "window count " << window->count << " != estimate "
         << sized_sp->estimate_size();
      return detail::law_fail("window", os.str());
    }
  }

  auto tree_sp = make();
  const auto root_window = streams::output_window_of(*tree_sp);
  std::vector<detail::SplitLeaf<T>> leaves;
  if (PropStatus s = detail::split_tree_check(*tree_sp, r, 0, order, leaves);
      !s.ok) {
    return s;
  }
  std::vector<T> concatenated;
  concatenated.reserve(full.size());
  for (const auto& leaf : leaves) {
    concatenated.insert(concatenated.end(), leaf.values.begin(),
                        leaf.values.end());
  }
  if (concatenated.size() != full.size()) {
    std::ostringstream os;
    os << "split-tree leaves yielded " << concatenated.size()
       << " elements, full traversal " << full.size()
       << " — splits lost or duplicated elements";
    return detail::law_fail("coverage", os.str());
  }
  if (order == SplitOrder::kPrefix && concatenated != full) {
    return detail::law_fail(
        "coverage",
        "prefix-order leaf concatenation differs from the full traversal");
  }
  // Placement law: when the root advertises an exact window, every leaf's
  // window maps its elements to encounter positions; scattering leaf
  // values through their windows must rebuild the full traversal. This is
  // the property the destination-passing collect rests on — and for
  // interleaved (zip-style) splits it is the *only* order guarantee.
  if (root_window.has_value() && root_window->count == full.size()) {
    std::vector<T> placed(full.size());
    std::vector<bool> hit(full.size(), false);
    for (const auto& leaf : leaves) {
      if (!leaf.window.has_value()) {
        return detail::law_fail("placement",
                                "windowed root produced a windowless leaf");
      }
      if (leaf.window->count != leaf.values.size()) {
        return detail::law_fail("placement",
                                "leaf window count != leaf traversal size");
      }
      const auto positions = window_positions(*leaf.window);
      for (std::size_t k = 0; k < positions.size(); ++k) {
        const std::uint64_t raw = positions[k] - root_window->start;
        if (raw % root_window->incr != 0) {
          return detail::law_fail(
              "placement", "leaf position off the root window's stride");
        }
        const std::uint64_t idx = raw / root_window->incr;
        if (idx >= full.size() || hit[static_cast<std::size_t>(idx)]) {
          return detail::law_fail(
              "placement", "leaf positions escape or overlap the root window");
        }
        hit[static_cast<std::size_t>(idx)] = true;
        placed[static_cast<std::size_t>(idx)] = leaf.values[k];
      }
    }
    if (placed != full) {
      return detail::law_fail(
          "placement",
          "window-scattered leaves do not rebuild the full traversal");
    }
  } else if (order == SplitOrder::kInterleaved) {
    // No window to recover order through: the weakest honest law is
    // multiset equality.
    std::vector<T> a = concatenated, b = full;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) {
      return detail::law_fail(
          "coverage", "leaf multiset differs from the full traversal");
    }
  }
  return PropStatus::pass();
}

namespace detail {

template <typename T, typename C>
typename C::accumulation_type fold_segment(const C& c,
                                           const std::vector<T>& input,
                                           std::size_t lo, std::size_t hi) {
  auto acc = c.supply();
  for (std::size_t i = lo; i < hi; ++i) c.accumulate(acc, input[i]);
  return acc;
}

/// Combine the segments of [seg_lo, seg_hi) under a Rand-shaped binary
/// tree, respecting segment (encounter) order.
template <typename T, typename C>
typename C::accumulation_type combine_tree(
    const C& c, const std::vector<T>& input,
    const std::vector<std::size_t>& bounds, std::size_t seg_lo,
    std::size_t seg_hi, Rand& r) {
  if (seg_hi - seg_lo == 1) {
    return fold_segment(c, input, bounds[seg_lo], bounds[seg_lo + 1]);
  }
  const std::size_t mid =
      seg_lo + 1 +
      static_cast<std::size_t>(r.below(seg_hi - seg_lo - 1));
  auto left = combine_tree(c, input, bounds, seg_lo, mid, r);
  auto right = combine_tree(c, input, bounds, mid, seg_hi, r);
  c.combine(left, right);
  return left;
}

}  // namespace detail

/// Check the Collector laws for `c` over `input`. Rand drives partition
/// boundaries and combine-tree shapes. The collector's result type must be
/// equality-comparable.
template <typename T, typename C>
PropStatus check_collector_laws(const C& c, const std::vector<T>& input,
                                Rand& r) {
  const auto reference = [&] {
    auto acc = detail::fold_segment(c, input, 0, input.size());
    return c.finish(std::move(acc));
  }();

  // Associativity over a random contiguous partition, combined two ways:
  // a strict left fold and a random binary tree.
  const std::size_t max_segments = input.size() < 7 ? input.size() + 1 : 8;
  const std::size_t segments =
      1 + static_cast<std::size_t>(r.below(max_segments));
  std::vector<std::size_t> bounds{0};
  for (std::size_t s = 1; s < segments; ++s) {
    bounds.push_back(static_cast<std::size_t>(r.below(input.size() + 1)));
  }
  bounds.push_back(input.size());
  std::sort(bounds.begin(), bounds.end());

  {
    auto acc = detail::fold_segment(c, input, bounds[0], bounds[1]);
    for (std::size_t s = 1; s + 1 < bounds.size(); ++s) {
      auto next = detail::fold_segment(c, input, bounds[s], bounds[s + 1]);
      c.combine(acc, next);
    }
    if (!(c.finish(std::move(acc)) == reference)) {
      return detail::law_fail("associativity",
                              "left-fold combine over a partition differs "
                              "from the single-accumulator result");
    }
  }
  {
    auto acc = detail::combine_tree(c, input, bounds, 0, bounds.size() - 1, r);
    if (!(c.finish(std::move(acc)) == reference)) {
      return detail::law_fail("associativity",
                              "tree-shaped combine over a partition differs "
                              "from the single-accumulator result");
    }
  }

  // Identity: a fresh supply() is a left and right identity of combine.
  {
    auto acc = detail::fold_segment(c, input, 0, input.size());
    auto empty = c.supply();
    c.combine(acc, empty);
    if (!(c.finish(std::move(acc)) == reference)) {
      return detail::law_fail("identity",
                              "combining with an empty right container "
                              "changed the result");
    }
  }
  {
    auto empty = c.supply();
    auto acc = detail::fold_segment(c, input, 0, input.size());
    c.combine(empty, acc);
    if (!(c.finish(std::move(empty)) == reference)) {
      return detail::law_fail("identity",
                              "combining into an empty left container "
                              "changed the result");
    }
  }

  // Sized-sink protocol ≡ supplier/combiner fold: writing each position
  // exactly once, in an arbitrary (Rand-shuffled) order, must produce the
  // same result as the sequential fold.
  if constexpr (streams::SizedSinkCollector<C, T>) {
    auto sink = c.supply_sized(input.size());
    std::vector<std::size_t> order(input.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(r.below(i))]);
    }
    for (std::size_t pos : order) {
      c.accumulate_at(sink, pos, input[pos]);
    }
    if (!(c.finish_sized(std::move(sink)) == reference)) {
      return detail::law_fail("sized-sink",
                              "destination-passing protocol differs from "
                              "the supplier/combiner fold");
    }
  }

  return PropStatus::pass();
}

}  // namespace pls::proptest
