// The fork-join walk: the one divide-and-conquer template (Section III of
// the paper) that every parallel evaluator in the library runs on. It
// splits a *node* to grain, runs leaves and combines on the way up. A node
// supplies
//   size()           the quantity compared against the grain;
//   split()          std::optional<std::pair<Node, Node>>: its children in
//                    encounter order, or nothing. The parent stays alive and
//                    unmoved until both finish, so children may point into
//                    it and combine may still read it;
//   elements()       the element count its leaf accounts for;
//   leaf()           the basic case, returning the node's result;
// and optionally counted(result), the leaf's exact count where only the
// result knows it, and combine(left, right), absent when leaves deliver in
// place. Stream terminals, PowerFunction executors and multiway collects
// all walk here, so the split/leaf/combine instrumentation (trace span,
// critical-path phase, latency histogram, counters) exists once.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "observe/trace.hpp"

namespace pls::forkjoin {

/// The result of a node whose leaves deliver in place.
struct Unit {};

template <typename Node>
using walk_result_t = decltype(std::declval<Node&>().leaf());

/// The leaf site: run one node's basic case on the calling thread. A
/// sequential evaluation is exactly one such leaf.
template <typename Node>
walk_result_t<Node> walk_leaf(Node& node, observe::CpNode* cp = nullptr) {
  const std::uint64_t estimate = node.elements();
  observe::Span span(observe::EventKind::kAccumulate, estimate);
  observe::CpScope phase(cp, observe::CpPhase::kAccumulate);
  observe::LatencyTimer leaf_timer(observe::Metric::kLeafRun);
  auto result = node.leaf();
  std::uint64_t elems = estimate;
  if constexpr (requires { node.counted(result); }) {
    elems = node.counted(result);
  }
  observe::cp_add_elements(cp, elems);
  observe::local_counters().on_leaf(elems);
  return result;
}

/// THE fork-join walk: split to grain, run leaves, combine on the way up
/// when the node has a combine. Must run on a worker of `pool`.
template <typename Node>
walk_result_t<Node> walk(ForkJoinPool& pool, Node& node, std::uint64_t grain,
                         unsigned depth, observe::CpNode* cp) {
  using R = walk_result_t<Node>;
  if (node.size() <= grain) return walk_leaf(node, cp);
  auto children = [&] {
    observe::Span span(observe::EventKind::kSplit, depth);
    observe::CpScope phase(cp, observe::CpPhase::kSplit);
    return node.split();
  }();
  if (!children) return walk_leaf(node, cp);
  observe::local_counters().on_split(depth);
  const auto [cl, cr] = observe::cp_fork(cp);
  std::optional<R> left;
  std::optional<R> right;
  pool.invoke_two(
      [&, cl = cl] {
        left.emplace(walk(pool, children->first, grain, depth + 1, cl));
      },
      [&, cr = cr] {
        right.emplace(walk(pool, children->second, grain, depth + 1, cr));
      });
  if constexpr (requires(R& r) { node.combine(std::move(r), std::move(r)); }) {
    observe::Span span(observe::EventKind::kCombine, depth);
    observe::CpScope phase(cp, observe::CpPhase::kCombine);
    observe::LatencyTimer combine_timer(observe::Metric::kCombineRun);
    observe::local_counters().on_combine();
    return node.combine(std::move(*left), std::move(*right));
  } else {
    return std::move(*left);
  }
}

/// Walk `node` on `pool` from any thread, rooting the run's critical-path
/// tree at `cp` (nullptr when the recorder is off).
template <typename Node>
walk_result_t<Node> run_walk(ForkJoinPool& pool, Node& node,
                             std::uint64_t grain,
                             observe::CpNode* cp = observe::cp_new_root()) {
  return pool.run([&] { return walk(pool, node, grain, 0, cp); });
}

}  // namespace pls::forkjoin
