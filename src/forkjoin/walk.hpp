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
//
// A node may also batch its leaves: batches() says so, and
// leaf_batch(leaves, out) runs up to kBatchLeaves sibling leaves together
// (an interleaved source, whose sibling leaves read the same cache lines,
// drains them in one pass). The walk then forks such a node only down to
// kBatchLeaves times the grain; each task splits on to the grain in line,
// runs its leaves as one batch and combines their results in the same
// tree shape, so every split, leaf and combine happens as in the plain
// walk, only forks and tasks are fewer.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "observe/trace.hpp"

namespace pls::forkjoin {

/// The result of a node whose leaves deliver in place.
struct Unit {};

/// Most leaves one task of a batching node drives together: two levels of
/// in-line splits below the task. It is also the leaves-per-worker factor
/// of the streams default grain (streams::default_grain), so at that grain
/// every worker holds one task.
inline constexpr std::uint64_t kBatchLeaves = 4;

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

/// The split site: split `node` at `depth` into its two children in
/// encounter order, or nothing when it does not split.
template <typename Node>
auto walk_split(Node& node, unsigned depth, observe::CpNode* cp) {
  auto children = [&] {
    observe::Span span(observe::EventKind::kSplit, depth);
    observe::CpScope phase(cp, observe::CpPhase::kSplit);
    return node.split();
  }();
  if (children) observe::local_counters().on_split(depth);
  return children;
}

/// The combine site: merge two sibling results of `node` at `depth`.
template <typename Node>
walk_result_t<Node> walk_combine(Node& node, walk_result_t<Node>&& left,
                                 walk_result_t<Node>&& right, unsigned depth,
                                 observe::CpNode* cp) {
  if constexpr (requires { node.combine(std::move(left), std::move(right)); }) {
    observe::Span span(observe::EventKind::kCombine, depth);
    observe::CpScope phase(cp, observe::CpPhase::kCombine);
    observe::LatencyTimer combine_timer(observe::Metric::kCombineRun);
    observe::local_counters().on_combine();
    return node.combine(std::move(left), std::move(right));
  } else {
    return std::move(left);
  }
}

namespace detail {

/// One task of a batching node: its subtree split in line to the grain
/// and held heap-indexed (slot 1 is the task, slot i's children are 2i
/// and 2i + 1), so every node stays put while the leaves run as one batch
/// and their results combine bottom-up. Leaves are found and combined in
/// the same in-order sweep, so a leaf's result is the next one in `out_`.
template <typename Node>
class BatchTask {
  using R = walk_result_t<Node>;
  static constexpr std::size_t kSlots = 2 * kBatchLeaves;

 public:
  BatchTask(Node& task, std::uint64_t grain, unsigned depth,
            observe::CpNode* cp)
      : grain_(grain), depth_(depth), cp_(cp) {
    node_[1] = &task;
    split(1, depth);
  }

  R run() {
    std::array<std::uint64_t, kBatchLeaves> elems{};
    std::uint64_t estimate = 0;
    for (std::size_t j = 0; j < leaf_count_; ++j) {
      elems[j] = leaves_[j]->elements();
      estimate += elems[j];
    }
    {
      observe::Span span(observe::EventKind::kAccumulate, estimate);
      observe::CpScope phase(cp_, observe::CpPhase::kAccumulate);
      observe::LatencyTimer leaf_timer(observe::Metric::kLeafRun);
      node_[1]->leaf_batch(std::span(leaves_.data(), leaf_count_),
                           std::span(out_.data(), leaf_count_));
    }
    for (std::size_t j = 0; j < leaf_count_; ++j) {
      if constexpr (requires { leaves_[j]->counted(*out_[j]); }) {
        elems[j] = leaves_[j]->counted(*out_[j]);
      }
      observe::cp_add_elements(cp_, elems[j]);
      observe::local_counters().on_leaf(elems[j]);
    }
    return combine(1, depth_);
  }

 private:
  void split(std::size_t i, unsigned depth) {
    Node& n = *node_[i];
    if (2 * i < kSlots && n.size() > grain_) {
      if (auto children = walk_split(n, depth, cp_)) {
        kids_[i].emplace(std::move(*children));
        node_[2 * i] = &kids_[i]->first;
        node_[2 * i + 1] = &kids_[i]->second;
        split(2 * i, depth + 1);
        split(2 * i + 1, depth + 1);
        return;
      }
    }
    leaves_[leaf_count_++] = &n;
  }

  R combine(std::size_t i, unsigned depth) {
    if (i >= kBatchLeaves || !kids_[i]) return std::move(*out_[combined_++]);
    R left = combine(2 * i, depth + 1);
    R right = combine(2 * i + 1, depth + 1);
    return walk_combine(*node_[i], std::move(left), std::move(right), depth,
                        cp_);
  }

  std::uint64_t grain_;
  unsigned depth_;
  observe::CpNode* cp_;
  std::array<Node*, kSlots> node_{};
  std::array<std::optional<std::pair<Node, Node>>, kBatchLeaves> kids_;
  std::array<Node*, kBatchLeaves> leaves_{};  ///< in encounter order
  std::array<std::optional<R>, kBatchLeaves> out_;
  std::size_t leaf_count_ = 0;
  std::size_t combined_ = 0;
};

}  // namespace detail

/// THE fork-join walk: split to grain, run leaves, combine on the way up
/// when the node has a combine. Must run on a worker of `pool`.
template <typename Node>
walk_result_t<Node> walk(ForkJoinPool& pool, Node& node, std::uint64_t grain,
                         unsigned depth, observe::CpNode* cp) {
  using R = walk_result_t<Node>;
  const std::uint64_t size = node.size();
  if (size <= grain) return walk_leaf(node, cp);
  if constexpr (requires { node.batches(); }) {
    // ceil(size / kBatchLeaves) <= grain: in-line splits reach the grain
    // within two levels.
    if (node.batches() && (size - 1) / kBatchLeaves < grain) {
      return detail::BatchTask<Node>(node, grain, depth, cp).run();
    }
  }
  auto children = walk_split(node, depth, cp);
  if (!children) return walk_leaf(node, cp);
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
  return walk_combine(node, std::move(*left), std::move(*right), depth, cp);
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
