// High-level parallel algorithms on top of ForkJoinPool.
//
// General-purpose D&C drivers over index ranges and closures: variadic
// parallel_invoke, blocked parallel_for, and parallel_reduce. Grain sizes
// are explicit — the caller states the smallest chunk worth forking for.
// The library's own evaluators (stream terminals, PowerFunction executors,
// multiway collects) do not use these; they run on forkjoin/walk.hpp.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

#include "forkjoin/pool.hpp"
#include "support/assert.hpp"

namespace pls::forkjoin {

namespace detail {

template <typename F>
void invoke_all(ForkJoinPool& pool, F&& f) {
  (void)pool;
  f();
}

template <typename F0, typename F1, typename... Rest>
void invoke_all(ForkJoinPool& pool, F0&& f0, F1&& f1, Rest&&... rest) {
  // Binary split: first half runs inline, remainder is forked. With the
  // standard stack discipline the fork tree has logarithmic depth.
  pool.invoke_two(
      [&] { invoke_all(pool, std::forward<F0>(f0)); },
      [&] { invoke_all(pool, std::forward<F1>(f1),
                       std::forward<Rest>(rest)...); });
}

}  // namespace detail

/// Run all closures, potentially in parallel; returns when all finished.
template <typename... Fs>
void parallel_invoke(ForkJoinPool& pool, Fs&&... fs) {
  pool.run([&] { detail::invoke_all(pool, std::forward<Fs>(fs)...); });
}

/// Apply `body(i)` for every i in [begin, end), splitting recursively until
/// ranges are at most `grain` long.
template <typename Index, typename Body>
void parallel_for(ForkJoinPool& pool, Index begin, Index end, Index grain,
                  const Body& body) {
  PLS_CHECK(grain >= 1, "parallel_for grain must be >= 1");
  if (begin >= end) return;
  pool.run([&] { detail_for(pool, begin, end, grain, body); });
}

template <typename Index, typename Body>
void detail_for(ForkJoinPool& pool, Index begin, Index end, Index grain,
                const Body& body) {
  while (end - begin > grain) {
    const Index mid = begin + (end - begin) / 2;
    Index right_begin = mid, right_end = end;
    pool.invoke_two(
        [&] { detail_for(pool, begin, mid, grain, body); },
        [&] { detail_for(pool, right_begin, right_end, grain, body); });
    return;
  }
  for (Index i = begin; i < end; ++i) body(i);
}

/// Parallel reduction: transform each index with `leaf` over grain-sized
/// blocks sequentially, combine partial results with `combine`.
/// `combine` must be associative; `identity` its neutral element.
template <typename Index, typename T, typename LeafFn, typename CombineFn>
T parallel_reduce(ForkJoinPool& pool, Index begin, Index end, Index grain,
                  T identity, const LeafFn& leaf, const CombineFn& combine) {
  PLS_CHECK(grain >= 1, "parallel_reduce grain must be >= 1");
  if (begin >= end) return identity;
  return pool.run([&] {
    return detail_reduce(pool, begin, end, grain, identity, leaf, combine);
  });
}

template <typename Index, typename T, typename LeafFn, typename CombineFn>
T detail_reduce(ForkJoinPool& pool, Index begin, Index end, Index grain,
                const T& identity, const LeafFn& leaf,
                const CombineFn& combine) {
  if (end - begin <= grain) {
    // leaf(begin, end) reduces a block sequentially.
    return leaf(begin, end);
  }
  const Index mid = begin + (end - begin) / 2;
  T left_result = identity;
  T right_result = identity;
  pool.invoke_two(
      [&] {
        left_result = detail_reduce(pool, begin, mid, grain, identity, leaf,
                                    combine);
      },
      [&] {
        right_result = detail_reduce(pool, mid, end, grain, identity, leaf,
                                     combine);
      });
  return combine(std::move(left_result), std::move(right_result));
}

}  // namespace pls::forkjoin
