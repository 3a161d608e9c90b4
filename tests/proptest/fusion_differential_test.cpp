// Fusion differential suite: generated pipelines over every stream op —
// map variants, peek, filter, limit, skip, take_while, drop_while,
// flat_map, distinct, sorted — over Array/Range/Generate/Concat/Iterate
// sources must collect exactly reference_result across the sequential
// fold, the fork-join supplier/combiner reduction, and the
// destination-passing collect — and consume exactly reference_consumption
// source elements, observed through a counting peek injected below the
// generated ops. The tentpole property drives each generated shape
// through 3 modes over >= 200 iterations.
// (Match/find terminals and their consumption depth live in
// fusion_wide_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/fusion.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

std::uint64_t chunk_for(const PipelineShape& s, Rand& r) {
  if (r.chance(1, 8)) return s.size + 1;
  return 1 + r.below(8);
}

/// The tentpole property: every execution mode equals the reference, bit
/// for bit.
TEST(FusionDifferential, FusedEqualsLegacyInEveryMode) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "{seq, fj, dps} == reference_result",
      suite_config(200),
      [](Rand& r) {
        PipelineShape s = gen_pipeline(r, 9);
        return std::make_pair(s, r.bits());
      },
      [](const std::pair<PipelineShape, std::uint64_t>& c) {
        std::vector<std::pair<PipelineShape, std::uint64_t>> out;
        for (auto& smaller : shrink_pipeline(c.first)) {
          out.emplace_back(std::move(smaller), c.second);
        }
        return out;
      },
      [&](const std::pair<PipelineShape, std::uint64_t>& c) -> PropStatus {
        const PipelineShape& s = c.first;
        Rand chunk_rand(c.second);
        const std::uint64_t chunk = chunk_for(s, chunk_rand);
        const std::vector<std::int64_t> expected = reference_result(s);
        for (const bool parallel : {false, true}) {
          for (const bool sized_sink : {false, true}) {
            if (!parallel && sized_sink) continue;  // same sequential route
            auto stream = build_stream(s).with_sized_sink(sized_sink);
            if (parallel) {
              stream =
                  std::move(stream).parallel().via(pool).with_min_chunk(chunk);
            }
            if (std::move(stream).to_vector() != expected) {
              return PropStatus::fail(
                  std::string(parallel ? "parallel" : "sequential") +
                  (sized_sink ? "+dps" : "") +
                  " route diverged from reference (min_chunk=" +
                  std::to_string(chunk) + ")");
            }
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Short-circuit depth: a counting peek placed *before* the generated ops
/// sees every element the evaluator pulls out of the source. Cancelling
/// chains (limit/take_while) must stop exactly where an element-at-a-time
/// evaluation does — reference_consumption — sequential or parallel.
TEST(FusionDifferential, CancellationConsumptionDepthMatchesLegacy) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "source consumption == reference_consumption", suite_config(200),
      [](Rand& r) { return gen_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [&](const PipelineShape& s) -> PropStatus {
        const std::uint64_t expected = reference_consumption(s);
        for (const bool parallel : {false, true}) {
          std::atomic<std::uint64_t> pulls{0};
          auto probed = build_source(s).peek([&pulls](const std::int64_t&) {
            pulls.fetch_add(1, std::memory_order_relaxed);
          });
          if (parallel) {
            probed = std::move(probed).parallel().via(pool).with_min_chunk(4);
          }
          if (apply_ops(std::move(probed), s).to_vector() !=
              reference_result(s)) {
            return PropStatus::fail("result diverged from reference");
          }
          if (pulls.load() != expected) {
            return PropStatus::fail(
                std::string(parallel ? "parallel" : "sequential") +
                " pipeline consumed " + std::to_string(pulls.load()) +
                " source elements, reference consumes " +
                std::to_string(expected));
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Counter totals: leaves feed elements_accumulated the size of a SIZED
/// source folded through the chain's stages (each StageNode's
/// transform_count), 0 once a stage — or an unsized source — makes it
/// unknowable. sorted restarts the count at its buffer. The sum over
/// leaves is the same however the walk splits.
std::uint64_t expected_element_total(const PipelineShape& s) {
  const std::size_t start = fused_chain_start(s);
  std::uint64_t n = s.size;
  if (start > 0) {
    PipelineShape prefix = s;
    prefix.ops.resize(start);
    n = reference_result(prefix).size();
  } else if (s.source == SourceKind::kIterate) {
    return 0;
  }
  for (std::size_t i = start; i < s.ops.size(); ++i) {
    const PipelineOp& op = s.ops[i];
    switch (op.kind) {
      case OpKind::kLimit:
        n = std::min(n, limit_count(op));
        break;
      case OpKind::kSkip:
        n = n > skip_count(op) ? n - skip_count(op) : 0;
        break;
      case OpKind::kFilter:
      case OpKind::kTakeWhile:
      case OpKind::kDropWhile:
      case OpKind::kFlatMap:
      case OpKind::kDistinct:
        return 0;
      default:
        break;  // map variants and peek keep the count
    }
  }
  return n;
}

TEST(FusionDifferential, FusedLeafElementTotalsMatchLegacy) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "elements_accumulated == expected_element_total", suite_config(80),
      [](Rand& r) { return gen_pipeline(r, 8); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [&](const PipelineShape& s) -> PropStatus {
        const std::uint64_t expected = expected_element_total(s);
        for (const bool parallel : {false, true}) {
          auto stream = build_stream(s);
          if (parallel) {
            stream = std::move(stream).parallel().via(pool).with_min_chunk(4);
          }
          const auto before = pls::observe::aggregate_counters();
          (void)std::move(stream).to_vector();
          const auto delta = pls::observe::aggregate_counters() - before;
          if (delta.elements_accumulated != expected) {
            return PropStatus::fail(
                std::string(parallel ? "parallel" : "sequential") +
                " leaves reported " +
                std::to_string(delta.elements_accumulated) +
                " elements, expected " + std::to_string(expected));
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Terminal coverage beyond to_vector: count and reduce equal the
/// reference for every generated shape, sequential and parallel.
TEST(FusionDifferential, CountAndReduceAgreeFusedVsLegacy) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "count/reduce == reference", suite_config(100),
      [](Rand& r) { return gen_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [&](const PipelineShape& s) -> PropStatus {
        const std::vector<std::int64_t> expected = reference_result(s);
        std::int64_t expected_xor = 0;
        for (const std::int64_t v : expected) expected_xor ^= v;
        for (const bool parallel : {false, true}) {
          const auto stream_for = [&] {
            auto stream = build_stream(s);
            if (parallel) {
              stream =
                  std::move(stream).parallel().via(pool).with_min_chunk(4);
            }
            return stream;
          };
          const std::string mode = parallel ? "parallel" : "sequential";
          if (stream_for().count() != expected.size()) {
            return PropStatus::fail(mode + " count diverged from reference");
          }
          const std::int64_t got = stream_for().reduce(
              std::int64_t{0},
              [](std::int64_t a, std::int64_t b) { return a ^ b; });
          if (got != expected_xor) {
            return PropStatus::fail(mode +
                                    " xor-reduce diverged from reference");
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
