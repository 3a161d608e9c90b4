// Short-circuit differential suite: match/find terminals over pipelines
// generated from every stream op — map variants, peek, filter, limit,
// skip, take_while, drop_while, flat_map, distinct, sorted — over every
// generated source. Three properties:
//
//   1. any/all/none_match and find_first equal a reference computed from
//      the op-by-op interpreter, sequential and parallel.
//   2. Consumption depth: a short-circuit terminal pulls exactly
//      reference_consumption source elements, observed through a counting
//      peek between the source and the generated ops.
//   3. Routing: a match terminal runs one element-loop leaf on the
//      calling thread, however parallel the stream.
//
// Failures replay with PLS_TEST_SEED, like the rest of the proptest
// suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "observe/counters.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

/// Match predicate shared by all four terminals: sparse enough that
/// short-circuiting usually stops mid-source, dense enough to hit.
struct MatchPredFn {
  std::uint64_t param;
  bool operator()(const std::int64_t& v) const {
    return ((static_cast<std::uint64_t>(v) ^ param) % 5) == 0;
  }
};

struct ShapeAndParam {
  PipelineShape shape;
  std::uint64_t param;
};

ShapeAndParam gen_case(Rand& r) {
  return ShapeAndParam{gen_pipeline(r, 9), r.bits()};
}

std::vector<ShapeAndParam> shrink_case(const ShapeAndParam& c) {
  std::vector<ShapeAndParam> out;
  for (auto& smaller : shrink_pipeline(c.shape)) {
    out.push_back(ShapeAndParam{std::move(smaller), c.param});
  }
  if (c.param != 0) out.push_back(ShapeAndParam{c.shape, 0});
  return out;
}

/// All four short-circuit terminals equal the reference interpreter,
/// sequential and parallel.
TEST(FusionWide, MatchAndFindAgreeFusedLegacyReference) {
  const auto result = check(
      "match/find == reference", suite_config(150), gen_case,
      shrink_case, [](const ShapeAndParam& c) -> PropStatus {
        const MatchPredFn pred{c.param};
        const std::vector<std::int64_t> expected =
            reference_result(c.shape);
        bool ref_any = false, ref_all = true;
        for (const std::int64_t v : expected) {
          if (pred(v)) ref_any = true;
          else ref_all = false;
        }
        const std::optional<std::int64_t> ref_first =
            expected.empty() ? std::nullopt
                             : std::optional<std::int64_t>(expected.front());
        for (const bool parallel : {false, true}) {
          const auto stream_for = [&]() {
            auto s = build_stream(c.shape);
            if (parallel) s = std::move(s).parallel();
            return s;
          };
          const std::string mode = parallel ? "parallel" : "sequential";
          if (stream_for().any_match(pred) != ref_any) {
            return PropStatus::fail("any_match diverged (" + mode + "): " +
                                    c.shape.debug_string());
          }
          if (stream_for().all_match(pred) != ref_all) {
            return PropStatus::fail("all_match diverged (" + mode + "): " +
                                    c.shape.debug_string());
          }
          if (stream_for().none_match(pred) != !ref_any) {
            return PropStatus::fail("none_match diverged (" + mode + "): " +
                                    c.shape.debug_string());
          }
          if (stream_for().find_first() != ref_first) {
            return PropStatus::fail("find_first diverged (" + mode + "): " +
                                    c.shape.debug_string());
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Consumption depth: short-circuit terminals pull exactly as many source
/// elements as an element-at-a-time evaluation — the cancellable
/// element-mode driver checks cancellation between source elements.
TEST(FusionWide, ShortCircuitConsumptionDepthMatchesLegacy) {
  const auto result = check(
      "match/find source consumption == reference_consumption",
      suite_config(150), gen_case, shrink_case,
      [](const ShapeAndParam& c) -> PropStatus {
        const MatchPredFn pred{c.param};
        for (const bool use_find : {false, true}) {
          const std::function<bool(std::int64_t)> stop_at =
              use_find ? std::function<bool(std::int64_t)>(
                             [](std::int64_t) { return true; })
                       : std::function<bool(std::int64_t)>(pred);
          const std::uint64_t expected =
              reference_consumption(c.shape, stop_at);
          std::uint64_t pulls = 0;
          auto probed = build_source(c.shape).peek(
              [&pulls](const std::int64_t&) { ++pulls; });
          auto stream = apply_ops(std::move(probed), c.shape);
          if (use_find) {
            (void)std::move(stream).find_first();
          } else {
            (void)std::move(stream).any_match(pred);
          }
          if (pulls != expected) {
            return PropStatus::fail(
                std::string(use_find ? "find_first" : "any_match") +
                " consumed " + std::to_string(pulls) +
                " source elements, reference consumes " +
                std::to_string(expected) + ": " + c.shape.debug_string());
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Routing: a match terminal — parallel or not — runs exactly one
/// element-loop leaf and never splits.
TEST(FusionWide, MatchTerminalsRouteThroughFusedLeaves) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto result = check(
      "match terminal runs one leaf, no splits", suite_config(80), gen_case,
      shrink_case, [](const ShapeAndParam& c) -> PropStatus {
        const MatchPredFn pred{c.param};
        const auto before = pls::observe::aggregate_counters();
        (void)build_stream(c.shape).parallel().any_match(pred);
        const auto delta = pls::observe::aggregate_counters() - before;
        if (delta.leaf_chunks != 1 || delta.splits != 0) {
          return PropStatus::fail(
              "match ran " + std::to_string(delta.leaf_chunks) +
              " leaves over " + std::to_string(delta.splits) +
              " splits: " + c.shape.debug_string());
        }
        if (pls::streams::last_plan().drive !=
            pls::streams::DriveMode::kElementLoop) {
          return PropStatus::fail("match plan is not an element loop: " +
                                  c.shape.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
