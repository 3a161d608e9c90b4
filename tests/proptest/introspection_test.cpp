// Stream introspection tells the truth: for every generated pipeline
// shape, the characteristic flags and size estimate that Stream reports
// (the source folded through each stage's transform_characteristics and
// transform_count) must hold for the elements the stream then yields.
//   kSized    => estimate_size() == the number of elements
//   kPower2   => that number is a power of two
//   kSorted   => the elements are in ascending order (and a chain ending
//                in sorted() reports kSorted)
//   kDistinct => no element repeats
// The generated sources never report kPower2, so each power-of-two shape
// is also run over a TieSpliterator holding the same elements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "powerlist/spliterators.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/stream.hpp"
#include "support/bits.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

PropStatus introspection_holds(streams::Stream<std::int64_t> stream,
                               const PipelineShape& s) {
  const streams::Characteristics c = stream.characteristics();
  const std::uint64_t estimate = stream.estimate_size();
  const std::vector<std::int64_t> out = std::move(stream).to_vector();
  const auto has = [c](streams::Characteristics f) {
    return streams::has_characteristics(c, f);
  };
  if (has(streams::kSized) && estimate != out.size()) {
    return PropStatus::fail("kSized estimate " + std::to_string(estimate) +
                            " but " + std::to_string(out.size()) +
                            " elements");
  }
  if (has(streams::kPower2) && !pls::is_power_of_two(out.size())) {
    return PropStatus::fail("kPower2 but " + std::to_string(out.size()) +
                            " elements");
  }
  if (has(streams::kSorted) && !std::is_sorted(out.begin(), out.end())) {
    return PropStatus::fail("kSorted but the output is unsorted");
  }
  if (!s.ops.empty() && s.ops.back().kind == OpKind::kSorted &&
      !has(streams::kSorted)) {
    return PropStatus::fail("sorted() chain does not report kSorted");
  }
  if (has(streams::kDistinct) &&
      std::unordered_set<std::int64_t>(out.begin(), out.end()).size() !=
          out.size()) {
    return PropStatus::fail("kDistinct but an element repeats");
  }
  return PropStatus::pass();
}

TEST(StreamIntrospection, CharacteristicsHoldForTheOutput) {
  Config cfg;
  cfg.iterations = 300;
  const auto result = check(
      "reported characteristics hold for to_vector()", cfg,
      [](Rand& r) { return gen_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        if (PropStatus st = introspection_holds(build_stream(s), s); !st.ok) {
          return st;
        }
        if (!pls::is_power_of_two(s.size)) return PropStatus::pass();
        auto tie = streams::stream_support::from_spliterator<std::int64_t>(
            std::make_unique<pls::powerlist::TieSpliterator<std::int64_t>>(
                std::make_shared<const std::vector<std::int64_t>>(
                    reference_source(s))),
            false);
        if (!streams::has_characteristics(tie.characteristics(),
                                          streams::kPower2)) {
          return PropStatus::fail("TieSpliterator source lost kPower2");
        }
        return introspection_holds(apply_ops(std::move(tie), s), s);
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
