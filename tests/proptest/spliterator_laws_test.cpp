// Spliterator contract law suite: every spliterator type in
// src/streams/spliterators.hpp (Array, Range, Generate, Concat),
// src/powerlist/spliterators.hpp (SpliteratorPower2, Tie, Zip) and
// src/plist/multiway_spliterator.hpp (NTie, NZip) — plus the pull adapter
// (FusedSpliterator) over map/peek/filter pipelines — checked against the
// generic contract checker over generated sizes, values, and split
// decisions. Each suite also pins whether the family answers the
// bulk-pull span hook; the interleaving law runs in every suite, and
// InterleavedFlag pins which families report kInterleaved.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "plist/multiway_spliterator.hpp"
#include "powerlist/collector_functions.hpp"
#include "powerlist/spliterators.hpp"
#include "proptest/gen.hpp"
#include "proptest/laws.hpp"
#include "proptest/prop.hpp"
#include "streams/fusion.hpp"
#include "streams/spliterators.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;
namespace powerlist = pls::powerlist;
namespace plist = pls::plist;

using SpInt = std::unique_ptr<streams::Spliterator<std::int64_t>>;
using Shared = std::shared_ptr<const std::vector<std::int64_t>>;

Config suite_config() {
  Config cfg;
  cfg.iterations = 60;
  return cfg;
}

/// A generated backing vector plus the Rand stream for split decisions.
struct Case {
  std::vector<std::int64_t> data;
  std::uint64_t split_seed;

  std::string debug_string() const {
    return "data=" + describe(data) +
           " split_seed=" + std::to_string(split_seed);
  }
};

Case gen_case(Rand& r, std::uint64_t max_size, bool pow2_only) {
  Case c;
  const std::uint64_t n = pow2_only
                              ? gen_pow2_size(r, 0, 8)
                              : gen_size(r, 0, max_size);
  c.data = gen_values(r, n, -1000, 1000);
  c.split_seed = r.bits();
  return c;
}

std::vector<Case> shrink_case(const Case& c) {
  std::vector<Case> out;
  for (auto& smaller : shrink_vector(c.data)) {
    out.push_back(Case{std::move(smaller), c.split_seed});
  }
  return out;
}

/// Whether a family answers the bulk-pull span hook: memory-backed
/// sources must (the fused drive's zero-call route), every other source
/// must return a null span.
enum class Hook { kNone, kSpan };

/// Run the law checker for a factory family over generated cases.
template <typename MakeFactory>
void run_suite(const char* name, bool pow2_only, Hook hook,
               MakeFactory make_factory,
               SplitOrder order = SplitOrder::kPrefix) {
  const auto result = check(
      name, suite_config(),
      [&](Rand& r) { return gen_case(r, 200, pow2_only); },
      [](const Case& c) { return shrink_case(c); },
      [&](const Case& c) {
        Rand split_rand(c.split_seed);
        auto factory = make_factory(c);
        if (PropStatus s = check_spliterator_laws<std::int64_t>(
                factory, split_rand, order);
            !s.ok) {
          return s;
        }
        const bool spanned = factory()->try_take_span().data != nullptr;
        if (!c.data.empty() && spanned != (hook == Hook::kSpan)) {
          return PropStatus::fail(spanned ? "unexpected non-null span"
                                          : "memory-backed source gave a "
                                            "null span");
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

TEST(SpliteratorLaws, Array) {
  run_suite("ArraySpliterator laws", false, Hook::kSpan, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          shared);
    };
  });
}

TEST(SpliteratorLaws, Range) {
  run_suite("RangeSpliterator laws", false, Hook::kNone, [](const Case& c) {
    // Reinterpret the case as a range: begin from the split seed
    // (including negatives), length from the data.
    const std::int64_t begin =
        static_cast<std::int64_t>(c.split_seed % 4001) - 2000;
    const std::int64_t end = begin + static_cast<std::int64_t>(c.data.size());
    return [begin, end]() -> SpInt {
      return std::make_unique<streams::RangeSpliterator<std::int64_t>>(begin,
                                                                       end);
    };
  });
}

TEST(SpliteratorLaws, Generate) {
  struct Fn {
    std::uint64_t seed;
    std::int64_t operator()(std::uint64_t i) const {
      return value_at(seed, i);
    }
  };
  run_suite("GenerateSpliterator laws", false, Hook::kNone, [](const Case& c) {
    auto fn = std::make_shared<const Fn>(Fn{c.split_seed});
    const std::uint64_t n = c.data.size();
    return [fn, n]() -> SpInt {
      return std::make_unique<
          streams::GenerateSpliterator<std::int64_t, Fn>>(fn, 0, n);
    };
  });
}

TEST(SpliteratorLaws, Concat) {
  run_suite("ConcatSpliterator laws", false, Hook::kNone, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    const std::size_t mid = c.data.size() / 3;
    return [shared, mid]() -> SpInt {
      auto first = std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          shared, 0, mid);
      auto second = std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          shared, mid, shared->size());
      return std::make_unique<streams::ConcatSpliterator<std::int64_t>>(
          std::move(first), std::move(second));
    };
  });
}

TEST(SpliteratorLaws, SpliteratorPower2Strided) {
  run_suite("SpliteratorPower2 (strided) laws", true, Hook::kSpan,
            [](const Case& c) {
              // View the data at a stride that still fits: every other
              // element.
              auto shared =
                  std::make_shared<const std::vector<std::int64_t>>(c.data);
              const std::size_t count = c.data.size() / 2;
              return [shared, count]() -> SpInt {
                return std::make_unique<
                    powerlist::TieSpliterator<std::int64_t>>(shared, 0, 2,
                                                             count);
              };
            });
}

TEST(SpliteratorLaws, Tie) {
  run_suite("TieSpliterator laws", true, Hook::kSpan, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return std::make_unique<powerlist::TieSpliterator<std::int64_t>>(
          shared);
    };
  });
}

TEST(SpliteratorLaws, Zip) {
  // Zip splits partition by parity, so leaf concatenation is a bit-reversal
  // permutation of encounter order; order is carried by the output windows
  // (the placement law), not by prefix concatenation.
  run_suite(
      "ZipSpliterator laws", true, Hook::kSpan,
      [](const Case& c) {
        auto shared =
            std::make_shared<const std::vector<std::int64_t>>(c.data);
        return [shared]() -> SpInt {
          return std::make_unique<powerlist::ZipSpliterator<std::int64_t>>(
              shared);
        };
      },
      SplitOrder::kInterleaved);
}

TEST(SpliteratorLaws, NTie) {
  run_suite("NTieSpliterator laws", true, Hook::kSpan,
            [](const Case& c) {
              auto shared =
                  std::make_shared<const std::vector<std::int64_t>>(c.data);
              return [shared]() -> SpInt {
                return std::make_unique<plist::NTieSpliterator<std::int64_t>>(
                    shared);
              };
            });
}

TEST(SpliteratorLaws, NZip) {
  run_suite(
      "NZipSpliterator laws", true, Hook::kSpan,
      [](const Case& c) {
        auto shared =
            std::make_shared<const std::vector<std::int64_t>>(c.data);
        return [shared]() -> SpInt {
          return std::make_unique<plist::NZipSpliterator<std::int64_t>>(
              shared);
        };
      },
      SplitOrder::kInterleaved);
}

/// The pull adapter over an Array source plus one stage: the law suite
/// sees the pipeline exactly as concat pulls a side that carries stages.
template <typename Stage>
void run_adapter_suite(const char* name, std::shared_ptr<const Stage> stage) {
  run_suite(name, false, Hook::kNone, [stage](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared, stage]() -> SpInt {
      SpInt source =
          std::make_unique<streams::ArraySpliterator<std::int64_t>>(shared);
      auto fp = streams::fuse_source(source);
      fp->append_stage(stage);
      return std::make_unique<streams::FusedSpliterator<std::int64_t>>(
          std::move(fp));
    };
  });
}

TEST(SpliteratorLaws, MapWrapper) {
  struct Twice {
    std::int64_t operator()(const std::int64_t& v) const {
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) * 2);
    }
  };
  run_adapter_suite(
      "FusedSpliterator(map) laws",
      std::make_shared<const streams::MapStage<std::int64_t, std::int64_t,
                                               Twice>>(
          std::make_shared<const Twice>()));
}

TEST(SpliteratorLaws, FilterWrapper) {
  struct Odd {
    bool operator()(const std::int64_t& v) const { return (v & 1) != 0; }
  };
  run_adapter_suite(
      "FusedSpliterator(filter) laws",
      std::make_shared<const streams::FilterStage<std::int64_t, Odd>>(
          std::make_shared<const Odd>()));
}

TEST(SpliteratorLaws, PeekWrapper) {
  struct Noop {
    void operator()(const std::int64_t&) const {}
  };
  run_adapter_suite(
      "FusedSpliterator(peek) laws",
      std::make_shared<const streams::PeekStage<std::int64_t, Noop>>(
          std::make_shared<const Noop>()));
}

/// A tie source that falsely claims zip-style splitting.
class MislabelledTie final : public powerlist::TieSpliterator<std::int64_t> {
 public:
  using TieSpliterator::TieSpliterator;
  streams::Characteristics characteristics() const override {
    return TieSpliterator::characteristics() | streams::kInterleaved;
  }
};

// Zip sources, the paper's PZipSpliterator among them, report kInterleaved
// before and after splitting; tie, array, range and n-way tie sources never
// do; concat drops it; and the law rejects a source that reports it
// falsely, whichever split order it is checked under.
TEST(SpliteratorLaws, InterleavedFlag) {
  std::vector<std::int64_t> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::int64_t>(i);
  }
  const Shared shared = std::make_shared<const std::vector<std::int64_t>>(values);

  powerlist::ZipSpliterator<std::int64_t> zip(shared);
  EXPECT_TRUE(zip.has(streams::kInterleaved));
  const SpInt evens = zip.try_split();
  ASSERT_NE(evens, nullptr);
  EXPECT_TRUE(evens->has(streams::kInterleaved));
  EXPECT_TRUE(zip.has(streams::kInterleaved));

  const pls::powerlist::PolynomialValueCollector pv(0.5);
  const auto pzip = pv.make_spliterator(
      std::make_shared<const std::vector<double>>(64, 1.0));
  EXPECT_TRUE(pzip->has(streams::kInterleaved));
  EXPECT_TRUE(pzip->try_split()->has(streams::kInterleaved));

  EXPECT_FALSE(powerlist::TieSpliterator<std::int64_t>(shared).has(
      streams::kInterleaved));
  EXPECT_FALSE(streams::ArraySpliterator<std::int64_t>(shared).has(
      streams::kInterleaved));
  EXPECT_FALSE(streams::RangeSpliterator<std::int64_t>(0, 64).has(
      streams::kInterleaved));
  EXPECT_FALSE(
      plist::NTieSpliterator<std::int64_t>(shared).has(streams::kInterleaved));
  const streams::ConcatSpliterator<std::int64_t> concat(
      std::make_unique<powerlist::ZipSpliterator<std::int64_t>>(shared),
      std::make_unique<powerlist::ZipSpliterator<std::int64_t>>(shared));
  EXPECT_FALSE(concat.has(streams::kInterleaved));

  for (const SplitOrder order : {SplitOrder::kPrefix, SplitOrder::kInterleaved}) {
    Rand r(7);
    const PropStatus s = check_spliterator_laws<std::int64_t>(
        [&]() -> SpInt { return std::make_unique<MislabelledTie>(shared); }, r,
        order);
    EXPECT_FALSE(s.ok);
    EXPECT_NE(s.message.find("[interleaved]"), std::string::npos) << s.message;
  }
}

}  // namespace
