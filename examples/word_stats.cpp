// Stream pipelines on text: the paper's word-joining collect plus the
// collectors library on a realistic token workload — grouping, counting,
// partitioning, and a histogram, in sequential and parallel modes.
#include <cstdio>
#include <string>
#include <vector>

#include "streams/collectors.hpp"
#include "streams/stream.hpp"

using pls::streams::Stream;
namespace collectors = pls::streams::collectors;

namespace {

std::vector<std::string> tokens() {
  // A deterministic corpus assembled from a rotating vocabulary.
  const std::vector<std::string> vocabulary{
      "stream",  "power",   "list",   "parallel", "split", "combine",
      "collect", "monoid",  "fork",   "join",     "tie",   "zip",
      "reduce",  "map",     "filter", "spliterator"};
  std::vector<std::string> out;
  out.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    out.push_back(vocabulary[(i * i + i / 3) % vocabulary.size()]);
  }
  return out;
}

}  // namespace

int main() {
  const auto corpus = tokens();

  // The paper's joining example (the combiner inserts the separator
  // between partial results in parallel mode).
  const auto preview = Stream<std::string>::of(corpus)
                           .limit(6)
                           .collect(collectors::joining(", ", "[", "]"));
  std::printf("first tokens: %s\n", preview.c_str());

  // Count distinct words (parallel).
  const auto distinct = Stream<std::string>::of(corpus)
                            .parallel()
                            .collect(collectors::to_set<std::string>());
  std::printf("distinct words: %zu\n", distinct.size());

  // Histogram by first letter, parallel grouping.
  const auto groups = Stream<std::string>::of(corpus)
                          .parallel()
                          .collect(collectors::grouping_by<std::string>(
                              [](const std::string& w) { return w[0]; }));
  std::printf("words by first letter:\n");
  for (const auto& [letter, words] : groups) {
    std::printf("  %c: %5zu  %s\n", letter, words.size(),
                std::string(words.size() / 150, '#').c_str());
  }

  // Partition by length, then average length of each side.
  const auto [long_words, short_words] =
      Stream<std::string>::of(corpus)
          .parallel()
          .collect(collectors::partitioning_by<std::string>(
              [](const std::string& w) { return w.size() > 5; }));
  std::printf("long words: %zu, short words: %zu\n", long_words.size(),
              short_words.size());
  const double avg_len = Stream<std::string>::of(corpus)
                             .parallel()
                             .collect(collectors::averaging<std::string>(
                                 [](const std::string& w) {
                                   return static_cast<double>(w.size());
                                 }));
  std::printf("average token length: %.2f\n", avg_len);

  // Longest token via max_by.
  const auto longest =
      Stream<std::string>::of(corpus).parallel().collect(
          collectors::max_by<std::string>(
              [](const std::string& a, const std::string& b) {
                return a.size() < b.size();
              }));
  std::printf("longest token: %s\n",
              longest.has_value() ? longest->c_str() : "(none)");

  // The vocabulary in order: distinct, then sorted (a full barrier that
  // buffers its upstream), then the first few words.
  const auto first_words = Stream<std::string>::of(corpus)
                               .distinct()
                               .sorted()
                               .limit(4)
                               .collect(collectors::joining(", "));
  std::printf("first words alphabetically: %s\n", first_words.c_str());

  // Letters across the corpus through flat_map, checked against a loop.
  const auto letters = Stream<std::string>::of(corpus)
                           .parallel()
                           .flat_map([](const std::string& w) {
                             return std::vector<char>(w.begin(), w.end());
                           })
                           .count();
  std::size_t expected_letters = 0;
  for (const auto& w : corpus) expected_letters += w.size();
  std::printf("letters: %llu\n", static_cast<unsigned long long>(letters));
  return letters == expected_letters ? 0 : 1;
}
