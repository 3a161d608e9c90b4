// TieSpliterator and ZipSpliterator: the spliterator specialisations of
// Section IV-A (Figure 1 of the paper).
//
// Both derive from SpliteratorPower2, which models a strided window over
// shared storage as (start, increment, count) (StridedWindowSpliterator)
// and contributes the POWER2 characteristic whenever the remaining element
// count is a power of two — the admission test for applying PowerList
// functions to a stream.
//
//   TieSpliterator::try_split  — carves off the first half, same stride
//                                (the default "segment" partitioning).
//   ZipSpliterator::try_split  — carves off the even-position elements
//                                (stride doubles; this keeps the odds),
//                                exactly the paper's PZipSpliterator logic,
//                                and reports streams::kInterleaved.
//
// Subclasses may override on_split() to perform the paper's "additional
// operations at the splitting phase", and for_each_remaining() to
// specialise the basic-case computation on the sublists where splitting
// stopped (Section V).
#pragma once

#include <memory>
#include <vector>

#include "streams/spliterator.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::powerlist {

/// A strided view (start, incr, count) over shared storage: the traversal,
/// window and span plumbing shared by every strided source here and by
/// the plist n-way spliterators (Base is the spliterator interface they
/// implement). Subclasses supply the split rule and the flags.
///
/// The (start, incr, count) triple doubles as the destination window of
/// the destination-passing collect (streams::WindowedSource): the root's
/// encounter order is storage order, and every split rule here transforms
/// the triple exactly the way the result positions partition — tie keeps
/// the stride and halves the count, zip doubles the stride — so a leaf's
/// source window *is* its output window.
template <typename T, typename Base = streams::Spliterator<T>>
class StridedWindowSpliterator : public Base,
                                 public streams::WindowedSource {
 public:
  using Action = typename streams::Spliterator<T>::Action;

  StridedWindowSpliterator(std::shared_ptr<const std::vector<T>> data,
                           std::size_t start, std::size_t incr,
                           std::size_t count)
      : data_(std::move(data)), start_(start), incr_(incr), count_(count) {
    PLS_CHECK(data_ != nullptr, "strided spliterator requires storage");
    PLS_CHECK(incr >= 1, "increment must be >= 1");
    PLS_CHECK(count == 0 || start + (count - 1) * incr < data_->size(),
              "strided window exceeds storage");
  }

  bool try_advance(Action action) override {
    if (count_ == 0) return false;
    action((*data_)[start_]);
    start_ += incr_;
    --count_;
    return true;
  }

  void for_each_remaining(Action action) override {
    const std::vector<T>& v = *data_;
    std::size_t idx = start_;
    for (std::size_t k = 0; k < count_; ++k, idx += incr_) action(v[idx]);
    start_ = idx;
    count_ = 0;
  }

  /// The whole window as one strided span: unit-stride windows reach the
  /// fused chunk transport (and its SIMD collector kernels) zero-copy;
  /// strided ones (zip split products) are gathered a chunk at a time.
  streams::StridedSpan<T> try_take_span() override {
    const streams::StridedSpan<T> span{
        data_->data() + (count_ == 0 ? 0 : start_), count_, incr_};
    start_ += count_ * incr_;
    count_ = 0;
    return span;
  }

  std::uint64_t estimate_size() const override { return count_; }

  streams::Characteristics characteristics() const override {
    return streams::kOrdered | streams::kSized | streams::kSubsized |
           streams::kImmutable;
  }

  std::optional<streams::OutputWindow> try_output_window() const override {
    return streams::OutputWindow{start_, incr_, count_};
  }

  std::size_t start() const noexcept { return start_; }
  std::size_t increment() const noexcept { return incr_; }
  std::size_t count() const noexcept { return count_; }
  const std::shared_ptr<const std::vector<T>>& storage() const noexcept {
    return data_;
  }

 protected:
  std::shared_ptr<const std::vector<T>> data_;
  std::size_t start_;
  std::size_t incr_;
  std::size_t count_;
};

/// Base for PowerList spliterators: a strided window that also carries
/// the POWER2 characteristic.
template <typename T>
class SpliteratorPower2 : public StridedWindowSpliterator<T> {
 public:
  using StridedWindowSpliterator<T>::StridedWindowSpliterator;

  streams::Characteristics characteristics() const override {
    streams::Characteristics c =
        StridedWindowSpliterator<T>::characteristics();
    if (is_power_of_two(this->count_)) c |= streams::kPower2;
    return c;
  }
};

/// Linear ("segment") splitting — the PowerList tie operator.
template <typename T>
class TieSpliterator : public SpliteratorPower2<T> {
 public:
  using SpliteratorPower2<T>::SpliteratorPower2;

  explicit TieSpliterator(std::shared_ptr<const std::vector<T>> data)
      : SpliteratorPower2<T>(data, 0, 1, data ? data->size() : 0) {}

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    if (this->count_ < 2) return nullptr;
    const std::size_t half = this->count_ / 2;
    this->on_split();
    auto prefix = this->make_like(this->data_, this->start_, this->incr_,
                                  half);
    this->start_ += this->incr_ * half;
    this->count_ -= half;
    return prefix;
  }

 protected:
  /// Splitting-phase hook (no-op by default).
  virtual void on_split() {}

  /// Factory for the prefix spliterator; override so split products keep
  /// the derived type.
  virtual std::unique_ptr<streams::Spliterator<T>> make_like(
      std::shared_ptr<const std::vector<T>> data, std::size_t start,
      std::size_t incr, std::size_t count) {
    return std::make_unique<TieSpliterator<T>>(std::move(data), start, incr,
                                               count);
  }
};

/// Interleaved splitting — the PowerList zip operator. The prefix takes
/// the even-position elements (stride doubled); this keeps the odds.
template <typename T>
class ZipSpliterator : public SpliteratorPower2<T> {
 public:
  using SpliteratorPower2<T>::SpliteratorPower2;

  explicit ZipSpliterator(std::shared_ptr<const std::vector<T>> data)
      : SpliteratorPower2<T>(data, 0, 1, data ? data->size() : 0) {}

  /// The POWER2 flags plus INTERLEAVED: every split is the zip split.
  streams::Characteristics characteristics() const override {
    return SpliteratorPower2<T>::characteristics() | streams::kInterleaved;
  }

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    // Zip only deconstructs even-length lists (PowerLists always are).
    if (this->count_ < 2 || this->count_ % 2 != 0) return nullptr;
    const std::size_t half = this->count_ / 2;
    this->on_split();
    auto prefix = this->make_like(this->data_, this->start_,
                                  this->incr_ * 2, half);
    this->start_ += this->incr_;
    this->incr_ *= 2;
    this->count_ = half;
    return prefix;
  }

 protected:
  virtual void on_split() {}

  virtual std::unique_ptr<streams::Spliterator<T>> make_like(
      std::shared_ptr<const std::vector<T>> data, std::size_t start,
      std::size_t incr, std::size_t count) {
    return std::make_unique<ZipSpliterator<T>>(std::move(data), start, incr,
                                               count);
  }
};

}  // namespace pls::powerlist
