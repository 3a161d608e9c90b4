// Shared pieces of the benchmark driver: arguments, seeded input
// generation, clocks, the benchmark's own span tracer, the metric report
// and host facts (CPU budget, thread count, peak RSS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;  ///< --out: full result document (JSON)
  /// --setup-only 1: time one set-up and exit (a fresh-process set-up
  /// sample for the parent run's setup_s).
  bool setup_only = false;
};

// ---- inputs ------------------------------------------------------------

/// SplitMix64: the whole input of a run derives from --seed through this.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

 private:
  std::uint64_t state_;
};

/// Stream of one seed for one named purpose, so workloads draw
/// independent inputs from the same --seed.
std::uint64_t derive_seed(std::uint64_t seed, const char* purpose);

std::int64_t now_ns();  ///< steady clock

// ---- tracing -----------------------------------------------------------

/// The benchmark's own tracer: a span around each call the benchmark makes
/// into a module's public functions, kept in memory and summarised when
/// the run ends. Disabled, a span costs one branch.
class Tracer {
 public:
  struct Record {
    std::uint32_t name = 0;
    std::uint64_t items = 0;  ///< elements the call processed
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, std::uint32_t name, std::uint64_t items);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Record rec_;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Register a span name (the call) once; returns its id.
  std::uint32_t name(const std::string& call);

  Span span(std::uint32_t name, std::uint64_t items = 1) {
    return Span(enabled_ ? this : nullptr, name, items);
  }

  /// Durations (ns) of every span with this name.
  std::vector<double> durations_ns(std::uint32_t name) const;
  /// Median over spans of duration / items.
  double median_per_item_ns(std::uint32_t name) const;

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Record> records_;
};

// ---- report ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  double q = 0.0;  ///< quantile actually reported (percentile metrics)
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, double q = 0.0) {
    rows_.push_back(Metric{name, value, unit, samples, q});
  }
  void add(const std::string& name, const Quantile& v, double scale,
           const std::string& unit) {
    add(name, v.value * scale, unit, v.samples, v.q);
  }
  const std::vector<Metric>& rows() const noexcept { return rows_; }

 private:
  std::vector<Metric> rows_;
};

// ---- host --------------------------------------------------------------

/// CPUs this process may run on (the affinity mask): the thread budget.
unsigned cpu_budget();
/// Threads the process has right now (/proc/self/status).
unsigned os_threads();
double peak_rss_mb();

/// Everything a result depends on besides the code: results with
/// different fingerprints are never compared.
struct Fingerprint {
  unsigned nproc = 0;
  std::string affinity;  ///< hex CPU mask
  std::string cpu_model;
  std::string l2;        ///< per-core L2 size as the kernel reports it
  std::string l3;
  std::string compiler;
  std::string build_type;
  bool pls_observe = false;
};
Fingerprint host_fingerprint();

std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
