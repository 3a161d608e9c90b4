#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "observe/config.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, const char* purpose) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the purpose
  for (const char* p = purpose; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  return Rng(seed ^ h).next();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- tracing -----------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, std::uint32_t name, std::uint64_t items)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.items = items;
  rec_.start_ns = now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = now_ns();
  tracer_->records_.push_back(rec_);
}

std::uint32_t Tracer::name(const std::string& call) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == call) return i;
  }
  names_.push_back(call);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> Tracer::durations_ns(std::uint32_t name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns));
    }
  }
  return out;
}

double Tracer::median_per_item_ns(std::uint32_t name) const {
  std::vector<double> per;
  for (const Record& r : records_) {
    if (r.name == name && r.items > 0) {
      per.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                    static_cast<double>(r.items));
    }
  }
  return median(std::move(per));
}

// ---- host --------------------------------------------------------------

unsigned cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

unsigned os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string affinity_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  // Hex, most significant nibble first, like taskset -p.
  int top = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) top = c;
  }
  std::string hex;
  for (int nib = top / 4; nib >= 0; --nib) {
    int v = 0;
    for (int b = 0; b < 4; ++b) {
      if (CPU_ISSET(nib * 4 + b, &set)) v |= 1 << b;
    }
    hex.push_back("0123456789abcdef"[v]);
  }
  return "0x" + hex;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Size of cpu0's unified or data cache at `level`, as sysfs prints it.
std::string cache_size(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string lv = read_line(dir + "level");
    if (lv.empty()) break;
    if (std::stoi(lv) != level) continue;
    if (read_line(dir + "type") == "Instruction") continue;
    return read_line(dir + "size");
  }
  return "unknown";
}

}  // namespace

Fingerprint host_fingerprint() {
  Fingerprint f;
  f.nproc = cpu_budget();
  f.affinity = affinity_mask();
  f.cpu_model = cpu_model();
  f.l2 = cache_size(2);
  f.l3 = cache_size(3);
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("g++ ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.pls_observe = pls::observe::kEnabled;
  return f;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
