// perfbench: the repository benchmark.
//
//   perfbench --workload horner|pipeline|service --seed N --seconds S
//             --trace 0|1 [--out result.json]
//
// Prints a table of every metric (name, value, unit, sample count, and
// the quantile actually reported), the host fingerprint, and as its last
// line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics untraced, the per-layer metrics traced. --out writes
// the full result document that `run.py compare` reads.
//
// An untraced run first runs itself again kFreshSetups times with
// --setup-only 1; each child times one set-up in a fresh process, and
// setup_s is the median of those and the run's own set-up.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "observe/config.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

/// The end-to-end metrics of the final line (BENCHMARK.json's
/// end_to_end). error_rate is carried by the final line's attempted and
/// failed counts; it and latency_p99_ms (too sensitive to the shared
/// host's hiccups to bound; README.md) are reported in the table and the
/// --out document only.
constexpr const char* kEndToEnd[] = {"throughput_melem_s", "latency_p50_ms",
                                     "latency_p90_ms", "setup_s",
                                     "peak_rss_mb"};

/// A traced run gives the workloads it does not select this long each.
constexpr double kSideSeconds = 1.5;

/// Set-ups timed in child processes besides the run's own. Each process
/// sets up once, so no set-up pays for pools an earlier one left behind
/// in the observe layer's per-thread sweep.
constexpr int kFreshSetups = 8;

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_path = val;
    } else if (key == "--setup-only") {
      if (val != "0" && val != "1") return false;
      a.setup_only = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && !(a.setup_only && a.trace) &&
         (a.workload == "horner" || a.workload == "pipeline" ||
          a.workload == "service");
}

/// Runs this program again with --setup-only 1 for the same workload and
/// seed, and reads the set-up time from the child's final line. Adds the
/// child's operations to `total`; returns nothing if the child did not
/// finish cleanly or reported an incorrect result.
std::optional<double> fresh_setup(const Args& args, Outcome& total) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::string argv_s[] = {"perfbench", "--workload", args.workload,
                          "--seed", std::to_string(args.seed),
                          "--seconds", "1", "--trace", "0",
                          "--setup-only", "1"};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t got = 0;
  while (spawned == 0 && (got = read(fds[0], buf, sizeof(buf))) != 0) {
    if (got > 0) {
      text.append(buf, static_cast<std::size_t>(got));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  const std::size_t last = text.rfind("{\"correct\"");
  if (last == std::string::npos) return std::nullopt;
  char correct[8] = "";
  unsigned long long attempted = 0, failed = 0;
  double seconds = 0.0;
  if (std::sscanf(text.c_str() + last,
                  "{\"correct\": %7[a-z], \"attempted\": %llu, \"failed\": "
                  "%llu, \"metrics\": {\"setup_s\": {\"value\": %lf",
                  correct, &attempted, &failed, &seconds) != 4) {
    return std::nullopt;
  }
  total.attempted += attempted;
  total.failed += failed;
  if (std::strcmp(correct, "true") != 0) return std::nullopt;
  return seconds;
}

Outcome run_workload(const std::string& name, Context& ctx) {
  if (name == "horner") return run_horner(ctx);
  if (name == "pipeline") return run_pipeline(ctx);
  return run_service(ctx);
}

std::string fingerprint_json(const Fingerprint& f) {
  std::ostringstream o;
  o << "{\"nproc\":" << f.nproc << ",\"affinity\":" << json_string(f.affinity)
    << ",\"cpu_model\":" << json_string(f.cpu_model)
    << ",\"l2\":" << json_string(f.l2) << ",\"l3\":" << json_string(f.l3)
    << ",\"compiler\":" << json_string(f.compiler)
    << ",\"build_type\":" << json_string(f.build_type)
    << ",\"pls_observe\":" << (f.pls_observe ? "true" : "false") << "}";
  return o.str();
}

std::string metrics_json(const std::vector<Metric>& rows, bool detail) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Metric& m = rows[i];
    o << (i == 0 ? "" : ", ") << json_string(m.name)
      << ": {\"value\": " << json_number(m.value)
      << ", \"unit\": " << json_string(m.unit);
    if (detail) {
      o << ", \"samples\": " << m.samples;
      if (m.q > 0.0) o << ", \"quantile\": " << json_number(m.q);
    }
    o << "}";
  }
  return o.str() + "}";
}

void print_table(const std::vector<Metric>& rows) {
  std::printf("%-34s %16s  %-8s %9s  %s\n", "metric", "value", "unit",
              "samples", "quantile");
  for (const Metric& m : rows) {
    char q[16] = "";
    if (m.q > 0.0) std::snprintf(q, sizeof(q), "%.4f", m.q);
    std::printf("%-34s %16.6g  %-8s %9zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, q);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload horner|pipeline|service "
                 "--seed N --seconds S --trace 0|1 [--out F]\n");
    return 2;
  }
  const unsigned nproc = cpu_budget();
  Tracer tracer;
  Report end_to_end;
  Report per_layer;
  Outcome total;
  bool within_budget = true;
  bool children_ok = true;

  std::vector<double> fresh_setup_s;
  if (!args.trace && !args.setup_only) {
    for (int k = 0; k < kFreshSetups; ++k) {
      const std::optional<double> s = fresh_setup(args, total);
      if (s) fresh_setup_s.push_back(*s);
      children_ok = children_ok && s.has_value();
    }
  }

  // Service first: its per-batch telemetry sweeps the observe blocks of
  // every thread the process has started, so it runs before the pools of
  // the other workloads have added theirs.
  const char* all[] = {"service", "horner", "pipeline"};
  for (const char* name : all) {
    const bool selected = args.workload == name;
    if (!selected && !args.trace) continue;
    Context ctx{args, nproc, tracer, end_to_end, per_layer, selected,
                selected ? args.seconds : kSideSeconds, fresh_setup_s};
    const Outcome o = run_workload(name, ctx);
    total.attempted += o.attempted;
    total.failed += o.failed;
    within_budget = within_budget && o.within_budget;
  }

  // The selected workload's result rows, then the final line's subset.
  const std::vector<Metric>& rows =
      args.trace ? per_layer.rows() : end_to_end.rows();
  std::vector<Metric> final_rows;
  bool complete = true;
  for (const Metric& m : rows) complete = complete && std::isfinite(m.value);
  if (args.trace || args.setup_only) {
    final_rows = rows;
  } else {
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const Metric& m : rows) {
        if (m.name == name) {
          final_rows.push_back(m);
          found = true;
        }
      }
      complete = complete && found;
    }
  }

  // Every terminal or batch must leave exactly one run record.
  bool one_record = true;
  if (args.trace && pls::observe::kEnabled) {
    for (const Metric& m : rows) {
      if (m.name == "observe.records_per_op") one_record = m.value == 1.0;
    }
  }
  const bool correct = total.failed == 0 && within_budget && children_ok &&
                       one_record && complete && total.attempted > 0;

  const Fingerprint fp = host_fingerprint();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc);
  std::printf("fingerprint %s\n", fingerprint_json(fp).c_str());
  print_table(rows);
  std::printf("attempted %llu, failed %llu, thread budget %s%s%s\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed),
              within_budget ? "kept" : "EXCEEDED",
              children_ok ? "" : ", a set-up process FAILED",
              one_record ? "" : ", run records per operation != 1");

  if (!args.out_path.empty()) {
    std::ofstream doc(args.out_path);
    doc << "{\"workload\": " << json_string(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << json_number(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"fingerprint\": " << fingerprint_json(fp)
        << ", \"attempted\": " << total.attempted
        << ", \"failed\": " << total.failed
        << ", \"metrics\": " << metrics_json(rows, true) << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed),
              metrics_json(final_rows, false).c_str());
  return 0;
}
