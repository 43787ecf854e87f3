// main.cpp -- perfbench entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload and prints human-readable lines followed by one JSON
// result line: {"correct", "attempted", "failed", "metrics"}.  run.py builds
// this binary and puts the metrics into the order and unit set that
// BENCHMARK.json declares.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::uint64_t counter(const rofl::obs::Registry& reg, std::string_view name) {
  for (rofl::obs::MetricId i = 0; i < reg.counter_count(); ++i) {
    if (reg.counter_name(i) == name) return reg.counter_value(i);
  }
  return 0;
}

std::uint64_t counter_sum(const rofl::obs::Registry& reg,
                          std::string_view prefix) {
  std::uint64_t s = 0;
  for (rofl::obs::MetricId i = 0; i < reg.counter_count(); ++i) {
    if (reg.counter_name(i).starts_with(prefix)) s += reg.counter_value(i);
  }
  return s;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: ru_maxrss survives execve, so
  // it would report the launching interpreter's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void move_to_cpu(unsigned turn) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof all, &all) != 0) return;
  const int n = CPU_COUNT(&all);
  if (n <= 1) return;
  int k = static_cast<int>(turn % static_cast<unsigned>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all) && k-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) == 0) {
        (void)sched_setaffinity(0, sizeof all, &all);
      }
      return;
    }
  }
}

void EndToEnd::report(Outcome& out) const {
  out.metric("setup_s", median(setup_s), "s");
  out.metric("op_rate", median(op_rate), "ops/s");
  out.metric("join_rate", median(join_rate), "joins/s");
  out.metric("pps", median(pps), "frames/s");
  out.metric("wire_bytes_per_join", median(bytes_per_join), "B");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.note("set-up: median of " + std::to_string(setup_s.size()) +
           " samples taken between the reps, each the mean of a batch");
}

void report_overhead(Outcome& out, const std::vector<double>& untraced_rate,
                     const std::vector<double>& traced_rate) {
  const double untraced = median(untraced_rate);
  const double traced = median(traced_rate);
  out.note("tracing overhead: " + std::to_string(traced_rate.size()) +
           " traced reps at median " + std::to_string(traced) + "/s, " +
           std::to_string(untraced_rate.size()) +
           " interleaved untraced reps at median " +
           std::to_string(untraced) + "/s");
  out.metric("trace.overhead_frac", ratio(untraced, traced) - 1.0, "ratio");
}

void check_deterministic(Outcome& out, const std::vector<std::string>& lines) {
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i] != lines[0]) {
      out.check(false, "determinism: rep " + std::to_string(i) +
                           " differs from rep 0");
      out.note("determinism FAILED: rep 0: " + lines[0]);
      out.note("determinism FAILED: rep " + std::to_string(i) + ": " +
               lines[i]);
      return;
    }
  }
  out.note("determinism: " + std::to_string(lines.size()) +
           " reps identical: " + (lines.empty() ? "" : lines[0]));
}

}  // namespace pb

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload mesh-join-256f|mesh-udp-lookup|"
               "sim-intra-flows|sim-shard-scale --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process instead of handing it back to the
  // kernel.  With glibc's default trimming, whether a set-up or rep had to
  // fault in fresh pages depended on where the previous one left the top of
  // the heap: a ShardScaleModel set-up read ~5 ms without faults and ~10 ms
  // with its ~1900 page faults, and a process stayed on one side or the
  // other, so set-up time split into two levels from run to run.
  (void)mallopt(M_TRIM_THRESHOLD, 1 << 30);
  (void)mallopt(M_MMAP_THRESHOLD, 32 << 20);
  pb::Options opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.contains("workload")) return usage();
  try {
    opt.workload = args["workload"];
    opt.seed = std::stoull(args.contains("seed") ? args["seed"] : "1");
    opt.seconds = std::stod(args.contains("seconds") ? args["seconds"] : "10");
    opt.trace = args.contains("trace") && args["trace"] != "0";
  } catch (const std::exception&) {
    return usage();
  }
  opt.out_dir = args.contains("out") ? args["out"] : ".";
  if (opt.seconds <= 0.0) return usage();

  pb::Outcome out;
  if (opt.workload == "mesh-join-256f") {
    out = pb::run_mesh_join(opt);
  } else if (opt.workload == "mesh-udp-lookup") {
    out = pb::run_mesh_udp(opt);
  } else if (opt.workload == "sim-intra-flows") {
    out = pb::run_sim_intra(opt);
  } else if (opt.workload == "sim-shard-scale") {
    out = pb::run_sim_shard(opt);
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return usage();
  }

  for (const std::string& n : out.notes) std::cout << n << "\n";
  for (const std::string& c : out.check_failures) {
    std::cout << "CHECK FAILED: " << c << "\n";
  }
  // A failed output check counts as a failed operation (failed_frac).
  const std::uint64_t failed = out.failed + out.check_failures.size();
  const std::uint64_t attempted = std::max<std::uint64_t>(out.attempted, 1);
  std::cout << "failed_frac: " << json_number(static_cast<double>(failed) /
                                              static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " operations)\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << json_number(vu.first) << ", \"unit\": \"" << vu.second
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
