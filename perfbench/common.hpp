// common.hpp -- shared vocabulary of the benchmark workloads.
//
// A workload invocation measures a fixed-size repetition ("rep") over and
// over until its time budget is spent, then reports medians across reps.
// Every rep of one seed must reproduce the same simulated outcome; the
// workloads fold those outcomes into a digest line and compare them.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Moves the calling thread to the `turn`-th (mod their count) of the CPUs
/// it may run on, then gives it back all of them: it starts there and
/// threads it starts later are not pinned.
void move_to_cpu(unsigned turn);

/// Share of a run's time that goes to set-up samples, and the set-up time
/// one sample averages over.
constexpr double kSetupShare = 0.15;
constexpr double kSetupBatchSeconds = 0.04;

/// Drives a workload: calls `rep(i)` for i = 0, 1, ... at least `min_reps`
/// times and until `seconds` have passed; returns the number of reps.
///
/// Set-up is sampled between the reps, not in one burst: before each rep,
/// at least one sample and until the samples have taken kSetupShare of the
/// time so far (tear-down included).  They thus meet the same machine
/// conditions as the reps over the whole run.  A sample, appended to
/// `setup_s`, is the mean of back-to-back calls of `setup()` (which returns
/// its own duration in seconds) until they add up to kSetupBatchSeconds.
/// Single set-ups of a few ms spread widely on a shared host (4.2 to 6.7 ms
/// between the 10th and 90th percentile within one mesh-join-256f run), and
/// their median moved with that mix from run to run; a batch averages over
/// it, as a rep does.
///
/// Every sample and every rep starts on the next CPU in turn: one vCPU can
/// run 40% slower than another for minutes, and a process that stayed on
/// one would carry that into its medians.
template <class Setup, class Rep>
int run_reps(double seconds, int min_reps, Setup&& setup, Rep&& rep,
             std::vector<double>& setup_s) {
  const Clock::time_point start = Clock::now();
  double setup_total = 0.0;  // wall time of the samples
  int reps = 0;
  for (; reps < min_reps || seconds_since(start) < seconds; ++reps) {
    do {
      const Clock::time_point t0 = Clock::now();
      move_to_cpu(static_cast<unsigned>(setup_s.size()));
      double sum = 0.0;
      int n = 0;
      for (; sum < kSetupBatchSeconds; ++n) sum += setup();
      setup_s.push_back(sum / n);
      setup_total += seconds_since(t0);
    } while (setup_total < kSetupShare * seconds_since(start));
    move_to_cpu(static_cast<unsigned>(reps));
    rep(reps);
  }
  return reps;
}

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// Linearly interpolated percentile, p in [0, 1]; 0 if empty.
double percentile(std::vector<double> v, double p);

/// Arithmetic mean; 0 if empty.
double mean(const std::vector<double>& v);

/// num / den, or 0 when den is 0 (a layer the rep did not exercise).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Value of the counter named `name`, or 0 when `reg` has none.
std::uint64_t counter(const rofl::obs::Registry& reg, std::string_view name);

/// Sum of every counter whose name starts with `prefix`.
std::uint64_t counter_sum(const rofl::obs::Registry& reg,
                          std::string_view prefix);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its Perfetto file
};

/// What one invocation reports: the result line's fields plus the
/// human-readable lines printed ahead of it.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that did not hold (ring audits, byte parity,
  /// determinism); any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// The untraced figures whose medians are the end-to-end metrics: one entry
/// per set-up sample in `setup_s`, one per rep in the others.
struct EndToEnd {
  std::vector<double> setup_s, op_rate, join_rate, pps, bytes_per_join;
  /// Adds every end-to-end metric to `out`: the medians, and peak_rss_mb.
  void report(Outcome& out) const;
};

/// trace.overhead_frac: how much slower the traced reps ran than the
/// untraced reps of the same configuration interleaved with them (median
/// rate over median rate, less 1), so that drift over the run cancels out.
void report_overhead(Outcome& out, const std::vector<double>& untraced_rate,
                     const std::vector<double>& traced_rate);

/// Compares the per-rep outcome lines of one seed: every rep must print the
/// same line.  Records a check failure and a note on any difference.
void check_deterministic(Outcome& out, const std::vector<std::string>& lines);

Outcome run_mesh_join(const Options& opt);
Outcome run_mesh_udp(const Options& opt);
Outcome run_sim_intra(const Options& opt);
Outcome run_sim_shard(const Options& opt);

}  // namespace pb
