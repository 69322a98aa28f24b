// Metric collection and the result line the benchmark prints last.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
/// Infinite samples sort last, so a tail quantile can come back infinite.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// user + system CPU seconds of a rusage record.
double cpuSeconds(const rusage& ru);
double sysSeconds(const rusage& ru);
rusage selfUsage();
rusage threadUsage();
/// Peak resident set of this process image in MB.
double peakRssMb();
/// Current VmRSS of this process in MB.
double currentRssMb();

/// Metric values by name. A metric a workload does not measure is absent
/// and prints as 0.
using Metrics = std::map<std::string, double>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every check that did not hold, one line each (printed to stderr).
  std::vector<std::string> violations;
  Metrics metrics;
  /// Another reading of some end-to-end metrics, printed for reference on
  /// a line of its own that starts with `aside_label`: metro's times before
  /// the division by the host slowdown, live's whole-window figures.
  std::string aside_label;
  Metrics aside;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      violations.push_back(what);
    }
  }
};

/// Prints the raw result line on stdout: correctness, counts and every
/// metric value by name. perfbench/run.py attaches the units and order
/// declared in BENCHMARK.json. Violations go to stderr.
void printResult(const Outcome& out);

}  // namespace perfbench
