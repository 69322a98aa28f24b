#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return v[lo];
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + frac * (v[hi] - v[lo]);
}

double cpuSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double sysSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

rusage selfUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru;
}

rusage threadUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return ru;
}

namespace {

// A /proc/self/status field in MB. VmHWM rather than ru_maxrss, which keeps
// the high-water mark of the image that exec() replaced.
double statusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double peakRssMb() { return statusMb("VmHWM:"); }

double currentRssMb() { return statusMb("VmRSS:"); }

void printResult(const Outcome& out) {
  for (const auto& v : out.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
  }
  if (!out.aside.empty()) {
    std::printf("%s:", out.aside_label.c_str());
    for (const auto& [name, value] : out.aside) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("\n");
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(value) ? value
                                       : std::numeric_limits<double>::max());
    json += first ? "" : ", ";
    json += "\"" + name + "\": " + num;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
