// The repository benchmark. Runs one named workload with a seed for a
// given number of seconds, checks the program's outputs, and prints one
// JSON result line last on stdout (see ../README.md):
//
//   perfbench --workload metro_browse --seed 1 --seconds 30 --trace 0
//
// `perfbench child origin|proxy ...` is the entry point of the live
// workload's server processes; the live generator starts them itself.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "live_workload.hpp"
#include "metro_workload.hpp"
#include "report.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload metro_browse|metro_video|"
               "metro_opt|live_small\n"
               "                 --seed N --seconds S --trace 0|1\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "child") == 0) {
    return perfbench::childMain(argc - 2, argv + 2);
  }
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else usage();
  }
  if (argc % 2 != 1 || workload.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    usage();
  }

  perfbench::Outcome out;
  try {
    if (perfbench::isMetroWorkload(workload)) {
      perfbench::runMetro(workload, seed, seconds, trace == 1, out);
    } else if (workload == "live_small") {
      perfbench::runLive(seed, seconds, trace == 1, out);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  perfbench::printResult(out);
  return out.correct ? 0 : 1;
}
