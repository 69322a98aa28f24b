#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

/// Runs live_small: an open-loop multipath client fetching from an origin
/// and three governed phone proxies, each a child process, over loopback.
/// `trace` runs a plain half and an instrumented half and reports the
/// per-layer metrics of the instrumented half.
void runLive(std::uint64_t seed, double seconds, bool trace, Outcome& out);

/// Entry point of a live child process: `origin` or
/// `proxy <upstream-port> <journal-path> <trace 0|1>`.
int childMain(int argc, char** argv);

}  // namespace perfbench
