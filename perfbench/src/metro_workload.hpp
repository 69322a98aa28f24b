#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// Runs one of the metro_* workloads for `seconds` of city repetitions and
/// fills `out`. `trace` alternates plain and traced repetitions and reports
/// the per-layer metrics instead of the end-to-end ones.
void runMetro(const std::string& workload, std::uint64_t seed, double seconds,
              bool trace, Outcome& out);

bool isMetroWorkload(const std::string& workload);

}  // namespace perfbench
