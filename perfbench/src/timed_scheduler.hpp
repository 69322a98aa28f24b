// Outside-in timing of the scheduler layer. `timedPolicy("greedy")` names a
// policy registered through core::SchedulerRegistrar that wraps the real
// one and times every nextItem() call. Each wrapper instance owns its
// counters (no lock on the decision path, so shards never contend); the
// blocks are collected after MetroSimulation::run() by collectSchedulerStats.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct SchedulerStats {
  std::uint64_t decisions = 0;
  std::uint64_t idle = 0;        ///< Decisions that returned no item.
  std::uint64_t duplicates = 0;  ///< Decisions that returned an in-flight item.
  double self_s = 0;             ///< Wall seconds inside nextItem().

  void add(const SchedulerStats& o) {
    decisions += o.decisions;
    idle += o.idle;
    duplicates += o.duplicates;
    self_s += o.self_s;
  }
};

/// Registry name of the timing wrapper around `policy` (greedy or opt).
std::string timedPolicy(const std::string& policy);

/// Sums the counters of every wrapper created since the last call and
/// forgets them. Call only while no simulation is running.
SchedulerStats collectSchedulerStats();

}  // namespace perfbench
