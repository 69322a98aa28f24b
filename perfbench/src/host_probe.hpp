// How fast the shared host runs right now. The box is a VM on a shared
// host whose speed changes in phases of seconds to minutes, at times by a
// factor of two; every time a run measures moves with it. HostProbe times a fixed
// kernel that is part of the benchmark (not of the program under test), so
// the benchmark can report its times at the reference speed below instead
// of at whatever speed the host had during the run.
//
// The kernel is timed on two clocks. Its wall time also grows while the
// hypervisor runs other guests on our vCPUs (steal), which wall-clock
// metrics see and CPU-time metrics do not; its thread CPU time grows only
// with contention for the cores and caches themselves. Each metric is
// divided by the slowdown of its own clock.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Probe time of the reference box when its host is quiet (see README.md).
/// A host that takes longer has a slowdown above 1.
constexpr double kReferenceProbeSeconds = 0.010;

class HostProbe {
 public:
  /// `threads` threads run the kernel at once, as many as the workload
  /// keeps busy, so the probe sees every vCPU the workload runs on.
  explicit HostProbe(unsigned threads);

  /// Kernel time over kReferenceProbeSeconds, mean over the threads, on
  /// each clock. Times measured near the sample are divided by it to give
  /// times at the reference speed.
  struct Slowdown {
    double wall = 1;
    double cpu = 1;
  };

  /// Runs the kernel once on every thread.
  Slowdown sample();

 private:
  /// One L2-sized buffer per thread, kept for the whole run so the probe
  /// adds a fixed 1 MiB to the process's resident set.
  std::vector<std::vector<std::uint32_t>> buffers_;
};

}  // namespace perfbench
