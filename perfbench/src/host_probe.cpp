#include "host_probe.hpp"

#include <time.h>

#include <thread>
#include <utility>

#include "report.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBufferWords = std::size_t{1} << 16;  // 256 KiB
constexpr int kComputeSteps = 2'000'000;
constexpr int kMemorySteps = 2'000'000;

volatile std::uint64_t g_sink;

double threadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Integer and floating-point work, then random read-modify-writes over an
// L2-sized buffer: both the arithmetic and the cache speed of the core.
// Returns {wall, thread CPU} seconds.
std::pair<double, double> kernel(std::vector<std::uint32_t>& buf,
                                 std::uint32_t salt) {
  const auto t0 = Clock::now();
  const double c0 = threadCpuSeconds();
  std::uint64_t x = salt + 1;
  double f = 1;
  for (int k = 0; k < kComputeSteps; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    f = f * 1.0000001 + static_cast<double>(x >> 60);
  }
  std::uint32_t y = static_cast<std::uint32_t>(x);
  std::uint64_t sum = 0;
  const std::size_t mask = buf.size() - 1;
  for (int k = 0; k < kMemorySteps; ++k) {
    y = y * 1664525U + 1013904223U;
    sum += buf[(y >> 8) & mask];
    buf[((y >> 8) ^ 1) & mask] += y;
  }
  g_sink = sum + static_cast<std::uint64_t>(f);
  return {secondsSince(t0), threadCpuSeconds() - c0};
}

}  // namespace

HostProbe::HostProbe(unsigned threads)
    : buffers_(threads == 0 ? 1 : threads,
               std::vector<std::uint32_t>(kBufferWords, 1)) {}

HostProbe::Slowdown HostProbe::sample() {
  std::vector<std::pair<double, double>> seconds(buffers_.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    threads.emplace_back([this, &seconds, i] {
      seconds[i] = kernel(buffers_[i], static_cast<std::uint32_t>(i));
    });
  }
  for (auto& t : threads) t.join();
  Slowdown mean{0, 0};
  for (const auto& [wall, cpu] : seconds) {
    mean.wall += wall;
    mean.cpu += cpu;
  }
  const double n = static_cast<double>(seconds.size());
  mean.wall /= n * kReferenceProbeSeconds;
  mean.cpu /= n * kReferenceProbeSeconds;
  return mean;
}

}  // namespace perfbench
