// Host speed probe. The hosts this benchmark runs on are shared: over a
// ten-run set their speed has drifted by up to 2x for minutes at a time,
// moving set-up time and throughput together, which no median inside a run
// can absorb. The probe times a fixed kernel that is not TopPriv code next
// to the workload, so a timing can be scaled to a fixed reference speed;
// a change to the program moves the workload, never the probe.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// Probe rate (rounds/s, summed over threads) of the host this file was
/// tuned on in a typical state; HostSpeedFactor divides by it.
constexpr double kReferenceProbeRate = 340000.0;

/// Rounds of probe work per second, summed over `threads` threads running
/// at once. A round is 1024 random reads from a shared 8 MiB table (cache
/// and memory bound, like posting traversal) plus 1024 from a 16 KiB slice
/// of it (core bound, like the sampler's inner loop), each feeding a
/// floating-point sum. Takes about 10 ms.
inline double ProbeRate(size_t threads) {
  constexpr size_t kBigBits = 21;    // 2^21 floats = 8 MiB
  constexpr size_t kSmallBits = 12;  // 2^12 floats = 16 KiB
  constexpr size_t kRounds = 1024;
  static const std::vector<float> table = [] {
    std::vector<float> t(size_t{1} << kBigBits);
    for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i % 97);
    return t;
  }();
  std::vector<double> seconds(threads, 0.0);
  std::vector<double> sums(threads, 0.0);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const auto start = std::chrono::steady_clock::now();
      uint64_t x = 0x9E3779B97F4A7C15ull + w;
      double sum = 0.0;
      for (size_t r = 0; r < kRounds; ++r) {
        for (int i = 0; i < 1024; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          sum += table[x & ((size_t{1} << kBigBits) - 1)] * 1.0000001;
        }
        for (int i = 0; i < 1024; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          sum += table[x & ((size_t{1} << kSmallBits) - 1)] * 1.0000001;
        }
      }
      seconds[w] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      sums[w] = sum;
    });
  }
  for (std::thread& t : workers) t.join();
  double rate = 0.0;
  double checksum = 0.0;
  for (size_t w = 0; w < threads; ++w) {
    rate += static_cast<double>(kRounds) / seconds[w];
    checksum += sums[w];
  }
  // Keeps the sums live; never true for a finite sum of non-negative terms.
  if (checksum < 0.0) rate = 0.0;
  return rate;
}

/// Host speed relative to the reference: the median probe rate of a
/// process over kReferenceProbeRate. Below 1 on a slower host. A throughput
/// at the reference speed is the measured one divided by this factor; a
/// duration at the reference speed is the measured one multiplied by it.
inline double HostSpeedFactor(double median_probe_rate) {
  return median_probe_rate / kReferenceProbeRate;
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
