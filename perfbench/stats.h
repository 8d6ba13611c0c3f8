// The benchmark's own arithmetic: percentiles, medians and the layer
// attribution shares. Header-only so stats_test.cc checks exactly the code
// cycle_bench.cc runs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ceil(p * n)-th smallest value, p in (0, 1].
/// Returns NaN for an empty sample.
inline double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Median; the mean of the two middle values for an even sample. NaN when
/// empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Shares of summed cycle time. They add up to 1: time the client and
/// search spans do not cover is unattributed, and span time beyond the
/// measured total (the client share is taken from a separate replay, so it
/// can overshoot) is scaled down instead of going negative.
struct Shares {
  double client = 0.0;
  double search = 0.0;
  double unattributed = 0.0;
};

inline Shares AttributeShares(double client_s, double search_s,
                              double total_s) {
  Shares shares;
  const double denom = std::max(total_s, client_s + search_s);
  if (denom <= 0.0) return shares;
  shares.client = client_s / denom;
  shares.search = search_s / denom;
  shares.unattributed = std::max(0.0, 1.0 - shares.client - shares.search);
  return shares;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
