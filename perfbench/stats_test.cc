// Tests of stats.h on synthetic inputs. Exit code 0 iff every check holds;
// run.py runs this after each build and refuses to benchmark otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "host_speed.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

int main() {
  using perfbench::AttributeShares;
  using perfbench::Median;
  using perfbench::NearestRank;

  // Nearest rank over 1..100 (shuffled): p-th percentile is the value p.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(NearestRank(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  Expect(NearestRank(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(NearestRank(hundred, 1.00) == 100.0, "p100 of 1..100 is 100");
  Expect(NearestRank(hundred, 0.001) == 1.0, "tiny p is the minimum");
  // Nearest rank never interpolates: over {10, 20, 30, 40} p50 is 20.
  Expect(NearestRank({40, 10, 30, 20}, 0.50) == 20.0, "p50 of 4 values");
  Expect(NearestRank({40, 10, 30, 20}, 0.51) == 30.0, "p51 of 4 values");
  Expect(NearestRank({7}, 0.99) == 7.0, "single value");
  Expect(std::isnan(NearestRank({}, 0.5)), "empty sample is NaN");

  // Median over windows.
  Expect(Median({3, 1, 2}) == 2.0, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(Median({5}) == 5.0, "one window");
  Expect(std::isnan(Median({})), "no windows is NaN");

  // Attribution: client + search + unattributed = 1.
  const perfbench::Shares a = AttributeShares(2.0, 6.0, 10.0);
  Expect(Near(a.client, 0.2) && Near(a.search, 0.6) &&
             Near(a.unattributed, 0.2),
         "shares of a covered total");
  Expect(Near(a.client + a.search + a.unattributed, 1.0), "shares sum to 1");
  // Spans covering more than the total are scaled, never negative.
  const perfbench::Shares b = AttributeShares(3.0, 9.0, 10.0);
  Expect(Near(b.client, 0.25) && Near(b.search, 0.75) &&
             b.unattributed == 0.0,
         "overshoot is scaled down");
  Expect(Near(b.client + b.search + b.unattributed, 1.0),
         "overshoot shares sum to 1");
  const perfbench::Shares c = AttributeShares(0.0, 0.0, 4.0);
  Expect(c.unattributed == 1.0, "no spans: all unattributed");
  const perfbench::Shares d = AttributeShares(0.0, 0.0, 0.0);
  Expect(d.client == 0.0 && d.search == 0.0 && d.unattributed == 0.0,
         "empty total");

  // Host speed scaling: a factor of 0.5 (host at half the reference speed)
  // doubles a throughput and halves a duration.
  const double half = perfbench::HostSpeedFactor(
      0.5 * perfbench::kReferenceProbeRate);
  Expect(Near(half, 0.5), "speed factor is the rate over the reference");
  Expect(Near(100.0 / half, 200.0) && Near(2.0 * half, 1.0),
         "scaled throughput and duration");
  const double rate = perfbench::ProbeRate(2);
  Expect(std::isfinite(rate) && rate > 0.0, "probe rate is positive");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
