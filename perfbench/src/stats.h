// Order statistics for the benchmark's reports.
//
// A median is always reported together with its sample count. A tail
// percentile is reported only when at least kMinBeyond samples lie beyond
// it: fewer than that and the "p95" of a short run is just its second- or
// third-largest request.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr int64_t kMinBeyond = 10;

// Median with linear interpolation between the two middle samples.
// Requires a non-empty input.
double Median(std::vector<double> values);

// Nearest-rank percentile q in (0, 1): the smallest sample with at least
// q * n samples at or below it. Returns nullopt unless n - rank >= 10
// samples lie strictly beyond that rank.
std::optional<double> TailPercentile(std::vector<double> values, double q);

// Samples needed before TailPercentile(q) reports.
int64_t MinSamplesForPercentile(double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
