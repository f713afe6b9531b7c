#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

int64_t NearestRank(int64_t n, double q) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
}

}  // namespace

std::optional<double> TailPercentile(std::vector<double> values, double q) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0) return std::nullopt;
  const int64_t rank = NearestRank(n, q);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

int64_t MinSamplesForPercentile(double q) {
  int64_t n = 1;
  while (n - NearestRank(n, q) < kMinBeyond) ++n;
  return n;
}

}  // namespace perfbench
