#include "src/spatial/metrics.h"

#include <algorithm>
#include <cmath>

namespace smfl::spatial {

double HaversineKm(double lat1, double lon1, double lat2, double lon2) {
  constexpr double kEarthRadiusKm = 6371.0088;
  constexpr double kDegToRad = M_PI / 180.0;
  const double phi1 = lat1 * kDegToRad;
  const double phi2 = lat2 * kDegToRad;
  const double dphi = (lat2 - lat1) * kDegToRad;
  const double dlambda = (lon2 - lon1) * kDegToRad;
  const double a = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlambda / 2) *
                       std::sin(dlambda / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(a)));
}

}  // namespace smfl::spatial
