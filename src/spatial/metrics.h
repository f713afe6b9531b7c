// Distance metrics over spatial coordinates.

#ifndef SMFL_SPATIAL_METRICS_H_
#define SMFL_SPATIAL_METRICS_H_

namespace smfl::spatial {

// Great-circle distance in kilometers between (lat, lon) points in degrees.
// Used by the route-planning application where physical distances matter.
double HaversineKm(double lat1, double lon1, double lat2, double lon2);

}  // namespace smfl::spatial

#endif  // SMFL_SPATIAL_METRICS_H_
