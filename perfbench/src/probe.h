// The host-speed probe: a fixed piece of the harness's own arithmetic,
// timed between requests to measure how fast the host runs at that moment.
//
// On a shared host the speed of a core drifts by tens of percent over
// minutes, and the drift moves every timing of a run together. The probe
// does the same kind of work as a fit (a masked rank-k reconstruction
// written to an N x M buffer, then multiplicative updates, over a 4000 x 20
// table) in the harness's own code, built with the harness's own flags, so
// no change to the program moves it. A timing divided by the probe's time
// around it is the program's cost with the host's speed taken out. See
// README.md.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// The probe's time on the host the benchmark was tuned on (see README.md):
// a timing scaled by kProbeReferenceMs / (probe time around it) reads in
// milliseconds of that host.
inline constexpr double kProbeReferenceMs = 200.0;

// `ms` of a timing made between two probe runs, scaled to the reference
// host by the mean of their times.
double ScaleToReference(double ms, double probe_before_ms,
                        double probe_after_ms);

struct ProbeTime {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // this thread's CPU time
};

class HostProbe {
 public:
  // The probe's input is a fixed table, the same for every workload and
  // seed, so every run of every workload does the same work.
  HostProbe();

  // Masked multiplicative updates of a rank-10 factorisation, always from
  // the same start.
  ProbeTime Run();

  // Sum of the factors after the last run: the same after every run.
  double checksum() const { return checksum_; }

 private:
  void Reconstruct();
  void Iterate();

  size_t n_ = 0, m_ = 0, k_ = 0;
  std::vector<double> x_;          // n x m observed values, 0 where hidden
  std::vector<double> w_;          // n x m, 1 where observed
  std::vector<double> r_;          // n x m, w * (U V^T)
  std::vector<double> u_, v_;      // n x k, m x k
  std::vector<double> num_, den_;  // n x k or m x k update terms
  double checksum_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
