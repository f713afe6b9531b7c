#include "perfbench/src/probe.h"

#include <time.h>

#include <algorithm>
#include <cstdint>

#include "perfbench/src/workload.h"

namespace perfbench {

namespace {

constexpr double kEps = 1e-9;
// The probe's table: the workloads' shape, half the cells observed.
constexpr int64_t kRows = 4000;
constexpr int64_t kCols = 20;
constexpr double kHiddenShare = 0.5;
constexpr uint64_t kTableSeed = 0x70726f6265ULL;
constexpr size_t kRank = 10;
// About kProbeReferenceMs on the reference host.
constexpr int kIterations = 56;

double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

double ScaleToReference(double ms, double probe_before_ms,
                        double probe_after_ms) {
  return ms * kProbeReferenceMs / (0.5 * (probe_before_ms + probe_after_ms));
}

HostProbe::HostProbe()
    : n_(static_cast<size_t>(kRows)),
      m_(static_cast<size_t>(kCols)),
      k_(kRank),
      x_(n_ * m_, 0.0),
      w_(n_ * m_, 0.0),
      r_(n_ * m_, 0.0),
      u_(n_ * k_),
      v_(m_ * k_),
      num_(n_ * k_),
      den_(n_ * k_) {
  Rng rng(kTableSeed);
  SpatialTable table = SampleRows(MakeField(kCols), rng, kRows);
  HideCells(table, rng, kHiddenShare);
  for (int64_t c = 0; c < kCols; ++c) {
    double lo = table.Truth(0, c), hi = lo;
    for (int64_t r = 0; r < kRows; ++r) {
      lo = std::min(lo, table.Truth(r, c));
      hi = std::max(hi, table.Truth(r, c));
    }
    const double span = hi > lo ? hi - lo : 1.0;
    for (int64_t r = 0; r < kRows; ++r) {
      if (!table.Observed(r, c)) continue;
      const size_t i = static_cast<size_t>(r) * m_ + static_cast<size_t>(c);
      x_[i] = (table.Truth(r, c) - lo) / span;
      w_[i] = 1.0;
    }
  }
}

void HostProbe::Reconstruct() {
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      double s = 0.0;
      for (size_t q = 0; q < k_; ++q) s += u_[i * k_ + q] * v_[j * k_ + q];
      r_[i * m_ + j] = w_[i * m_ + j] * s;
    }
  }
}

// One multiplicative update of U, then of V, against the observed cells:
// U <- U * (X V) / (R V), V <- V * (X^T U) / (R^T U), R = W * (U V^T).
void HostProbe::Iterate() {
  Reconstruct();
  std::fill(num_.begin(), num_.end(), 0.0);
  std::fill(den_.begin(), den_.end(), 0.0);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      const double x = x_[i * m_ + j], r = r_[i * m_ + j];
      for (size_t q = 0; q < k_; ++q) {
        num_[i * k_ + q] += x * v_[j * k_ + q];
        den_[i * k_ + q] += r * v_[j * k_ + q];
      }
    }
  }
  for (size_t i = 0; i < n_ * k_; ++i) u_[i] *= num_[i] / (den_[i] + kEps);
  Reconstruct();
  std::fill(num_.begin(), num_.end(), 0.0);
  std::fill(den_.begin(), den_.end(), 0.0);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      const double x = x_[i * m_ + j], r = r_[i * m_ + j];
      for (size_t q = 0; q < k_; ++q) {
        num_[j * k_ + q] += x * u_[i * k_ + q];
        den_[j * k_ + q] += r * u_[i * k_ + q];
      }
    }
  }
  for (size_t j = 0; j < m_ * k_; ++j) v_[j] *= num_[j] / (den_[j] + kEps);
}

ProbeTime HostProbe::Run() {
  const double w0 = ClockMs(CLOCK_MONOTONIC);
  const double c0 = ClockMs(CLOCK_THREAD_CPUTIME_ID);
  // The same positive start on every run.
  for (size_t i = 0; i < u_.size(); ++i) {
    u_[i] = 0.5 + 0.5 * static_cast<double>((i * 7919) % 101) / 101.0;
  }
  for (size_t i = 0; i < v_.size(); ++i) {
    v_[i] = 0.5 + 0.5 * static_cast<double>((i * 104729) % 97) / 97.0;
  }
  for (int it = 0; it < kIterations; ++it) Iterate();
  double sum = 0.0;
  for (double u : u_) sum += u;
  for (double v : v_) sum += v;
  checksum_ = sum;
  return {ClockMs(CLOCK_MONOTONIC) - w0,
          ClockMs(CLOCK_THREAD_CPUTIME_ID) - c0};
}

}  // namespace perfbench
