#include "src/repair/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/telemetry.h"
#include "src/spatial/knn.h"

namespace smfl::repair {

namespace {

// Median of a (copied) value vector.
double Median(std::vector<double> v) {
  SMFL_CHECK(!v.empty());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(), v.begin() + mid - 1, v.end());
    m = 0.5 * (m + v[mid - 1]);
  }
  return m;
}

struct RobustScale {
  double median = 0.0;
  double mad = 1.0;  // median absolute deviation, floored
};

RobustScale ColumnScale(const Matrix& x, Index j) {
  std::vector<double> values(static_cast<size_t>(x.rows()));
  for (Index i = 0; i < x.rows(); ++i) values[static_cast<size_t>(i)] = x(i, j);
  RobustScale scale;
  scale.median = Median(values);
  for (double& v : values) v = std::fabs(v - scale.median);
  scale.mad = std::max(Median(values), 1e-6);
  return scale;
}

struct Histogram {
  double lo = 0.0, hi = 1.0;
  Index bins = 8;

  Index BinOf(double v) const {
    const double t = (v - lo) / std::max(hi - lo, 1e-12);
    return std::clamp<Index>(static_cast<Index>(t * static_cast<double>(bins)),
                             0, bins - 1);
  }
};

// Signal 2: adds a vote to every cell whose bin the tuple's other
// attributes' bins (nearly) never accompany, counting them in `flags`.
void VoteSurprisingCells(const Matrix& x, const DetectorOptions& options,
                         Matrix& votes, Index& flags) {
  const Index n = x.rows(), m = x.cols();
  std::vector<Histogram> hist(static_cast<size_t>(m));
  Matrix binned(n, m);
  for (Index j = 0; j < m; ++j) {
    Histogram& h = hist[static_cast<size_t>(j)];
    h.bins = options.bins;
    h.lo = std::numeric_limits<double>::infinity();
    h.hi = -std::numeric_limits<double>::infinity();
    for (Index i = 0; i < n; ++i) {
      h.lo = std::min(h.lo, x(i, j));
      h.hi = std::max(h.hi, x(i, j));
    }
    for (Index i = 0; i < n; ++i) {
      binned(i, j) = static_cast<double>(h.BinOf(x(i, j)));
    }
  }
  // Joint counts per column pair.
  std::vector<std::vector<Matrix>> joint(
      static_cast<size_t>(m),
      std::vector<Matrix>(static_cast<size_t>(m),
                          Matrix(options.bins, options.bins)));
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      for (Index k = j + 1; k < m; ++k) {
        joint[static_cast<size_t>(j)][static_cast<size_t>(k)](
            static_cast<Index>(binned(i, j)),
            static_cast<Index>(binned(i, k))) += 1.0;
      }
    }
  }
  auto joint_count = [&](Index j, Index k, Index bj, Index bk) {
    if (j < k) return joint[static_cast<size_t>(j)][static_cast<size_t>(k)](bj, bk);
    return joint[static_cast<size_t>(k)][static_cast<size_t>(j)](bk, bj);
  };
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      Index surprised = 0, total = 0;
      for (Index k = 0; k < m; ++k) {
        if (k == j) continue;
        ++total;
        // "-1": exclude the tuple's own contribution to the count.
        if (joint_count(j, k, static_cast<Index>(binned(i, j)),
                        static_cast<Index>(binned(i, k))) -
                1.0 <=
            options.surprise_count) {
          ++surprised;
        }
      }
      if (total > 0 && static_cast<double>(surprised) >
                           options.surprise_fraction *
                               static_cast<double>(total)) {
        votes(i, j) += 1.0;
        ++flags;
      }
    }
  }
}

}  // namespace

Result<DetectionResult> DetectErrors(const Matrix& x, Index spatial_cols,
                                     const DetectorOptions& options) {
  SMFL_TRACE_SPAN("repair.detect");
  const Index n = x.rows(), m = x.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("DetectErrors: empty matrix");
  }
  if (spatial_cols < 0 || spatial_cols > m) {
    return Status::InvalidArgument("DetectErrors: bad spatial_cols");
  }
  if (options.min_votes < 1 || options.min_votes > 3) {
    return Status::InvalidArgument("DetectErrors: min_votes must be 1..3");
  }

  DetectionResult result;
  result.flagged = Mask(n, m);
  Matrix votes(n, m);

  // --- Signal 1: robust column outliers.
  std::vector<RobustScale> scales(static_cast<size_t>(m));
  for (Index j = 0; j < m; ++j) {
    scales[static_cast<size_t>(j)] = ColumnScale(x, j);
    const RobustScale& s = scales[static_cast<size_t>(j)];
    for (Index i = 0; i < n; ++i) {
      // 1.4826 converts MAD to a Gaussian-comparable sigma.
      const double z = std::fabs(x(i, j) - s.median) / (1.4826 * s.mad);
      if (z > options.z_threshold) {
        votes(i, j) += 1.0;
        ++result.outlier_flags;
      }
    }
  }

  // --- Signal 2: pairwise co-occurrence surprise, on tables large enough
  // for a low joint count to be rare (detector.h).
  if (n >= 4 * options.bins * options.bins) {
    VoteSurprisingCells(x, options, votes, result.surprise_flags);
  }

  // --- Signal 3: spatial discordance (non-spatial columns only).
  if (spatial_cols >= 1 && n > options.neighbors) {
    Matrix si = x.Block(0, 0, n, spatial_cols);
    auto knn = spatial::AllKnn(si, options.neighbors);
    if (knn.ok()) {
      for (Index i = 0; i < n; ++i) {
        const auto& neighbors = (*knn)[static_cast<size_t>(i)];
        for (Index j = spatial_cols; j < m; ++j) {
          std::vector<double> local;
          local.reserve(neighbors.size());
          for (const auto& nb : neighbors) local.push_back(x(nb.index, j));
          const double local_median = Median(local);
          // Local spread in robust column units.
          const double spread =
              1.4826 * scales[static_cast<size_t>(j)].mad;
          if (std::fabs(x(i, j) - local_median) >
              options.spatial_threshold * spread) {
            votes(i, j) += 1.0;
            ++result.spatial_flags;
          }
        }
      }
    }
  }

  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      if (votes(i, j) >= static_cast<double>(options.min_votes)) {
        result.flagged.Set(i, j);
      }
    }
  }
  return result;
}

DetectionQuality EvaluateDetection(const Mask& flagged, const Mask& truth) {
  SMFL_CHECK(flagged.SameShape(truth));
  Index tp = 0, fp = 0, fn = 0;
  for (Index i = 0; i < truth.rows(); ++i) {
    for (Index j = 0; j < truth.cols(); ++j) {
      const bool f = flagged.Contains(i, j);
      const bool t = truth.Contains(i, j);
      tp += f && t;
      fp += f && !t;
      fn += !f && t;
    }
  }
  DetectionQuality q;
  q.precision =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp)
                  : 0.0;
  q.recall = tp + fn > 0
                 ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                 : 0.0;
  q.f1 = q.precision + q.recall > 0
             ? 2 * q.precision * q.recall / (q.precision + q.recall)
             : 0.0;
  return q;
}

}  // namespace smfl::repair
