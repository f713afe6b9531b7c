#include "src/data/normalize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/strings.h"

namespace smfl::data {

Result<MinMaxNormalizer> MinMaxNormalizer::Fit(const Matrix& x,
                                               const Mask& observed) {
  if (x.rows() != observed.rows() || x.cols() != observed.cols()) {
    return Status::InvalidArgument("MinMaxNormalizer: mask shape mismatch");
  }
  MinMaxNormalizer n;
  n.mins_.assign(static_cast<size_t>(x.cols()),
                 std::numeric_limits<double>::infinity());
  n.maxs_.assign(static_cast<size_t>(x.cols()),
                 -std::numeric_limits<double>::infinity());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      if (!observed.Contains(i, j)) continue;
      const double v = x(i, j);
      if (!std::isfinite(v)) {
        return Status::DataError("MinMaxNormalizer: non-finite value");
      }
      auto sj = static_cast<size_t>(j);
      n.mins_[sj] = std::min(n.mins_[sj], v);
      n.maxs_[sj] = std::max(n.maxs_[sj], v);
    }
  }
  for (size_t j = 0; j < n.mins_.size(); ++j) {
    if (!std::isfinite(n.mins_[j])) {
      // Column entirely unobserved: identity-ish transform.
      n.mins_[j] = 0.0;
      n.maxs_[j] = 1.0;
    } else if (!std::isfinite(n.maxs_[j] - n.mins_[j])) {
      // Finite values whose span overflows (e.g. ±1.7e308): every
      // transformed cell would be 0 or NaN, so name the column here rather
      // than let the fit blame its input for NaN/Inf.
      return Status::DataError(StrFormat(
          "MinMaxNormalizer: column %zu range [%g, %g] overflows (max - min "
          "is not finite)",
          j, n.mins_[j], n.maxs_[j]));
    } else if (n.maxs_[j] - n.mins_[j] < 1e-300) {
      // Constant column: avoid division by zero; maps to 0.
      n.maxs_[j] = n.mins_[j] + 1.0;
    }
  }
  return n;
}

Result<MinMaxNormalizer> MinMaxNormalizer::Fit(const Matrix& x) {
  return Fit(x, Mask::AllSet(x.rows(), x.cols()));
}

Result<MinMaxNormalizer> MinMaxNormalizer::FromBounds(
    std::vector<double> mins, std::vector<double> maxs) {
  if (mins.size() != maxs.size()) {
    return Status::InvalidArgument("MinMaxNormalizer: bounds size mismatch");
  }
  for (size_t j = 0; j < mins.size(); ++j) {
    if (!std::isfinite(mins[j]) || !std::isfinite(maxs[j]) ||
        !(maxs[j] - mins[j] > 0.0) || !std::isfinite(maxs[j] - mins[j])) {
      return Status::InvalidArgument(
          "MinMaxNormalizer: invalid bounds for column " + std::to_string(j));
    }
  }
  MinMaxNormalizer n;
  n.mins_ = std::move(mins);
  n.maxs_ = std::move(maxs);
  return n;
}

Matrix MinMaxNormalizer::Transform(const Matrix& x) const {
  SMFL_CHECK_EQ(x.cols(), NumCols());
  Matrix out(x.rows(), x.cols());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      auto sj = static_cast<size_t>(j);
      out(i, j) = (x(i, j) - mins_[sj]) / (maxs_[sj] - mins_[sj]);
    }
  }
  return out;
}

Matrix MinMaxNormalizer::InverseTransform(const Matrix& x) const {
  SMFL_CHECK_EQ(x.cols(), NumCols());
  Matrix out(x.rows(), x.cols());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      out(i, j) = InverseTransformCell(x(i, j), j);
    }
  }
  return out;
}

double MinMaxNormalizer::InverseTransformCell(double v, Index col) const {
  auto sj = static_cast<size_t>(col);
  return mins_[sj] + v * (maxs_[sj] - mins_[sj]);
}

Matrix FillWithColumnMeans(const Matrix& x, const Mask& observed) {
  SMFL_CHECK_EQ(x.rows(), observed.rows());
  SMFL_CHECK_EQ(x.cols(), observed.cols());
  Matrix out = x;
  for (Index j = 0; j < x.cols(); ++j) {
    double sum = 0.0;
    Index count = 0;
    for (Index i = 0; i < x.rows(); ++i) {
      if (observed.Contains(i, j)) {
        sum += x(i, j);
        ++count;
      }
    }
    const double mean = count > 0 ? sum / static_cast<double>(count) : 0.5;
    for (Index i = 0; i < x.rows(); ++i) {
      if (!observed.Contains(i, j)) out(i, j) = mean;
    }
  }
  return out;
}

}  // namespace smfl::data
