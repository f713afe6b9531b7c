// Min-max normalization to [0, 1] per column, mask-aware.
//
// The paper normalizes every dataset column into [0, 1] before running any
// method so that RMS errors are comparable across columns. Fitting must only
// look at observed entries; the inverse transform restores original units.

#ifndef SMFL_DATA_NORMALIZE_H_
#define SMFL_DATA_NORMALIZE_H_

#include <vector>

#include "src/common/status.h"
#include "src/data/mask.h"

namespace smfl::data {

class MinMaxNormalizer {
 public:
  // Learns per-column [min, max] over the entries in `observed`.
  // Columns with no observed entries or constant value get range [v, v+1]
  // so Transform stays well-defined (maps to 0). DataError, naming the
  // column, on a non-finite observed value or a range whose max - min
  // overflows to inf.
  static Result<MinMaxNormalizer> Fit(const Matrix& x, const Mask& observed);

  // Fit over all entries.
  static Result<MinMaxNormalizer> Fit(const Matrix& x);

  // Reconstructs a fitted normalizer from per-column bounds, as persisted
  // by core/model_io. Requires equal sizes, finite values, and a finite
  // max - min > 0 per column.
  static Result<MinMaxNormalizer> FromBounds(std::vector<double> mins,
                                             std::vector<double> maxs);

  // (x - min) / (max - min), column-wise.
  Matrix Transform(const Matrix& x) const;

  // Inverse map back to original units.
  Matrix InverseTransform(const Matrix& x) const;

  // Inverse for a single cell.
  double InverseTransformCell(double v, Index col) const;

  Index NumCols() const { return static_cast<Index>(mins_.size()); }
  double ColMin(Index j) const { return mins_[static_cast<size_t>(j)]; }
  double ColMax(Index j) const { return maxs_[static_cast<size_t>(j)]; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

// Replaces unobserved entries with the column mean of the observed entries
// (0.5 for fully-unobserved columns of normalized data). The paper uses this
// to initialize missing spatial-information cells before computing the
// similarity matrix D (§II-C); it is NOT the final imputation.
Matrix FillWithColumnMeans(const Matrix& x, const Mask& observed);

}  // namespace smfl::data

#endif  // SMFL_DATA_NORMALIZE_H_
