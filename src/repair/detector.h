// Statistical error detection — a stand-in for the configuration-free
// detector (Raha [33]) the paper assumes supplies the dirty-cell set Ψ.
//
// Combines three signals per cell, each voting "suspicious":
//   1. Column outlier: robust z-score (median / MAD) beyond a threshold.
//   2. Pairwise surprise: the cell's bin is (nearly) never seen together
//      with the bins of the tuple's other attributes. It abstains on
//      tables of fewer than 4 * bins^2 rows: a column pair then has bins^2
//      joint bins holding fewer than four rows each on average, so a joint
//      count <= surprise_count is what independent columns produce by
//      chance, not a sign of error.
//   3. Spatial discordance: the value is far from the values of the
//      tuple's spatial nearest neighbors, in robust units of the local
//      spread (only meaningful for spatially smooth columns).
// A cell is flagged when at least `min_votes` signals fire. This yields an
// end-to-end repair pipeline (detect -> repair) without oracle masks; the
// detector's precision/recall is measured in tests and the
// bench_ablation_detector binary compares oracle vs detected masks.

#ifndef SMFL_REPAIR_DETECTOR_H_
#define SMFL_REPAIR_DETECTOR_H_

#include "src/common/status.h"
#include "src/data/mask.h"

namespace smfl::repair {

using data::Mask;
using la::Index;
using la::Matrix;

struct DetectorOptions {
  // Robust z-score threshold for the column-outlier signal.
  double z_threshold = 3.0;
  // Histogram resolution of the pairwise-surprise signal, which needs at
  // least 4 * bins^2 rows (256 at 8 bins) to vote.
  Index bins = 8;
  // A (bin_j, bin_k) pair with joint count <= this is "surprising".
  double surprise_count = 2.0;
  // Fraction of the tuple's other columns that must be surprised.
  double surprise_fraction = 0.5;
  // Neighborhood size of the spatial signal.
  Index neighbors = 5;
  // Robust units of local spread beyond which a value is discordant.
  double spatial_threshold = 2.0;
  // Signals required to flag a cell (1..3). One vote is the default: the
  // three signals fire on largely disjoint error modes (gross outliers,
  // cross-column contradictions, spatial discordance), so requiring
  // agreement collapses recall on realistic in-domain errors.
  int min_votes = 1;
};

struct DetectionResult {
  // True = flagged dirty.
  Mask flagged;
  // Per-signal flag counts, for diagnostics.
  Index outlier_flags = 0;
  Index surprise_flags = 0;
  Index spatial_flags = 0;
};

// Scans `x` (normalized, first `spatial_cols` columns spatial; spatial
// columns themselves are scanned with signals 1 and 2 only).
Result<DetectionResult> DetectErrors(const Matrix& x, Index spatial_cols,
                                     const DetectorOptions& options = {});

// Precision/recall of a detector output against the injection oracle.
struct DetectionQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

DetectionQuality EvaluateDetection(const Mask& flagged, const Mask& truth);

}  // namespace smfl::repair

#endif  // SMFL_REPAIR_DETECTOR_H_
