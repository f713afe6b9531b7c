// Fold-in: impute NEW tuples against an already fitted SMFL model without
// refitting.
//
// Serving scenario: a model was fit on the historical table (and possibly
// reloaded via model_io); fresh sensor rows arrive with holes. Fold-in
// solves for each new row's coefficient vector u ≥ 0 against the frozen
// feature matrix V over the row's observed cells — the single-row analogue
// of the U update (Formula 13 without the Laplacian term, since a lone row
// has no graph edges) — then reconstructs the missing cells as u·V.
// Initialization reuses the landmark kernel when the row's coordinates are
// observed, so fold-in inherits SMFL's geographic anchoring.
//
// The batch entry point is built for serving throughput and fault
// isolation:
//
//  * Rows are grouped by observed-column pattern, and each group computes
//    the Gram matrix of the frozen V's observed columns, G = V_obs V_obsᵀ
//    (K × K), once.
//  * The per-row multiplicative solves run in the la::simd kernel
//    fold_in_rows on each row's G, so an update costs K² multiply-adds
//    whatever the row's width; it solves the rows of a 4-row chunk side by
//    side, a row per vector lane. Chunks take the solvable rows in row
//    order and are threaded with parallel::ParallelFor under the
//    determinism contract: batched output is bitwise identical to
//    row-at-a-time FoldInRow at any thread count and SIMD tier.
//  * A bad row never aborts the batch. Per-row faults (no observed
//    entries, non-finite or negative observed cells) degrade that row to
//    a lower serving tier and are recorded in a FoldInReport:
//      landmark-kernel -> uniform-u -> column-mean.

#ifndef SMFL_CORE_FOLD_IN_H_
#define SMFL_CORE_FOLD_IN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/smfl.h"

namespace smfl::core {

struct FoldInOptions {
  // Multiplicative updates on the row's coefficient vector, >= 0.
  int max_iterations = 200;
  // A row stops when its squared error falls by less than this fraction
  // of the previous error; a nonnegative number (NaN is refused).
  double tolerance = 1e-8;
};

// Serving tier that produced a row, best first.
enum class FoldInTier : int8_t {
  // Landmark-kernel initialization over the row's observed coordinates,
  // then the multiplicative solve — the full-quality path.
  kLandmarkKernel = 0,
  // Multiplicative solve from a uniform coefficient vector (no landmarks
  // in the model, or the row's coordinates are all missing).
  kUniformU = 1,
  // No usable observed entries: the row is served as the model's average
  // row, mean(U)·V — the fold-in analogue of column-mean imputation
  // (SmflModel::MeanU: a served model file stores mean(U), not U).
  kColumnMean = 2,
};

const char* FoldInTierName(FoldInTier tier);

// Outcome of serving one batch row.
struct FoldInRowOutcome {
  Index row = 0;
  // OK when the row was served cleanly; otherwise describes the fault
  // that degraded it (the row is still served — see served_by).
  Status status;
  FoldInTier served_by = FoldInTier::kLandmarkKernel;
  // Multiplicative iterations run (0 for the column-mean tier).
  int iterations = 0;
};

// Per-row serving report for a FoldIn batch; rows[i] describes input row i.
struct FoldInReport {
  std::vector<FoldInRowOutcome> rows;

  // Rows served by `tier`.
  Index CountTier(FoldInTier tier) const;
  // Rows with a non-OK status (served by a degraded tier or with invalid
  // observed cells dropped).
  Index DegradedCount() const;
  // Solved rows that ran all `max_iterations` updates without meeting the
  // tolerance (column-mean rows never solve).
  Index CountAtCap(int max_iterations) const;
  // e.g. "5 rows: 3 landmark-kernel, 1 uniform-u, 1 column-mean
  //       (1 degraded)".
  std::string ToString() const;
};

// Imputes one new row. `row` has the model's column count; only entries
// with observed_row[j] true are read (the rest may hold anything). Returns
// the completed row: observed cells copied, missing cells reconstructed.
// Strict: invalid input (no observed entries, negative or non-finite
// observed values) and invalid options (a negative max_iterations, a NaN
// or negative tolerance: InvalidArgument naming the field) are errors.
// The batch FoldIn below degrades such rows instead; for valid rows the
// two paths are bitwise identical.
Result<la::Vector> FoldInRow(const SmflModel& model, const la::Vector& row,
                             const std::vector<bool>& observed_row,
                             const FoldInOptions& options = {});

// Batch version over the rows of `x` with a Mask; returns the completed
// matrix (valid observed entries preserved). Per-row faults are isolated:
// a row with no usable observed cells is served by the column-mean tier,
// and non-finite / negative observed cells are dropped from that row's
// solve — both recorded in `report` (optional) — rather than failing the
// batch. Batch-level shape mismatches and invalid options still error.
Result<Matrix> FoldIn(const SmflModel& model, const Matrix& x,
                      const Mask& observed, const FoldInOptions& options = {},
                      FoldInReport* report = nullptr);

// Kernel width (sigma²) of the landmark initialization: mean
// nearest-landmark squared distance. With fewer than two distinct
// landmarks no pairwise distance exists; falls back to the mean squared
// distance of uniform points in [0,1]^L (L/6) instead of collapsing to
// 1e-8. Exposed for tests.
[[nodiscard]] double FoldInKernelWidth(const Matrix& landmarks);

}  // namespace smfl::core

#endif  // SMFL_CORE_FOLD_IN_H_
