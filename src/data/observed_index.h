// CSR-style layout of the observed set Ω (the paper's R_Ω support).
//
// The fit loop only ever touches observed entries, yet a Mask answers
// "which columns of row i are observed?" by rescanning its byte row. An
// ObservedIndex answers it with a precomputed span: row_ptr + col_idx in
// the same compressed-sparse-row shape as la::SparseMatrix (sparse.h),
// built once per fit in O(n·m) and reused by every reconstruction,
// objective evaluation, and fold-in grouping afterwards. The index itself
// costs O(|Ω|) memory ((rows+1 + |Ω|) Index slots, plus |Ω| doubles when
// the observed values are packed alongside), independent of how sparse the
// byte grid it came from was.
//
// The masked kernels below are the only form of R_Ω(UV) and of the masked
// squared error: they visit the observed columns of each row in ascending
// order, so they are bitwise identical to the unfused
// ApplyMask(MatMul(u, v)) reference — tests/observed_index_test.cc proves
// it across observed rates, thread counts, and SIMD tiers.

#ifndef SMFL_DATA_OBSERVED_INDEX_H_
#define SMFL_DATA_OBSERVED_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/data/mask.h"

namespace smfl::data {

class ObservedIndex {
 public:
  ObservedIndex() = default;

  // Builds the index from a mask's set entries (column order ascending
  // within each row, rows ascending — the mask's row-major order).
  static ObservedIndex FromMask(const Mask& mask);

  // Same, additionally packing the observed entries of `values` (same
  // shape as the mask) contiguously, so sparse consumers read |Ω| doubles
  // sequentially instead of gathering from the dense n×m buffer.
  static ObservedIndex FromMask(const Mask& mask, const Matrix& values);

  // Builds from a raw row-major byte grid (nonzero = observed), the layout
  // Mask::RowData exposes and fold-in's usable-cell vector shares.
  static ObservedIndex FromRowMajorBytes(Index rows, Index cols,
                                         const uint8_t* bytes);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  // |Ω|: total observed entries.
  Index Count() const { return static_cast<Index>(col_idx_.size()); }

  // Observed entries in row i.
  Index RowCount(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    return row_ptr_[static_cast<size_t>(i) + 1] -
           row_ptr_[static_cast<size_t>(i)];
  }

  // Row i's observed column indices, ascending.
  std::span<const Index> RowCols(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    const auto begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(i)]);
    const auto end =
        static_cast<size_t>(row_ptr_[static_cast<size_t>(i) + 1]);
    return {col_idx_.data() + begin, end - begin};
  }

  // Row i's packed observed values (parallel to RowCols); empty when the
  // index was built without values.
  std::span<const double> RowValues(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    if (values_.empty()) return {};
    const auto begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(i)]);
    const auto end =
        static_cast<size_t>(row_ptr_[static_cast<size_t>(i) + 1]);
    return {values_.data() + begin, end - begin};
  }

  bool HasValues() const { return !values_.empty(); }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // size rows_ + 1
  std::vector<Index> col_idx_;  // ascending within each row
  std::vector<double> values_;  // optional; parallel to col_idx_
};

// R_Ω(U V) in one fused pass — the per-iteration hot path of the masked
// multiplicative updates (Formulas 13/14). Equivalent to
// ApplyMask(MatMul(u, v), Ω) bit for bit (same ascending-k summation
// order and zero-skip per entry), but computes only what Ω needs and never
// materializes the unmasked product or a second masking pass. Rows are
// processed in parallel chunks (deterministic; see common/parallel.h);
// rows below the active SIMD tier's measured density crossover fall back
// to per-entry dots.
[[nodiscard]] Matrix MaskedReconstruct(const Matrix& u, const Matrix& v,
                                       const ObservedIndex& omega);

// ||R_Ω(X) − UV_Ω||_F² given a reconstruction already restricted to Ω
// (as produced by MaskedReconstruct). Reads the packed observed values
// when the index carries them. Deterministic chunked reduction.
[[nodiscard]] double MaskedSquaredError(const Matrix& x,
                                        const ObservedIndex& omega,
                                        const Matrix& uv_masked);

}  // namespace smfl::data

#endif  // SMFL_DATA_OBSERVED_INDEX_H_
