// CSR-style layout of the observed set Ω (the paper's R_Ω support), with
// an optional CSC twin.
//
// The fit loop only ever touches observed entries, yet a Mask answers
// "which columns of row i are observed?" by rescanning its byte row. An
// ObservedIndex answers it with a precomputed span: row_ptr + col_idx in
// compressed-sparse-row form, built once per fit in O(n·m) and reused by
// every pass of the iteration and by fold-in grouping. BuildColumns adds
// the same set by column (for the fit's column-parallel V update). The
// index costs O(|Ω|) memory ((rows+1 + |Ω|) Index slots, plus |Ω| doubles
// when the observed values are packed alongside, and as much again for
// the twin), independent of how sparse the byte grid it came from was.
//
// The masked kernels below are R_Ω(UV) and the masked squared error as
// library functions (the fit's row pass builds both in registers, with
// the same chains and grouping): they visit the observed columns of each
// row in ascending order, so they are bitwise identical to the unfused
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

  // Position of row i's first entry in CSR order: per-cell arrays packed
  // parallel to the index (|Ω| doubles) hold row i's observed columns at
  // [RowOffset(i), RowOffset(i + 1)).
  Index RowOffset(Index i) const {
    SMFL_DCHECK(i >= 0 && i <= rows_);
    return row_ptr_[static_cast<size_t>(i)];
  }

  // The raw CSR arrays, for kernels that walk a range of rows in one call:
  // row i's entries sit at [CsrRowPtr()[i], CsrRowPtr()[i + 1]) of
  // CsrColIdx() and CsrValues() (the latter empty without values).
  std::span<const Index> CsrRowPtr() const { return row_ptr_; }
  std::span<const Index> CsrColIdx() const { return col_idx_; }
  std::span<const double> CsrValues() const { return values_; }

  // Builds the CSC twin for columns [col_begin, cols): per column, the
  // observed rows in ascending order and (when the index carries values)
  // their packed values. O(|Ω|) from the CSR arrays, no mask scan; a
  // second call replaces the first.
  void BuildColumns(Index col_begin);

  // First column the CSC twin covers (cols() when it was never built).
  Index ColumnsBegin() const { return col_begin_; }

  // Column j's observed rows, ascending. Requires
  // ColumnsBegin() <= j < cols().
  std::span<const Index> ColRows(Index j) const {
    SMFL_DCHECK(j >= col_begin_ && j < cols_);
    const auto slot = static_cast<size_t>(j - col_begin_);
    const auto begin = static_cast<size_t>(col_ptr_[slot]);
    const auto end = static_cast<size_t>(col_ptr_[slot + 1]);
    return {row_idx_.data() + begin, end - begin};
  }

  // Column j's packed observed values (parallel to ColRows); empty when
  // the index was built without values.
  std::span<const double> ColValues(Index j) const {
    SMFL_DCHECK(j >= col_begin_ && j < cols_);
    if (col_values_.empty()) return {};
    const auto slot = static_cast<size_t>(j - col_begin_);
    const auto begin = static_cast<size_t>(col_ptr_[slot]);
    const auto end = static_cast<size_t>(col_ptr_[slot + 1]);
    return {col_values_.data() + begin, end - begin};
  }

  // The twin's raw arrays: column j's entries sit at
  // [CscColPtr()[j − ColumnsBegin()], CscColPtr()[j − ColumnsBegin() + 1])
  // of CscRowIdx() and CscValues().
  std::span<const Index> CscColPtr() const { return col_ptr_; }
  std::span<const Index> CscRowIdx() const { return row_idx_; }
  std::span<const double> CscValues() const { return col_values_; }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // size rows_ + 1
  std::vector<Index> col_idx_;  // ascending within each row
  std::vector<double> values_;  // optional; parallel to col_idx_
  // CSC twin over columns [col_begin_, cols_) (BuildColumns).
  Index col_begin_ = 0;
  std::vector<Index> col_ptr_;      // size cols_ - col_begin_ + 1
  std::vector<Index> row_idx_;      // ascending within each column
  std::vector<double> col_values_;  // optional; parallel to row_idx_
};

// R_Ω(U V) as an n×m matrix in one fused pass. Equivalent to
// ApplyMask(MatMul(u, v), Ω) bit for bit (same ascending-k summation
// order and zero-skip per entry), but computes only what Ω needs and never
// materializes the unmasked product or a second masking pass. Rows are
// processed in parallel chunks (deterministic; see common/parallel.h);
// rows below the active SIMD tier's measured density crossover compute
// only their cells (la::simd masked_dot_cols).
[[nodiscard]] Matrix MaskedReconstruct(const Matrix& u, const Matrix& v,
                                       const ObservedIndex& omega);

// ||R_Ω(X) − UV_Ω||_F² given a reconstruction already restricted to Ω
// (as produced by MaskedReconstruct). Reads the packed observed values
// when the index carries them. Deterministic chunked reduction: each row
// sums its squared residuals in ascending column order, each 64-row chunk
// sums its rows in order, and the chunk totals join in order.
[[nodiscard]] double MaskedSquaredError(const Matrix& x,
                                        const ObservedIndex& omega,
                                        const Matrix& uv_masked);

}  // namespace smfl::data

#endif  // SMFL_DATA_OBSERVED_INDEX_H_
