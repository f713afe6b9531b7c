#include "src/data/observed_index.h"

#include <algorithm>

#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/la/simd.h"

namespace smfl::data {

ObservedIndex ObservedIndex::FromRowMajorBytes(Index rows, Index cols,
                                               const uint8_t* bytes) {
  SMFL_CHECK_GE(rows, 0);
  SMFL_CHECK_GE(cols, 0);
  ObservedIndex out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.col_begin_ = cols;
  out.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  // First pass sizes the exact allocation; second pass fills. Both stream
  // the byte grid row-major, so the column order within each row (and the
  // row order overall) matches the mask scans the kernels used to do.
  Index total = 0;
  for (Index i = 0; i < rows; ++i) {
    const uint8_t* row = bytes + static_cast<size_t>(i) * static_cast<size_t>(cols);
    for (Index j = 0; j < cols; ++j) total += row[j] ? 1 : 0;
  }
  out.col_idx_.reserve(static_cast<size_t>(total));
  for (Index i = 0; i < rows; ++i) {
    const uint8_t* row = bytes + static_cast<size_t>(i) * static_cast<size_t>(cols);
    for (Index j = 0; j < cols; ++j) {
      if (row[j]) out.col_idx_.push_back(j);
    }
    out.row_ptr_[static_cast<size_t>(i) + 1] =
        static_cast<Index>(out.col_idx_.size());
  }
  return out;
}

ObservedIndex ObservedIndex::FromMask(const Mask& mask) {
  if (mask.rows() == 0 || mask.cols() == 0) {
    ObservedIndex out;
    out.rows_ = mask.rows();
    out.cols_ = mask.cols();
    out.col_begin_ = mask.cols();
    out.row_ptr_.assign(static_cast<size_t>(mask.rows()) + 1, 0);
    return out;
  }
  return FromRowMajorBytes(mask.rows(), mask.cols(), mask.RowData(0));
}

ObservedIndex ObservedIndex::FromMask(const Mask& mask, const Matrix& values) {
  SMFL_CHECK_EQ(values.rows(), mask.rows());
  SMFL_CHECK_EQ(values.cols(), mask.cols());
  ObservedIndex out = FromMask(mask);
  out.values_.reserve(out.col_idx_.size());
  for (Index i = 0; i < out.rows_; ++i) {
    const double* vrow = values.data() + i * out.cols_;
    for (const Index j : out.RowCols(i)) {
      out.values_.push_back(vrow[j]);
    }
  }
  return out;
}

void ObservedIndex::BuildColumns(Index col_begin) {
  SMFL_CHECK(col_begin >= 0 && col_begin <= cols_);
  col_begin_ = col_begin;
  const auto width = static_cast<size_t>(cols_ - col_begin);
  // Counting sort of the CSR entries by column: count, prefix-sum, then
  // scatter in CSR order — rows ascend within each column because the CSR
  // walk visits rows in ascending order.
  col_ptr_.assign(width + 1, 0);
  for (const Index j : col_idx_) {
    if (j >= col_begin) ++col_ptr_[static_cast<size_t>(j - col_begin) + 1];
  }
  for (size_t c = 0; c < width; ++c) col_ptr_[c + 1] += col_ptr_[c];
  const auto total = static_cast<size_t>(col_ptr_[width]);
  row_idx_.assign(total, 0);
  col_values_.assign(values_.empty() ? 0 : total, 0.0);
  std::vector<Index> next(col_ptr_.begin(), col_ptr_.end() - 1);
  for (Index i = 0; i < rows_; ++i) {
    for (Index e = row_ptr_[static_cast<size_t>(i)];
         e < row_ptr_[static_cast<size_t>(i) + 1]; ++e) {
      const Index j = col_idx_[static_cast<size_t>(e)];
      if (j < col_begin) continue;
      const auto slot =
          static_cast<size_t>(next[static_cast<size_t>(j - col_begin)]++);
      row_idx_[slot] = i;
      if (!values_.empty()) col_values_[slot] = values_[static_cast<size_t>(e)];
    }
  }
}

namespace {

// V packed once per reconstruction call in the two layouts the row
// kernels read — with zero padding columns for uv_row (k ×
// PaddedWidth(m)), transposed for masked_dot_cols (m × PaddedWidth(k)) —
// and whether the u == 0 skip can change a chain: only against a
// non-finite entry of V.
struct PackedV {
  explicit PackedV(const Matrix& v)
      : mp(la::simd::PaddedWidth(v.cols())),
        rows(static_cast<size_t>(std::max<Index>(v.rows() * mp, 1))),
        cols(static_cast<size_t>(
            std::max<Index>(v.cols() * la::simd::PaddedWidth(v.rows()), 1))),
        skip_zeros(v.HasNonFinite()) {
    la::simd::PackRowsPadded(v.data(), v.rows(), v.cols(), rows.data());
    la::simd::PackTransposed(v.data(), v.rows(), v.cols(), cols.data());
  }
  Index mp;
  std::vector<double> rows;
  std::vector<double> cols;
  bool skip_zeros;
};

// Squared residual of one row over its observed columns, in ascending
// column order. `xvals` (nullable) is the packed observed-value row of an
// ObservedIndex: bit-copies of x at the observed columns, read
// sequentially instead of gathered.
inline double RowSquaredError(const double* xrow, const double* xvals,
                              const double* rrow, const Index* cols,
                              Index observed) {
  double acc = 0.0;
  if (xvals != nullptr) {
    for (Index c = 0; c < observed; ++c) {
      const double d = xvals[c] - rrow[cols[c]];
      acc += d * d;
    }
  } else {
    for (Index c = 0; c < observed; ++c) {
      const Index j = cols[c];
      const double d = xrow[j] - rrow[j];
      acc += d * d;
    }
  }
  return acc;
}

}  // namespace

Matrix MaskedReconstruct(const Matrix& u, const Matrix& v,
                         const ObservedIndex& omega) {
  SMFL_CHECK_EQ(u.cols(), v.rows());
  SMFL_CHECK_EQ(u.rows(), omega.rows());
  SMFL_CHECK_EQ(v.cols(), omega.cols());
  const Index n = u.rows(), k = u.cols(), m = v.cols();
  Matrix out(n, m);
  const PackedV packed(v);
  constexpr Index kRowGrain = 16;
  const la::simd::Kernels& ker = la::simd::Active();
  if (ker.tier != la::simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.masked_reconstruct");
  }
  parallel::ParallelFor(0, n, kRowGrain, [&](Index r0, Index r1) {
    // The precomputed index hands each row its column list for free — no
    // mask-row scan, no per-call rebuild. A dense row (past the tier's
    // measured crossover — simd.h) runs uv_row over its whole padded row,
    // a sparse row masked_dot_cols over its cells; both build every
    // observed entry with the identical ascending-k chain from +0.0
    // (zero-skip included), so the crossover never changes a bit.
    std::vector<double> scratch(static_cast<size_t>(packed.mp));
    double* row = scratch.data();
    Index dense_rows = 0, gather_rows = 0;
    for (Index i = r0; i < r1; ++i) {
      const std::span<const Index> cols = omega.RowCols(i);
      const auto observed = static_cast<Index>(cols.size());
      if (observed == 0) continue;
      const double* ui = u.data() + i * k;
      double* orow = out.data() + i * m;
      if (observed * ker.dense_crossover >= m) {
        ker.uv_row(k, packed.mp, packed.rows.data(), ui, packed.skip_zeros,
                   row);
        for (const Index j : cols) orow[j] = row[j];
        ++dense_rows;
      } else {
        ker.masked_dot_cols(k, packed.cols.data(), ui, cols.data(), observed,
                            packed.skip_zeros, row);
        for (size_t c = 0; c < cols.size(); ++c) orow[cols[c]] = row[c];
        ++gather_rows;
      }
    }
    SMFL_COUNTER_ADD("la.simd.dispatch.masked_rows_dense", dense_rows);
    SMFL_COUNTER_ADD("la.simd.dispatch.masked_rows_gather", gather_rows);
  });
  return out;
}

double MaskedSquaredError(const Matrix& x, const ObservedIndex& omega,
                          const Matrix& uv_masked) {
  SMFL_CHECK(x.SameShape(uv_masked));
  SMFL_CHECK_EQ(x.rows(), omega.rows());
  SMFL_CHECK_EQ(x.cols(), omega.cols());
  const Index m = x.cols();
  constexpr Index kRowGrain = 64;
  return parallel::ParallelReduce(
      0, x.rows(), kRowGrain, [&](Index r0, Index r1) {
        double acc = 0.0;
        for (Index i = r0; i < r1; ++i) {
          const std::span<const Index> cols = omega.RowCols(i);
          const Index observed = static_cast<Index>(cols.size());
          if (observed == 0) continue;
          const std::span<const double> vals = omega.RowValues(i);
          acc += RowSquaredError(x.data() + i * m,
                                 vals.empty() ? nullptr : vals.data(),
                                 uv_masked.data() + i * m, cols.data(),
                                 observed);
        }
        return acc;
      });
}

}  // namespace smfl::data
