#include "src/data/observed_index.h"

#include <algorithm>
#include <array>

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
// kernels read — with zero padding columns for uv_row_pair (k ×
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

// Reconstructs U V at the observed cells of rows [r0, r1). Dense rows
// (past the tier's measured crossover — simd.h) run uv_row_pair two at a
// time over the whole padded row and go to dense(i, row), with row[j] for
// every column j; sparse rows run masked_dot_cols and go to
// sparse(i, cells), with cells[c] at the row's c-th observed column. Both
// paths build every observed entry with the identical ascending-k chain
// from +0.0 (zero-skip included), so the crossover choice and the pairing
// never change a bit of the output. A dense row may reach its sink after a
// later sparse row; rows with no observed cell never do.
template <typename DenseSink, typename SparseSink>
void ReconstructRows(const la::simd::Kernels& ker, const Matrix& u,
                     const PackedV& v, const ObservedIndex& omega, Index r0,
                     Index r1, const DenseSink& dense,
                     const SparseSink& sparse) {
  const Index k = u.cols(), m = omega.cols(), mp = v.mp;
  const double* ud = u.data();
  std::vector<double> buffers(static_cast<size_t>(3 * mp));
  double* pair0 = buffers.data();
  double* pair1 = pair0 + mp;
  double* cells = pair1 + mp;
  Index pending = -1, dense_rows = 0, gather_rows = 0;
  for (Index i = r0; i < r1; ++i) {
    const std::span<const Index> cols = omega.RowCols(i);
    const auto observed = static_cast<Index>(cols.size());
    if (observed == 0) continue;
    if (observed * ker.dense_crossover < m) {
      ker.masked_dot_cols(k, v.cols.data(), ud + i * k, cols.data(), observed,
                          v.skip_zeros, cells);
      sparse(i, cells);
      ++gather_rows;
      continue;
    }
    ++dense_rows;
    if (pending < 0) {
      pending = i;
      continue;
    }
    ker.uv_row_pair(k, mp, v.rows.data(), ud + pending * k, ud + i * k,
                    v.skip_zeros, pair0, pair1);
    dense(pending, pair0);
    dense(i, pair1);
    pending = -1;
  }
  if (pending >= 0) {
    const double* up = ud + pending * k;
    ker.uv_row_pair(k, mp, v.rows.data(), up, up, v.skip_zeros, pair0, pair1);
    dense(pending, pair0);
  }
  SMFL_COUNTER_ADD("la.simd.dispatch.masked_rows_dense", dense_rows);
  SMFL_COUNTER_ADD("la.simd.dispatch.masked_rows_gather", gather_rows);
}

}  // namespace

Matrix MaskedReconstruct(const Matrix& u, const Matrix& v,
                         const ObservedIndex& omega) {
  SMFL_CHECK_EQ(u.cols(), v.rows());
  SMFL_CHECK_EQ(u.rows(), omega.rows());
  SMFL_CHECK_EQ(v.cols(), omega.cols());
  const Index n = u.rows(), m = v.cols();
  Matrix out(n, m);
  double* od = out.data();
  const PackedV packed(v);
  constexpr Index kRowGrain = 16;
  const la::simd::Kernels& ker = la::simd::Active();
  if (ker.tier != la::simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.masked_reconstruct");
  }
  parallel::ParallelFor(0, n, kRowGrain, [&](Index r0, Index r1) {
    // The precomputed index hands each row its column list for free — no
    // mask-row scan, no per-call rebuild.
    ReconstructRows(
        ker, u, packed, omega, r0, r1,
        [&](Index i, const double* row) {
          double* orow = od + i * m;
          for (const Index j : omega.RowCols(i)) orow[j] = row[j];
        },
        [&](Index i, const double* cells) {
          double* orow = od + i * m;
          const std::span<const Index> cols = omega.RowCols(i);
          for (size_t c = 0; c < cols.size(); ++c) orow[cols[c]] = cells[c];
        });
  });
  return out;
}

namespace {

// Squared residual of one row over its observed columns. Dense rows (by
// the same per-tier crossover as the reconstruction) vectorize the
// elementwise (x - r)^2 into a scratch row, then fold the observed entries
// in the same ascending-j order the scalar loop uses — each d*d is one sub
// and one mul in both paths, and the accumulation itself never vectorizes,
// so the sum is bitwise identical across tiers and across the crossover.
// `xvals` (nullable) is the packed observed-value row of an ObservedIndex:
// bit-copies of x at the observed columns, read sequentially instead of
// gathered.
inline double RowSquaredError(const la::simd::Kernels& ker, Index m,
                              const double* xrow, const double* xvals,
                              const double* rrow, const Index* cols,
                              Index observed, double* sq) {
  double acc = 0.0;
  if (observed * ker.dense_crossover >= m) {
    ker.sq_diff(m, xrow, rrow, sq);
    for (Index c = 0; c < observed; ++c) {
      acc += sq[cols[c]];
    }
  } else if (xvals != nullptr) {
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

double MaskedSquaredError(const Matrix& x, const ObservedIndex& omega,
                          const Matrix& uv_masked) {
  SMFL_CHECK(x.SameShape(uv_masked));
  SMFL_CHECK_EQ(x.rows(), omega.rows());
  SMFL_CHECK_EQ(x.cols(), omega.cols());
  const Index m = x.cols();
  constexpr Index kRowGrain = 64;
  const la::simd::Kernels& ker = la::simd::Active();
  if (ker.tier != la::simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.masked_sq_err");
  }
  return parallel::ParallelReduce(
      0, x.rows(), kRowGrain, [&](Index r0, Index r1) {
        std::vector<double> sq(static_cast<size_t>(m));
        double acc = 0.0;
        for (Index i = r0; i < r1; ++i) {
          const std::span<const Index> cols = omega.RowCols(i);
          const Index observed = static_cast<Index>(cols.size());
          if (observed == 0) continue;
          const std::span<const double> vals = omega.RowValues(i);
          acc += RowSquaredError(ker, m, x.data() + i * m,
                                 vals.empty() ? nullptr : vals.data(),
                                 uv_masked.data() + i * m, cols.data(),
                                 observed, sq.data());
        }
        return acc;
      });
}

double MaskedReconstructPacked(const Matrix& u, const Matrix& v,
                               const ObservedIndex& omega,
                               std::span<double> packed_uv) {
  SMFL_CHECK_EQ(u.cols(), v.rows());
  SMFL_CHECK_EQ(u.rows(), omega.rows());
  SMFL_CHECK_EQ(v.cols(), omega.cols());
  SMFL_CHECK_EQ(static_cast<Index>(packed_uv.size()), omega.Count());
  SMFL_CHECK(omega.HasValues() || omega.Count() == 0);
  const PackedV packed(v);
  // MaskedSquaredError's grain: the chunking fixes the summation grouping.
  constexpr Index kRowGrain = 64;
  const la::simd::Kernels& ker = la::simd::Active();
  if (ker.tier != la::simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.masked_reconstruct");
  }
  return parallel::ParallelReduce(
      0, u.rows(), kRowGrain, [&](Index r0, Index r1) {
        // Each reconstructed row is gathered to its packed slots...
        ReconstructRows(
            ker, u, packed, omega, r0, r1,
            [&](Index i, const double* row) {
              double* out = packed_uv.data() + omega.RowOffset(i);
              const std::span<const Index> cols = omega.RowCols(i);
              for (size_t c = 0; c < cols.size(); ++c) out[c] = row[cols[c]];
            },
            [&](Index i, const double* cells) {
              std::copy_n(cells, omega.RowCols(i).size(),
                          packed_uv.data() + omega.RowOffset(i));
            });
        // ...then the squared error sums each row in ascending column
        // order and the row sums in row order. Four rows' chains run
        // interleaved (they are independent); an empty row adds +0.0,
        // which leaves the sum unchanged.
        const double* xv = omega.CsrValues().data();
        const double* rv = packed_uv.data();
        double acc = 0.0;
        Index i = r0;
        for (; i + 4 <= r1; i += 4) {
          std::array<Index, 4> pos{}, end{};
          for (Index q = 0; q < 4; ++q) {
            pos[q] = omega.RowOffset(i + q);
            end[q] = omega.RowOffset(i + q + 1);
          }
          const Index shared =
              std::min(std::min(end[0] - pos[0], end[1] - pos[1]),
                       std::min(end[2] - pos[2], end[3] - pos[3]));
          std::array<double, 4> sums{};
          for (Index c = 0; c < shared; ++c) {
            for (Index q = 0; q < 4; ++q) {
              const double d = xv[pos[q] + c] - rv[pos[q] + c];
              sums[q] += d * d;
            }
          }
          for (Index q = 0; q < 4; ++q) {
            for (Index e = pos[q] + shared; e < end[q]; ++e) {
              const double d = xv[e] - rv[e];
              sums[q] += d * d;
            }
            acc += sums[q];
          }
        }
        for (; i < r1; ++i) {
          double row_acc = 0.0;
          for (Index e = omega.RowOffset(i); e < omega.RowOffset(i + 1); ++e) {
            const double d = xv[e] - rv[e];
            row_acc += d * d;
          }
          acc += row_acc;
        }
        return acc;
      });
}

}  // namespace smfl::data
