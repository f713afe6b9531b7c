// ObservedIndex contract tests: the CSR layout and its CSC twin must
// reproduce the Mask's set exactly, and the masked kernels consuming it
// must be bitwise identical to the unfused ApplyMask(MatMul) form across
// observed rates, thread counts, and SIMD tiers, with or without packed
// values.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/data/mask.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/la/simd.h"

namespace smfl {
namespace {

using data::Mask;
using data::ObservedIndex;
using la::Index;
using la::Matrix;

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

Mask RandomMask(Index rows, Index cols, uint64_t seed, double set_rate) {
  Rng rng(seed);
  Mask mask(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      mask.Set(i, j, rng.Uniform() < set_rate);
    }
  }
  return mask;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b,
                        const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  for (Index i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << label << " differs at flat index " << i;
  }
}

TEST(ObservedIndexTest, LayoutMatchesMask) {
  for (double rate : {0.0, 0.05, 0.5, 1.0}) {
    const Mask mask = RandomMask(37, 23, 17, rate);
    const ObservedIndex index = ObservedIndex::FromMask(mask);
    ASSERT_EQ(index.rows(), mask.rows());
    ASSERT_EQ(index.cols(), mask.cols());
    ASSERT_EQ(index.Count(), mask.Count());
    EXPECT_FALSE(index.HasValues());
    for (Index i = 0; i < mask.rows(); ++i) {
      ASSERT_EQ(index.RowCount(i), mask.RowCount(i)) << "row " << i;
      const auto cols = index.RowCols(i);
      size_t c = 0;
      for (Index j = 0; j < mask.cols(); ++j) {
        if (!mask.Contains(i, j)) continue;
        ASSERT_LT(c, cols.size()) << "row " << i;
        ASSERT_EQ(cols[c], j) << "row " << i;
        ++c;
      }
      ASSERT_EQ(c, cols.size()) << "row " << i;
      EXPECT_TRUE(index.RowValues(i).empty());
    }
  }
}

TEST(ObservedIndexTest, FromRowMajorBytesMatchesFromMask) {
  const Mask mask = RandomMask(19, 31, 5, 0.3);
  std::vector<uint8_t> bytes(
      static_cast<size_t>(mask.rows()) * static_cast<size_t>(mask.cols()), 0);
  for (Index i = 0; i < mask.rows(); ++i) {
    for (Index j = 0; j < mask.cols(); ++j) {
      // Any nonzero byte counts as observed (fold-in's usable vector uses
      // values other than 1).
      bytes[static_cast<size_t>(i * mask.cols() + j)] =
          mask.Contains(i, j) ? 2 : 0;
    }
  }
  const ObservedIndex from_mask = ObservedIndex::FromMask(mask);
  const ObservedIndex from_bytes =
      ObservedIndex::FromRowMajorBytes(mask.rows(), mask.cols(), bytes.data());
  ASSERT_EQ(from_bytes.Count(), from_mask.Count());
  for (Index i = 0; i < mask.rows(); ++i) {
    const auto a = from_mask.RowCols(i);
    const auto b = from_bytes.RowCols(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c], b[c]) << "row " << i << " slot " << c;
    }
  }
}

TEST(ObservedIndexTest, PackedValuesMirrorObservedEntries) {
  const Mask mask = RandomMask(11, 13, 9, 0.4);
  const Matrix x = RandomMatrix(11, 13, 21);
  const ObservedIndex index = ObservedIndex::FromMask(mask, x);
  EXPECT_TRUE(index.HasValues());
  for (Index i = 0; i < mask.rows(); ++i) {
    const auto cols = index.RowCols(i);
    const auto vals = index.RowValues(i);
    ASSERT_EQ(cols.size(), vals.size()) << "row " << i;
    for (size_t c = 0; c < cols.size(); ++c) {
      ASSERT_EQ(vals[c], x(i, cols[c])) << "row " << i << " slot " << c;
    }
  }
}

// The CSR row offsets index per-cell packed arrays by row, and the CSC
// twin lists exactly the mask's cells of its columns, rows ascending, with
// the values bit-copied.
TEST(ObservedIndexTest, RowOffsetsAndColumnTwinMatchMask) {
  for (double rate : {0.0, 0.1, 0.5, 1.0}) {
    const Mask mask = RandomMask(41, 17, 23, rate);
    const Matrix x = RandomMatrix(41, 17, 24);
    for (Index col_begin : {Index{0}, Index{2}, Index{17}}) {
      ObservedIndex index = ObservedIndex::FromMask(mask, x);
      index.BuildColumns(col_begin);
      const std::string label = "rate " + std::to_string(rate) +
                                " col_begin " + std::to_string(col_begin);
      ASSERT_EQ(index.ColumnsBegin(), col_begin) << label;
      ASSERT_EQ(index.RowOffset(0), 0) << label;
      for (Index i = 0; i < mask.rows(); ++i) {
        ASSERT_EQ(index.RowOffset(i + 1) - index.RowOffset(i),
                  index.RowCount(i))
            << label << " row " << i;
      }
      ASSERT_EQ(index.RowOffset(mask.rows()), index.Count()) << label;
      for (Index j = col_begin; j < mask.cols(); ++j) {
        const auto rows = index.ColRows(j);
        const auto vals = index.ColValues(j);
        ASSERT_EQ(rows.size(), vals.size()) << label << " col " << j;
        size_t c = 0;
        for (Index i = 0; i < mask.rows(); ++i) {
          if (!mask.Contains(i, j)) continue;
          ASSERT_LT(c, rows.size()) << label << " col " << j;
          ASSERT_EQ(rows[c], i) << label << " col " << j;
          ASSERT_EQ(vals[c], x(i, j)) << label << " col " << j;
          ++c;
        }
        ASSERT_EQ(c, rows.size()) << label << " col " << j;
      }
    }
  }
  // Without packed values the twin carries rows only.
  ObservedIndex bare = ObservedIndex::FromMask(RandomMask(9, 6, 3, 0.5));
  bare.BuildColumns(1);
  for (Index j = 1; j < 6; ++j) EXPECT_TRUE(bare.ColValues(j).empty());
}

TEST(ObservedIndexTest, EmptyShapes) {
  const ObservedIndex zero = ObservedIndex::FromMask(Mask(0, 0));
  EXPECT_EQ(zero.rows(), 0);
  EXPECT_EQ(zero.cols(), 0);
  EXPECT_EQ(zero.Count(), 0);

  const ObservedIndex no_cols = ObservedIndex::FromMask(Mask(4, 0));
  EXPECT_EQ(no_cols.rows(), 4);
  EXPECT_EQ(no_cols.Count(), 0);
  for (Index i = 0; i < 4; ++i) {
    EXPECT_EQ(no_cols.RowCount(i), 0);
    EXPECT_TRUE(no_cols.RowCols(i).empty());
  }

  const ObservedIndex unobserved = ObservedIndex::FromMask(Mask(3, 5));
  EXPECT_EQ(unobserved.Count(), 0);
  for (Index i = 0; i < 3; ++i) {
    EXPECT_TRUE(unobserved.RowCols(i).empty());
  }
}

// MaskedSquaredError's summation order, written out: each row sums its
// observed squared residuals in ascending column order, rows join their
// 64-row chunk in order, and chunks join the total in order (the
// ParallelReduce partition). Changing the grain or the association alters
// bits, which needs an explicit re-baseline — this reference pins it.
double ReferenceSquaredError(const Matrix& x, const Mask& mask,
                             const Matrix& r) {
  constexpr Index kErrorRowGrain = 64;
  double total = 0.0;
  for (Index c0 = 0; c0 < x.rows(); c0 += kErrorRowGrain) {
    double chunk = 0.0;
    for (Index i = c0; i < std::min(c0 + kErrorRowGrain, x.rows()); ++i) {
      double row = 0.0;
      for (Index j = 0; j < x.cols(); ++j) {
        if (!mask.Contains(i, j)) continue;
        const double d = x(i, j) - r(i, j);
        row += d * d;
      }
      chunk += row;
    }
    total += chunk;
  }
  return total;
}

// The masked kernels must match their references bit for bit at every
// observed rate (exercising both sides of the per-tier density crossover),
// thread count, and SIMD tier, with and without packed values: the
// reconstruction the unfused ApplyMask(MatMul) form, the squared error
// ReferenceSquaredError.
TEST(ObservedIndexTest, MaskedKernelsBitwiseEqualReferenceForms) {
  const Index n = 83, m = 57, k = 7;
  for (double rate : {0.01, 0.1, 0.5, 1.0}) {
    const uint64_t seed = static_cast<uint64_t>(rate * 1000);
    const Matrix u = RandomMatrix(n, k, seed + 1);
    const Matrix v = RandomMatrix(k, m, seed + 2);
    const Matrix x = RandomMatrix(n, m, seed + 3);
    const Mask mask = RandomMask(n, m, seed + 4, rate);
    const ObservedIndex index = ObservedIndex::FromMask(mask);
    const ObservedIndex index_packed = ObservedIndex::FromMask(mask, x);
    const Matrix unfused = data::ApplyMask(la::MatMul(u, v), mask);
    const double reference_err = ReferenceSquaredError(x, mask, unfused);

    for (int threads : {1, 4}) {
      parallel::ScopedParallelism scoped_threads(threads);
      for (int simd_mode : {0, 1}) {
        la::simd::ScopedSimd scoped_simd(simd_mode);
        const std::string label = "rate " + std::to_string(rate) + " threads " +
                                  std::to_string(threads) + " simd " +
                                  std::to_string(simd_mode);
        const Matrix via_index = data::MaskedReconstruct(u, v, index);
        ExpectBitwiseEqual(via_index, unfused, label + " index-vs-unfused");

        ASSERT_EQ(data::MaskedSquaredError(x, index, via_index),
                  reference_err)
            << label;
        ASSERT_EQ(data::MaskedSquaredError(x, index_packed, via_index),
                  reference_err)
            << label << " (packed values)";
      }
    }
  }
}

}  // namespace
}  // namespace smfl
