// Symmetric Jacobi eigendecomposition: reconstruction, orthonormality and
// ordering over random symmetric matrices, input validation, and the
// spectrum of a p-NN graph Laplacian.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/la/eigen.h"
#include "src/la/ops.h"
#include "src/spatial/graph.h"

namespace smfl::la {
namespace {

Matrix RandomSymmetric(Index n, uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.Normal();
    }
  }
  return a;
}

// ---------------------------------------------------------------- eigen

TEST(EigenTest, DiagonalMatrix) {
  Matrix a = Matrix::Diagonal(Vector{3.0, -1.0, 2.0});
  auto eigen = SymmetricEigen(a);
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], -1.0, 1e-10);
  EXPECT_NEAR(eigen->values[1], 2.0, 1e-10);
  EXPECT_NEAR(eigen->values[2], 3.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  auto eigen = SymmetricEigen(a);
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], 1.0, 1e-10);
  EXPECT_NEAR(eigen->values[1], 3.0, 1e-10);
}

class EigenSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenSizeTest, ReconstructsAndOrthonormal) {
  const Index n = GetParam();
  Matrix a = RandomSymmetric(n, 100 + n);
  auto eigen = SymmetricEigen(a);
  ASSERT_TRUE(eigen.ok());
  // V diag(w) Vᵀ = A.
  Matrix vd = eigen->vectors;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) vd(i, j) *= eigen->values[j];
  }
  Matrix reconstructed = MatMulABt(vd, eigen->vectors);
  EXPECT_LT(MaxAbsDiff(a, reconstructed), 1e-8);
  // VᵀV = I.
  Matrix vtv = MatMulAtB(eigen->vectors, eigen->vectors);
  EXPECT_LT(MaxAbsDiff(vtv, Matrix::Identity(n)), 1e-9);
  // Ascending order.
  for (Index i = 1; i < n; ++i) {
    EXPECT_LE(eigen->values[i - 1], eigen->values[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

TEST(EigenTest, TraceEqualsEigenvalueSum) {
  Matrix a = RandomSymmetric(8, 7);
  auto eigen = SymmetricEigen(a);
  ASSERT_TRUE(eigen.ok());
  double sum = 0.0;
  for (Index i = 0; i < 8; ++i) sum += eigen->values[i];
  EXPECT_NEAR(sum, Trace(a), 1e-9);
}

TEST(EigenTest, RejectsBadInput) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
  EXPECT_FALSE(SymmetricEigen(Matrix()).ok());
  Matrix asym{{1, 2}, {3, 4}};
  EXPECT_FALSE(SymmetricEigen(asym).ok());
  Matrix nan(2, 2, 0.0);
  nan(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SymmetricEigen(nan).ok());
}

TEST(EigenTest, GraphLaplacianSpectrum) {
  // A Laplacian is PSD with smallest eigenvalue 0 (eigenvector = constant),
  // and the multiplicity of 0 equals the number of connected components.
  // Two far-apart lines of evenly spaced points: each line is internally
  // connected under symmetric p-NN (adjacent points are mutual neighbors),
  // and the two lines never connect -> exactly two components.
  Matrix points(30, 2);
  for (Index i = 0; i < 30; ++i) {
    const double offset = i < 15 ? 0.0 : 100.0;
    points(i, 0) = offset + 0.1 * static_cast<double>(i % 15);
    points(i, 1) = offset;
  }
  auto graph = spatial::NeighborGraph::Build(points, 3);
  ASSERT_TRUE(graph.ok());
  auto eigen = SymmetricEigen(graph->DenseL());
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], 0.0, 1e-9);
  EXPECT_NEAR(eigen->values[1], 0.0, 1e-9);  // second zero: two components
  EXPECT_GT(eigen->values[2], 1e-6);         // but not a third
  for (Index i = 0; i < 30; ++i) EXPECT_GE(eigen->values[i], -1e-9);
}

}  // namespace
}  // namespace smfl::la
