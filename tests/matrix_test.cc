#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/la/matrix.h"
#include "src/la/ops.h"

namespace smfl::la {
namespace {

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index i = 0; i < m.size(); ++i) m.data()[i] = rng.Normal();
  return m;
}

// ---------------------------------------------------------------- Vector

TEST(VectorTest, ConstructionAndAccess) {
  Vector v(3, 1.5);
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  v[1] = 2.0;
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(VectorTest, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(VectorTest, FillAndResize) {
  Vector v(2);
  v.Fill(7.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  v.Resize(4, -1.0);
  EXPECT_EQ(v.size(), 4);
  EXPECT_DOUBLE_EQ(v[3], -1.0);
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.5);
  m(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 2), 0.0);
  Matrix d = Matrix::Diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, FromRowMajor) {
  Matrix m = Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RowView) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  auto row = m.Row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  row[2] = 60.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 60.0);
}

TEST(MatrixTest, ColGetSet) {
  Matrix m{{1, 2}, {3, 4}};
  Vector c = m.Col(1);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 4.0);
  m.SetCol(0, Vector{7.0, 8.0});
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
  m.SetRow(0, Vector{9.0, 10.0});
  EXPECT_DOUBLE_EQ(m(0, 1), 10.0);
}

TEST(MatrixTest, BlockRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix b = m.Block(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 9.0);
  Matrix z(2, 2, 0.0);
  m.SetBlock(0, 0, z);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 9.0);
}

TEST(MatrixTest, TransposedTwiceIsIdentity) {
  Matrix m = RandomMatrix(4, 7, 3);
  Matrix tt = m.Transposed().Transposed();
  EXPECT_DOUBLE_EQ(MaxAbsDiff(m, tt), 0.0);
}

TEST(MatrixTest, Arithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  Matrix scaled2 = 3.0 * a;
  EXPECT_DOUBLE_EQ(scaled2(0, 1), 6.0);
}

TEST(MatrixTest, HasNonFinite) {
  Matrix m(2, 2, 1.0);
  EXPECT_FALSE(m.HasNonFinite());
  m(0, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(m.HasNonFinite());
  m(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(m.HasNonFinite());
}

// ---------------------------------------------------------------- products

TEST(OpsTest, MatMulSmallKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(OpsTest, MatMulIdentity) {
  Matrix a = RandomMatrix(5, 5, 11);
  Matrix c = a * Matrix::Identity(5);
  EXPECT_LT(MaxAbsDiff(a, c), 1e-14);
}

// Parameterized consistency sweep: MatMulAtB / MatMulABt must agree with
// explicit transposition across many shapes, including degenerate ones.
class ProductShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ProductShapeTest, TransposeVariantsAgree) {
  const auto [n, k, m] = GetParam();
  Matrix a = RandomMatrix(n, k, 101 + n * 31 + k);
  Matrix b = RandomMatrix(k, m, 202 + m);
  Matrix reference = a * b;
  Matrix via_atb = MatMulAtB(a.Transposed(), b);
  EXPECT_LT(MaxAbsDiff(reference, via_atb), 1e-10);
  Matrix via_abt = MatMulABt(a, b.Transposed());
  EXPECT_LT(MaxAbsDiff(reference, via_abt), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProductShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(1, 8, 2),
                      std::make_tuple(9, 1, 9), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 67, 70),
                      std::make_tuple(128, 13, 5)));

TEST(OpsTest, MatVecProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Vector x{1.0, -1.0};
  Vector y = a * x;
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(OpsTest, NormsAndTraces) {
  Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(FrobeniusNormSquared(a), 25.0);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 5.0);
  EXPECT_DOUBLE_EQ(Trace(a), 7.0);
  Matrix b{{1, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(TraceAtB(a, b), 7.0);  // sum of elementwise products
}

TEST(OpsTest, TraceAtBMatchesExplicit) {
  Matrix a = RandomMatrix(4, 6, 5);
  Matrix b = RandomMatrix(4, 6, 6);
  const double expected = Trace(MatMulAtB(a, b));
  EXPECT_NEAR(TraceAtB(a, b), expected, 1e-10);
}

TEST(OpsTest, VectorOps) {
  Vector a{3.0, 4.0};
  Vector b{1.0, 0.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 3.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 5.0);
}

TEST(OpsTest, SquaredDistance) {
  std::vector<double> a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
}

TEST(OpsTest, MaxAbsDiff) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 2.5}, {3, 3}};
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 1.0);
}

TEST(OpsTest, ColMeans) {
  Matrix a{{1, 10}, {3, 30}};
  Vector mu = ColMeans(a);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 20.0);
}

TEST(OpsTest, ColMeansEmptyMatrix) {
  Matrix a(0, 3);
  Vector mu = ColMeans(a);
  EXPECT_EQ(mu.size(), 3);
  EXPECT_DOUBLE_EQ(mu[0], 0.0);
}

}  // namespace
}  // namespace smfl::la
