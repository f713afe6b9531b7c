// BLAS-like kernels on Matrix/Vector. All products use a cache-blocked
// i-k-j loop order; MatMulAtB / MatMulABt avoid materializing transposes.
//
// The matrix products are parallelized over row blocks through
// common/parallel.h. The partition is static (size-derived) and each
// output element is accumulated entirely within one chunk in the serial
// loop order, so results are bitwise identical at any thread count.

#ifndef SMFL_LA_OPS_H_
#define SMFL_LA_OPS_H_

#include "src/la/matrix.h"

namespace smfl::la {

// C = A * B.
[[nodiscard]] Matrix MatMul(const Matrix& a, const Matrix& b);

// C = A^T * B without forming A^T.
[[nodiscard]] Matrix MatMulAtB(const Matrix& a, const Matrix& b);

// C = A * B^T without forming B^T.
[[nodiscard]] Matrix MatMulABt(const Matrix& a, const Matrix& b);

// ||A||_F.
[[nodiscard]] double FrobeniusNorm(const Matrix& a);

// ||A||_F^2 (avoids the sqrt).
[[nodiscard]] double FrobeniusNormSquared(const Matrix& a);

// Trace of a square matrix.
[[nodiscard]] double Trace(const Matrix& a);

// Tr(A^T * B) = sum_ij a_ij * b_ij, without forming the product.
[[nodiscard]] double TraceAtB(const Matrix& a, const Matrix& b);

// Dot product.
[[nodiscard]] double Dot(const Vector& a, const Vector& b);

// ||v||_2.
[[nodiscard]] double Norm2(const Vector& v);

// Squared Euclidean distance between two equal-length spans.
[[nodiscard]] double SquaredDistance(std::span<const double> a, std::span<const double> b);

// Max |a_ij - b_ij|.
[[nodiscard]] double MaxAbsDiff(const Matrix& a, const Matrix& b);

// Column-wise mean of the rows.
[[nodiscard]] Vector ColMeans(const Matrix& a);

}  // namespace smfl::la

#endif  // SMFL_LA_OPS_H_
