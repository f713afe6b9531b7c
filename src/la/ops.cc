#include "src/la/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/la/simd.h"

namespace smfl::la {

namespace {
// Block edge for the gemm kernels; sized so three blocks fit in L2.
constexpr Index kBlock = 64;

// ParallelFor grains. Row partitions are static (size-derived only, see
// parallel.h), and every output element is accumulated entirely inside one
// chunk in the serial loop order — so kernel results are bitwise identical
// at any thread count. kGemmRowGrain equals kBlock so the parallel row
// partition coincides with the serial i0 blocking. kAtBRowGrain keeps the
// common rank-sized (K <= 16) outputs on the single-chunk serial path,
// where splitting would only re-stream B.
constexpr Index kGemmRowGrain = kBlock;
constexpr Index kAtBRowGrain = 16;
constexpr Index kDotRowGrain = 8;
}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  SMFL_CHECK_EQ(a.cols(), b.rows());
  const Index n = a.rows(), k = a.cols(), m = b.cols();
  Matrix c(n, m);
  double* cd = c.data();
  const double* ad = a.data();
  const double* bd = b.data();
  // Resolve the microkernel table on the calling thread: ScopedSimd is a
  // thread-local override, and the chunks below execute on pool workers
  // that must inherit the caller's choice (simd.h, dispatch resolution).
  const simd::Kernels& ker = simd::Active();
  if (ker.tier != simd::Tier::kScalar) SMFL_COUNTER_INC("la.simd.dispatch.matmul");
  parallel::ParallelFor(0, n, kGemmRowGrain, [&](Index r0, Index r1) {
    for (Index i0 = r0; i0 < r1; i0 += kBlock) {
      const Index i1 = std::min(i0 + kBlock, r1);
      for (Index p0 = 0; p0 < k; p0 += kBlock) {
        const Index p1 = std::min(p0 + kBlock, k);
        for (Index j0 = 0; j0 < m; j0 += kBlock) {
          const Index j1 = std::min(j0 + kBlock, m);
          for (Index i = i0; i < i1; ++i) {
            for (Index p = p0; p < p1; ++p) {
              const double av = ad[i * k + p];
              // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
              if (av == 0.0) continue;
              const double* brow = bd + p * m;
              double* crow = cd + i * m;
              ker.axpy(j1 - j0, av, brow + j0, crow + j0);
            }
          }
        }
      }
    }
  });
  return c;
}

Matrix MatMulAtB(const Matrix& a, const Matrix& b) {
  SMFL_CHECK_EQ(a.rows(), b.rows());
  const Index k = a.rows(), n = a.cols(), m = b.cols();
  Matrix c(n, m);
  double* cd = c.data();
  const double* ad = a.data();
  const double* bd = b.data();
  const simd::Kernels& ker = simd::Active();
  if (ker.tier != simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.matmul_atb");
  }
  // c[i][j] = sum_p a[p][i] * b[p][j]. Each chunk owns output rows
  // [r0, r1) and streams the rows of a and b once, so the per-element sum
  // stays in ascending-p order no matter how the rows are partitioned.
  parallel::ParallelFor(0, n, kAtBRowGrain, [&](Index r0, Index r1) {
    for (Index p = 0; p < k; ++p) {
      const double* arow = ad + p * n;
      const double* brow = bd + p * m;
      for (Index i = r0; i < r1; ++i) {
        const double av = arow[i];
        // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
        if (av == 0.0) continue;
        ker.axpy(m, av, brow, cd + i * m);
      }
    }
  });
  return c;
}

Matrix MatMulABt(const Matrix& a, const Matrix& b) {
  SMFL_CHECK_EQ(a.cols(), b.cols());
  const Index n = a.rows(), k = a.cols(), m = b.rows();
  Matrix c(n, m);
  double* cd = c.data();
  const double* ad = a.data();
  const double* bd = b.data();
  const simd::Kernels& ker = simd::Active();
  if (ker.tier != simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.matmul_abt");
  }
  // c[i][j] = dot(a.row(i), b.row(j)). Rows of b are packed into
  // kPanelWidth-column panels so each output element gets its own vector
  // lane with the ascending-p accumulation chain intact (simd.h contract);
  // the panel is re-packed per chunk, then amortized over the chunk's rows.
  parallel::ParallelFor(0, n, kDotRowGrain, [&](Index r0, Index r1) {
    std::vector<double> panel(
        static_cast<size_t>(simd::kPanelWidth * std::max<Index>(k, 1)));
    for (Index j0 = 0; j0 < m; j0 += simd::kPanelWidth) {
      const Index lanes = std::min(simd::kPanelWidth, m - j0);
      simd::PackRowPanel(bd + j0 * k, k, lanes, k, panel.data());
      for (Index i = r0; i < r1; ++i) {
        ker.dot_panel(k, ad + i * k, panel.data(), lanes, cd + i * m + j0);
      }
    }
  });
  return c;
}

double FrobeniusNormSquared(const Matrix& a) {
  double acc = 0.0;
  const double* d = a.data();
  for (Index i = 0; i < a.size(); ++i) acc += d[i] * d[i];
  return acc;
}

double FrobeniusNorm(const Matrix& a) {
  return std::sqrt(FrobeniusNormSquared(a));
}

double Trace(const Matrix& a) {
  SMFL_CHECK_EQ(a.rows(), a.cols());
  double acc = 0.0;
  for (Index i = 0; i < a.rows(); ++i) acc += a(i, i);
  return acc;
}

double TraceAtB(const Matrix& a, const Matrix& b) {
  SMFL_CHECK(a.SameShape(b));
  double acc = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (Index i = 0; i < a.size(); ++i) acc += ad[i] * bd[i];
  return acc;
}

double Dot(const Vector& a, const Vector& b) {
  SMFL_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (Index i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const Vector& v) { return std::sqrt(Dot(v, v)); }

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  SMFL_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SMFL_CHECK(a.SameShape(b));
  double best = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (Index i = 0; i < a.size(); ++i) {
    best = std::max(best, std::fabs(ad[i] - bd[i]));
  }
  return best;
}

Vector ColMeans(const Matrix& a) {
  Vector mu(a.cols());
  if (a.rows() == 0) return mu;
  for (Index i = 0; i < a.rows(); ++i) {
    auto row = a.Row(i);
    for (Index j = 0; j < a.cols(); ++j) mu[j] += row[j];
  }
  for (Index j = 0; j < a.cols(); ++j) mu[j] /= static_cast<double>(a.rows());
  return mu;
}

}  // namespace smfl::la
