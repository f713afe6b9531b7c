// The only translation unit in the tree allowed to touch raw SIMD
// intrinsics (smfl_lint rule `raw-simd` enforces this). Every vector
// kernel below preserves the scalar per-output-element operation order —
// see the contract in simd.h — by using separate mul and add intrinsics
// (never fused multiply-add) and by never reducing across a vector
// register. The build additionally pins -ffp-contract=off so no tier can
// be contracted behind our back.

#include "src/la/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SMFL_SIMD_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SMFL_SIMD_NEON 1
#endif

namespace smfl::la::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the reference operation order every vector tier must match.
// ---------------------------------------------------------------------------

void AxpyScalar(Index n, double a, const double* x, double* y) {
  for (Index j = 0; j < n; ++j) {
    y[j] += a * x[j];
  }
}

void DotPanelScalar(Index k, const double* a, const double* panel,
                    Index lanes, double* out) {
  // kPanelWidth independent accumulator chains, ascending p — the same
  // chain per lane the vector tiers run, just one lane at a time.
  double acc[kPanelWidth] = {};
  for (Index p = 0; p < k; ++p) {
    const double ap = a[p];
    const double* prow = panel + p * kPanelWidth;
    for (Index l = 0; l < kPanelWidth; ++l) {
      acc[l] += ap * prow[l];
    }
  }
  for (Index l = 0; l < lanes; ++l) {
    out[l] = acc[l];
  }
}

// Four cells' ascending-l chains from +0.0 at a time, interleaved so their
// adds overlap, each reading its column of Vᵀ; the u_l == 0 skip depends on
// u_l only, so the four share it. A short last group repeats its last
// column, which is the same chain.
void MaskedDotColsScalar(Index k, const double* vt, const double* u,
                         const Index* cols, Index ncols, bool skip_zeros,
                         double* out) {
  const Index kp = PaddedWidth(k);
  for (Index c = 0; c < ncols; c += 4) {
    const Index last = ncols - 1;
    const double* v0 = vt + cols[c] * kp;
    const double* v1 = vt + cols[std::min(c + 1, last)] * kp;
    const double* v2 = vt + cols[std::min(c + 2, last)] * kp;
    const double* v3 = vt + cols[std::min(c + 3, last)] * kp;
    double a[4] = {};
    for (Index l = 0; l < k; ++l) {
      const double ul = u[l];
      // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
      if (skip_zeros && ul == 0.0) continue;
      a[0] += ul * v0[l];
      a[1] += ul * v1[l];
      a[2] += ul * v2[l];
      a[3] += ul * v3[l];
    }
    for (Index q = 0; q < std::min<Index>(4, ncols - c); ++q) out[c + q] = a[q];
  }
}

// Lanes per pass of the scalar V step's K-wide accumulators (stack
// arrays); a larger rank takes several passes over the column's rows.
constexpr Index kScalarBlock = 16;

// Rows per squared-error block of the row pass: each row's error joins its
// block's sum in row order from +0.0, and the block sums join in order —
// data::MaskedSquaredError's grouping. The fit's U pass hands the
// kernel 64-row chunks, one block each.
constexpr Index kRowPassBlock = 64;

// The calling thread's row-sized scratch for the row pass's reconstructed
// cells, grown on demand and kept, so a call allocates nothing once the
// thread has seen the widest row.
double* RowScratch(Index n) {
  thread_local std::vector<double> scratch;
  if (static_cast<Index>(scratch.size()) < n) {
    scratch.resize(static_cast<size_t>(n));
  }
  return scratch.data();
}

// One row of U V over the padded columns [0, mp): r[j] = Σ_p u[p] v[p·mp + j],
// each the ascending-p chain from +0.0 (the u[p] == 0 terms skipped under
// skip_zeros), four columns interleaved.
void UvRowScalar(Index k, Index mp, const double* v, const double* u,
                 bool skip_zeros, double* r) {
  for (Index j0 = 0; j0 < mp; j0 += kLaneWidth) {
    double a[kLaneWidth] = {};
    for (Index p = 0; p < k; ++p) {
      const double up = u[p];
      // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
      if (skip_zeros && up == 0.0) continue;
      const double* vr = v + p * mp + j0;
      for (Index l = 0; l < kLaneWidth; ++l) a[l] += up * vr[l];
    }
    for (Index l = 0; l < kLaneWidth; ++l) r[j0 + l] = a[l];
  }
}

// Row i's U step (see UStep), reading (U V)_ij of its observed cell c at
// uv[cols[c]] (kDense: the row's whole padded row) or at uv[c − row_ptr[i]]
// (its cells, packed). Returns the row's squared error: (x − (U V)_ij)²
// over its cells in ascending order from +0.0.
template <bool kDense>
double UStepRowScalar(const UStep& s, Index i, const double* uv) {
  const Index k = s.k, kp = PaddedWidth(k);
  const bool graph = s.lambda > 0.0;
  const Index c0 = s.row_ptr[i], c1 = s.row_ptr[i + 1];
  const auto at = [&](Index c) { return kDense ? uv[s.cols[c]] : uv[c - c0]; };
  const double* urow = s.u + i * k;
  double row_err = 0.0;
  for (Index c = c0; c < c1; ++c) {
    const double d = s.x[c] - at(c);
    row_err += d * d;
  }
  // Passes of kLaneWidth lanes, so the accumulators are fixed-size arrays
  // the compiler keeps in registers; U's rows are read only up to their
  // true width w.
  for (Index l0 = 0; l0 < k; l0 += kLaneWidth) {
    const Index w = std::min(kLaneWidth, k - l0);
    // Multiplicative: num = R_Ω(X)_i Vᵀ and den = R_Ω(UV)_i Vᵀ. Gradient:
    // the single chain (R_Ω(X) − R_Ω(UV))_i Vᵀ, into num.
    double num[kLaneWidth] = {}, den[kLaneWidth] = {};
    for (Index c = c0; c < c1; ++c) {
      const double* vp = s.vt + s.cols[c] * kp + l0;
      if (s.multiplicative) {
        const double xc = s.x[c], uc = at(c);
        for (Index l = 0; l < kLaneWidth; ++l) {
          num[l] += xc * vp[l];
          den[l] += uc * vp[l];
        }
      } else {
        const double a = s.x[c] - at(c);
        for (Index l = 0; l < kLaneWidth; ++l) num[l] += a * vp[l];
      }
    }
    // (D U)_i: neighbour rows summed from zero in adjacency order.
    double du[kLaneWidth] = {};
    double degree = 0.0;
    if (graph) {
      for (Index e = s.nbr_ptr[i]; e < s.nbr_ptr[i + 1]; ++e) {
        const double we = s.nbr_w[e];
        const double* nrow = s.u + s.nbr[e] * k + l0;
        for (Index l = 0; l < w; ++l) du[l] += we * nrow[l];
      }
      degree = s.degree[i];
    }
    double* out = s.u_next + i * k + l0;
    for (Index l = 0; l < w; ++l) {
      const double ul = urow[l0 + l];
      if (s.multiplicative) {
        double nl = num[l], dl = den[l];
        if (graph) {
          nl += du[l] * s.lambda;
          dl += degree * ul * s.lambda;
        }
        out[l] = ul * (nl / std::max(dl, s.div_eps));
      } else {
        double g = num[l];
        if (graph) g -= (degree * ul - du[l]) * s.lambda;
        out[l] = std::max(ul + g * s.step, 0.0);
      }
    }
  }
  return row_err;
}

// (U V)_pj for up to four observed rows p = rows[0 .. block) of one column
// (`vj`, K-padded): four independent ascending-l chains from +0.0 that
// interleave instead of waiting on one another's adds. The u_pl == 0 skip
// matters only against a non-finite v_lj, so it runs only then.
inline void ColumnCells(Index k, const double* u, const Index* rows,
                        Index block, const double* vj, bool finite_column,
                        double* r) {
  const double* ur[4];
  for (Index q = 0; q < 4; ++q) {
    ur[q] = u + rows[std::min(q, block - 1)] * k;  // pad by repetition
  }
  double acc[4] = {};
  if (finite_column) {
    for (Index l = 0; l < k; ++l) {
      for (Index q = 0; q < 4; ++q) acc[q] += ur[q][l] * vj[l];
    }
  } else {
    for (Index l = 0; l < k; ++l) {
      for (Index q = 0; q < 4; ++q) {
        // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
        if (ur[q][l] == 0.0) continue;
        acc[q] += ur[q][l] * vj[l];
      }
    }
  }
  for (Index q = 0; q < block; ++q) r[q] = acc[q];
}

bool FiniteLanes(const double* p, Index n) {
  bool finite = true;
  for (Index l = 0; l < n; ++l) finite = finite && std::isfinite(p[l]);
  return finite;
}

void VStepColsScalar(const VStep& s, Index c0, Index c1) {
  const Index k = s.k, kp = PaddedWidth(k);
  for (Index j = c0; j < c1; ++j) {
    const double* vj = s.vt + j * kp;
    const bool finite_column = FiniteLanes(vj, k);
    const Index p0 = s.col_ptr[j - s.col_begin];
    const Index p1 = s.col_ptr[j - s.col_begin + 1];
    for (Index l0 = 0; l0 < k; l0 += kScalarBlock) {
      const Index w = std::min(kScalarBlock, k - l0);
      double num[kScalarBlock] = {}, den[kScalarBlock] = {};
      for (Index c = p0; c < p1; c += 4) {
        const Index block = std::min<Index>(4, p1 - c);
        double r[4];
        ColumnCells(k, s.u, s.rows + c, block, vj, finite_column, r);
        for (Index q = 0; q < block; ++q) {
          const double x = s.x[c + q];
          const double* up = s.u + s.rows[c + q] * k + l0;
          if (std::isfinite(r[q])) {
            for (Index l = 0; l < w; ++l) {
              num[l] += up[l] * x;
              den[l] += up[l] * r[q];
            }
            continue;
          }
          for (Index l = 0; l < w; ++l) {
            // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
            if (up[l] == 0.0) continue;
            num[l] += up[l] * x;
            den[l] += up[l] * r[q];
          }
        }
      }
      for (Index l = 0; l < w; ++l) {
        const double vl = vj[l0 + l];
        s.v[(l0 + l) * s.m + j] =
            s.multiplicative
                ? vl * (num[l] / std::max(den[l], s.div_eps))
                : std::max(0.0, vl + s.step * (num[l] - den[l]));
      }
    }
  }
}

// A fold-in row's num_c = Σ_t x_t v_ct, ascending t from +0.0, shared by
// every tier. V's column cols[t] is row cols[t] of vt.
void FoldInNum(const FoldInSolve& s, const FoldInRow& row, double* num) {
  const Index k = s.k, kp = PaddedWidth(k);
  std::fill(num, num + k, 0.0);
  for (Index t = 0; t < row.nt; ++t) {
    const Index j = row.cols[t];
    const double* vj = s.vt + j * kp;
    const double xt = row.x[j];
    for (Index c = 0; c < k; ++c) num[c] += xt * vj[c];
  }
}

// A fold-in row's error from its residuals, Σ_t (x_t − r_t)² with
// r_t = Σ_c u_c v_ct (u_c at u[c · stride]), shared by every tier.
double FoldInRowError(const FoldInSolve& s, const FoldInRow& row,
                      const double* u, Index stride) {
  const Index k = s.k, kp = PaddedWidth(k);
  double err = 0.0;
  for (Index t = 0; t < row.nt; ++t) {
    const Index j = row.cols[t];
    const double* vj = s.vt + j * kp;
    double r = 0.0;
    for (Index c = 0; c < k; ++c) r += u[c * stride] * vj[c];
    const double d = row.x[j] - r;
    err += d * d;
  }
  return err;
}

// Below this share of e₀ the rounding an error read from the step carries,
// ≈ ε · e₀, is no longer small beside it, and the row reads its error from
// the residuals from then on (see FoldInRow). A power of two: exact.
constexpr double kFoldInResidualBelow = 0x1p-20;

// out_c = Σ_c' g_cc' u_c', ascending c' from +0.0.
void GramTimesScalar(Index k, const double* g, const double* u, double* out) {
  for (Index c = 0; c < k; ++c) {
    double acc = 0.0;
    for (Index c2 = 0; c2 < k; ++c2) acc += g[c * k + c2] * u[c2];
    out[c] = acc;
  }
}

// The fold-in solve on the Gram matrix, one row after another: the plain
// per-row loop every vector tier reproduces (see FoldInRow). work holds
// num, den, u' and den'.
void FoldInRowsScalar(const FoldInSolve& s, FoldInRow* rows, Index count,
                      double* work) {
  const Index k = s.k;
  double* num = work;
  for (Index q = 0; q < count; ++q) {
    FoldInRow& row = rows[q];
    double* u = row.u;
    double* den = work + k;
    double* next = work + 2 * k;
    double* den_next = work + 3 * k;
    FoldInNum(s, row, num);
    double err = FoldInRowError(s, row, u, 1);
    const double residual_below = kFoldInResidualBelow * err;
    bool residual = false;
    GramTimesScalar(k, row.gram, u, den);
    double prev = std::numeric_limits<double>::infinity();
    row.iterations = 0;
    for (int iter = 0; iter < s.max_iterations; ++iter) {
      if (prev - err < s.tolerance * std::max(prev, 1e-300)) break;
      prev = err;
      ++row.iterations;
      for (Index c = 0; c < k; ++c) {
        next[c] = u[c] * (num[c] / std::max(den[c], s.div_eps));
      }
      GramTimesScalar(k, row.gram, next, den_next);
      double delta = 0.0;
      for (Index c = 0; c < k; ++c) {
        delta +=
            (u[c] - next[c]) * ((den[c] + den_next[c]) - (num[c] + num[c]));
      }
      err = prev - delta;
      if (residual || err < residual_below) {
        err = FoldInRowError(s, row, next, 1);
        residual = true;
      }
      std::copy(next, next + k, u);
      std::swap(den, den_next);
    }
  }
}

// Dense/per-cell crossover of the scalar tier (Kernels::dense_crossover;
// measured table in docs/performance.md "Two passes per iteration").
constexpr Index kScalarCrossover = 2;

// The row pass (Kernels::u_step_rows), one row at a time: the row's
// observed cells of U V in the row scratch — its whole padded row, or its
// cells through masked_dot_cols — then its U step from them. Which path a
// row takes never changes a bit. A row without cells adds +0.0 to its
// block's error, which leaves the sum unchanged.
double UStepRowsScalar(const UStep& s, Index r0, Index r1) {
  const Index k = s.k, m = s.m, mp = PaddedWidth(m);
  double* row = RowScratch(mp);
  double err = 0.0;
  for (Index b0 = r0; b0 < r1; b0 += kRowPassBlock) {
    const Index b1 = std::min(b0 + kRowPassBlock, r1);
    double block_err = 0.0;
    for (Index i = b0; i < b1; ++i) {
      const Index c0 = s.row_ptr[i], nc = s.row_ptr[i + 1] - c0;
      const double* ui = s.u + i * k;
      if (nc * kScalarCrossover >= m) {
        UvRowScalar(k, mp, s.vp, ui, s.skip_zeros, row);
        block_err += UStepRowScalar<true>(s, i, row);
      } else {
        MaskedDotColsScalar(k, s.vt, ui, s.cols + c0, nc, s.skip_zeros, row);
        block_err += UStepRowScalar<false>(s, i, row);
      }
    }
    err += block_err;
  }
  return err;
}

// ||u_from − u_to||² of upper-triangle edge e: the ascending-column chain
// from +0.0.
double EdgeSquaredDistance(const LaplacianEdges& g, Index e) {
  const double* ui = g.u + g.from[e] * g.k;
  const double* uj = g.u + g.targets[g.edge[e]] * g.k;
  double acc = 0.0;
  for (Index c = 0; c < g.k; ++c) {
    const double diff = ui[c] - uj[c];
    acc += diff * diff;
  }
  return acc;
}

// The Laplacian term over edges [e0, e1): groups of four edges whose four
// chains interleave, each weighted term joining the sum in edge order,
// then the 0–3 edges after the last group one at a time.
double LaplacianEdgesScalar(const LaplacianEdges& g, Index e0, Index e1) {
  const Index k = g.k;
  double acc = 0.0;
  Index e = e0;
  for (; e + 4 <= e1; e += 4) {
    const double* a[4];
    const double* b[4];
    for (Index q = 0; q < 4; ++q) {
      a[q] = g.u + g.from[e + q] * k;
      b[q] = g.u + g.targets[g.edge[e + q]] * k;
    }
    double s[4] = {};
    for (Index c = 0; c < k; ++c) {
      for (Index q = 0; q < 4; ++q) {
        const double diff = a[q][c] - b[q][c];
        s[q] += diff * diff;
      }
    }
    for (Index q = 0; q < 4; ++q) acc += g.weights[g.edge[e + q]] * s[q];
  }
  for (; e < e1; ++e) acc += g.weights[g.edge[e]] * EdgeSquaredDistance(g, e);
  return acc;
}

constexpr Kernels kScalarTable{
    Tier::kScalar,        AxpyScalar,      DotPanelScalar,
    MaskedDotColsScalar,  UStepRowsScalar,
    VStepColsScalar,      UvRowScalar,     FoldInRowsScalar,
    LaplacianEdgesScalar, kScalarCrossover};

// ---------------------------------------------------------------------------
// AVX2 tier (x86). Per-function target attributes keep the rest of the
// binary at the baseline ISA; only these functions emit AVX2 and they are
// only ever reached after the cpuid probe below says the CPU has it.
// ---------------------------------------------------------------------------

#if defined(SMFL_SIMD_X86)

__attribute__((target("avx2"))) void AxpyAvx2(Index n, double a,
                                              const double* x, double* y) {
  const __m256d av = _mm256_set1_pd(a);
  Index j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d xv = _mm256_loadu_pd(x + j);
    const __m256d yv = _mm256_loadu_pd(y + j);
    // y[j] + (a * x[j]) — one mul, one add, exactly the scalar expression.
    _mm256_storeu_pd(y + j, _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
  }
  for (; j < n; ++j) {
    y[j] += a * x[j];
  }
}

__attribute__((target("avx2"))) void DotPanelAvx2(Index k, const double* a,
                                                  const double* panel,
                                                  Index lanes, double* out) {
  // Two independent 4-lane accumulator chains = the scalar tier's eight
  // acc[l] chains, ascending p, no cross-lane reduction.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (Index p = 0; p < k; ++p) {
    const __m256d ap = _mm256_set1_pd(a[p]);
    const double* prow = panel + p * kPanelWidth;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(ap, _mm256_loadu_pd(prow)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(ap, _mm256_loadu_pd(prow + 4)));
  }
  double lane[kPanelWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (Index l = 0; l < lanes; ++l) {
    out[l] = lane[l];
  }
}

// The register-block loops over b below carry `#pragma GCC unroll 8`:
// unrolled before scalar replacement, the __m256d accumulator arrays live
// in registers instead of being zeroed and spilled on the stack.

// Lane mask selecting the first n (1..4) lanes.
__attribute__((target("avx2"))) inline __m256i FirstLanes(Index n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

// Register b of an NB-register block of a row of U (or V) whose true width
// ends inside the last register: that one is a masked load, so no lane
// past the row's end is read.
template <int NB>
__attribute__((target("avx2"))) inline __m256d LoadBlock(const double* p,
                                                        int b,
                                                        __m256i tail) {
  return b + 1 < NB ? _mm256_loadu_pd(p + b * kLaneWidth)
                    : _mm256_maskload_pd(p + b * kLaneWidth, tail);
}

// The 4×4 transpose of rows a0..a3: t[l] = (a0[l], a1[l], a2[l], a3[l]).
// Pure data movement.
__attribute__((target("avx2"))) inline void Transpose4(
    __m256d a0, __m256d a1, __m256d a2, __m256d a3, __m256d t[4]) {
  const __m256d lo01 = _mm256_unpacklo_pd(a0, a1);  // a0[0] a1[0] a0[2] a1[2]
  const __m256d hi01 = _mm256_unpackhi_pd(a0, a1);  // a0[1] a1[1] a0[3] a1[3]
  const __m256d lo23 = _mm256_unpacklo_pd(a2, a3);
  const __m256d hi23 = _mm256_unpackhi_pd(a2, a3);
  t[0] = _mm256_permute2f128_pd(lo01, lo23, 0x20);
  t[1] = _mm256_permute2f128_pd(hi01, hi23, 0x20);
  t[2] = _mm256_permute2f128_pd(lo01, lo23, 0x31);
  t[3] = _mm256_permute2f128_pd(hi01, hi23, 0x31);
}

// MaskedDotColsScalar, four cells per vector: their K-padded columns of Vᵀ
// are transposed 4×4 in registers, so lane q runs cell q's ascending-l
// chain from +0.0, one mul and one add per rank entry. With kSkip the
// u_l == 0 terms are skipped, uniformly across the lanes. A short last
// group repeats its last column and stores only its live lanes. No
// hardware gathers: an _mm256_i64gather_pd form measured 0.85× the scalar
// per-entry dots at 10% observed on the server Xeons this repo benches
// on.
template <bool kSkip>
__attribute__((target("avx2"))) void MaskedDotColsPassAvx2(
    Index k, const double* vt, const double* u, const Index* cols,
    Index ncols, double* out) {
  const Index kp = PaddedWidth(k);
  for (Index c = 0; c < ncols; c += 4) {
    const Index last = ncols - 1;
    const double* v0 = vt + cols[c] * kp;
    const double* v1 = vt + cols[std::min(c + 1, last)] * kp;
    const double* v2 = vt + cols[std::min(c + 2, last)] * kp;
    const double* v3 = vt + cols[std::min(c + 3, last)] * kp;
    __m256d acc = _mm256_setzero_pd();
    for (Index l0 = 0; l0 < k; l0 += kLaneWidth) {
      __m256d t[4];
      Transpose4(_mm256_loadu_pd(v0 + l0), _mm256_loadu_pd(v1 + l0),
                 _mm256_loadu_pd(v2 + l0), _mm256_loadu_pd(v3 + l0), t);
      const Index w = std::min(kLaneWidth, k - l0);
      #pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        if (l >= w) break;
        // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
        if (kSkip && u[l0 + l] == 0.0) continue;
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_broadcast_sd(u + l0 + l), t[l]));
      }
    }
    _mm256_maskstore_pd(out + c, FirstLanes(std::min<Index>(4, ncols - c)),
                        acc);
  }
}

__attribute__((target("avx2"))) void MaskedDotColsAvx2(
    Index k, const double* vt, const double* u, const Index* cols,
    Index ncols, bool skip_zeros, double* out) {
  if (skip_zeros) {
    MaskedDotColsPassAvx2<true>(k, vt, u, cols, ncols, out);
  } else {
    MaskedDotColsPassAvx2<false>(k, vt, u, cols, ncols, out);
  }
}

// (U V)_pj of four observed rows of one column (`vj`, K-padded, all
// finite) in one vector, from the rows' NB registers `ub` that hold their
// whole rank (k <= 4·NB): each register block is transposed 4×4, so lane q
// runs row q's ascending-l chain from +0.0, one mul and one add per rank
// entry.
template <int NB>
__attribute__((target("avx2"), always_inline)) inline __m256d
ColumnCellsAvx2(const __m256d (*ub)[NB], Index k, const double* vj) {
  __m256d acc = _mm256_setzero_pd();
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    __m256d t[4];
    Transpose4(ub[0][b], ub[1][b], ub[2][b], ub[3][b], t);
    #pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      if (b * kLaneWidth + l >= k) break;
      acc = _mm256_add_pd(
          acc,
          _mm256_mul_pd(t[l], _mm256_broadcast_sd(vj + b * kLaneWidth + l)));
    }
  }
  return acc;
}

// Row p's terms of column j's sums over a pass's lanes, `up` its NB
// registers and rv its finite (U V)_pj in every lane: num += u_p·x_pj and
// den += u_p·(U V)_pj.
template <int NB>
__attribute__((target("avx2"), always_inline)) inline void VStepRowFiniteAvx2(
    const __m256d* up, double x, __m256d rv, __m256d* num, __m256d* den) {
  const __m256d xv = _mm256_set1_pd(x);
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    num[b] = _mm256_add_pd(num[b], _mm256_mul_pd(up[b], xv));
    den[b] = _mm256_add_pd(den[b], _mm256_mul_pd(up[b], rv));
  }
}

// VStepRowFiniteAvx2 for any (U V)_pj = r: a non-finite r masks the
// u_pl == 0 terms to +0.0, which leaves a sum that never holds −0.0
// unchanged — the scalar skip, per lane.
template <int NB>
__attribute__((target("avx2"), always_inline)) inline void VStepRowAvx2(
    const __m256d* up, double x, double r, __m256d* num, __m256d* den) {
  const __m256d rv = _mm256_set1_pd(r);
  if (std::isfinite(r)) {
    VStepRowFiniteAvx2<NB>(up, x, rv, num, den);
    return;
  }
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d zero = _mm256_setzero_pd();
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    const __m256d zeros = _mm256_cmp_pd(up[b], zero, _CMP_EQ_OQ);
    num[b] = _mm256_add_pd(num[b],
                           _mm256_andnot_pd(zeros, _mm256_mul_pd(up[b], xv)));
    den[b] = _mm256_add_pd(den[b],
                           _mm256_andnot_pd(zeros, _mm256_mul_pd(up[b], rv)));
  }
}

// One pass of the V step over lanes [l0, l0 + 4·NB) of column j.
template <int NB>
__attribute__((target("avx2"))) void VStepPassAvx2(const VStep& s, Index j,
                                                  bool finite_column,
                                                  Index l0) {
  const Index k = s.k;
  const double* vj = s.vt + j * PaddedWidth(k);
  const Index w = std::min(NB * kLaneWidth, k - l0);
  const __m256i tail = FirstLanes(w - (NB - 1) * kLaneWidth);
  const __m256d zero = _mm256_setzero_pd();
  __m256d num[NB], den[NB];
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) num[b] = den[b] = zero;
  const Index p0 = s.col_ptr[j - s.col_begin];
  const Index p1 = s.col_ptr[j - s.col_begin + 1];
  // One pass holds the whole rank (then l0 == 0): the (U V)_pj come from
  // the same registers that feed num and den.
  const bool vector_cells = finite_column && k <= NB * kLaneWidth;
  for (Index c = p0; c < p1; c += 4) {
    const Index block = std::min<Index>(4, p1 - c);
    // The pass's registers of four observed rows, loaded once (a short
    // last group repeats its last row).
    __m256d ub[4][NB];
    #pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const double* uq =
          s.u + s.rows[c + std::min<Index>(q, block - 1)] * k + l0;
      #pragma GCC unroll 8
      for (int b = 0; b < NB; ++b) ub[q][b] = LoadBlock<NB>(uq, b, tail);
    }
    double r[4];
    if (vector_cells) {
      const __m256d rv = ColumnCellsAvx2<NB>(ub, k, vj);
      // rv − rv is +0.0 in every lane only when all four (U V)_pj are
      // finite (a short group's spare lanes repeat its last row): then each
      // row's lane is broadcast in registers, with no zero masking.
      if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_sub_pd(rv, rv), zero,
                                           _CMP_EQ_OQ)) == 0xF) {
        const double* x = s.x + c;
        VStepRowFiniteAvx2<NB>(ub[0], x[0], _mm256_permute4x64_pd(rv, 0x00),
                               num, den);
        if (block > 1) {
          VStepRowFiniteAvx2<NB>(ub[1], x[1],
                                 _mm256_permute4x64_pd(rv, 0x55), num, den);
        }
        if (block > 2) {
          VStepRowFiniteAvx2<NB>(ub[2], x[2],
                                 _mm256_permute4x64_pd(rv, 0xAA), num, den);
        }
        if (block > 3) {
          VStepRowFiniteAvx2<NB>(ub[3], x[3],
                                 _mm256_permute4x64_pd(rv, 0xFF), num, den);
        }
        continue;
      }
      _mm256_storeu_pd(r, rv);
    } else {
      ColumnCells(k, s.u, s.rows + c, block, vj, finite_column, r);
    }
    #pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      if (q >= block) break;
      VStepRowAvx2<NB>(ub[q], s.x[c + q], r[q], num, den);
    }
  }
  const __m256d step = _mm256_set1_pd(s.step);
  const __m256d eps = _mm256_set1_pd(s.div_eps);
  double out[NB * kLaneWidth];
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    // vj is K-padded, so the full-width load stays inside it.
    const __m256d vl = _mm256_loadu_pd(vj + l0 + b * kLaneWidth);
    const __m256d o =
        s.multiplicative
            ? _mm256_mul_pd(vl, _mm256_div_pd(num[b], _mm256_max_pd(eps, den[b])))
            // max(a, 0) is std::max(0.0, a): a only when a > 0.
            : _mm256_max_pd(_mm256_add_pd(vl, _mm256_mul_pd(
                                                  step, _mm256_sub_pd(num[b],
                                                                      den[b]))),
                            zero);
    _mm256_storeu_pd(out + b * kLaneWidth, o);
  }
  for (Index l = 0; l < w; ++l) s.v[(l0 + l) * s.m + j] = out[l];
}

__attribute__((target("avx2"))) void VStepColsAvx2(const VStep& s, Index c0,
                                                  Index c1) {
  for (Index j = c0; j < c1; ++j) {
    const bool finite_column =
        FiniteLanes(s.vt + j * PaddedWidth(s.k), s.k);
    for (Index l0 = 0; l0 < s.k; l0 += 4 * kLaneWidth) {
      switch (std::min<Index>(4, (s.k - l0 + kLaneWidth - 1) / kLaneWidth)) {
        case 1: VStepPassAvx2<1>(s, j, finite_column, l0); break;
        case 2: VStepPassAvx2<2>(s, j, finite_column, l0); break;
        case 3: VStepPassAvx2<3>(s, j, finite_column, l0); break;
        default: VStepPassAvx2<4>(s, j, finite_column, l0); break;
      }
    }
  }
}

// Rank entries whose den' chains one pass over c' holds in registers; a
// larger rank is split into near-equal passes of at most this many, so no
// pass is too narrow to hide the add latency.
constexpr int kFoldInRankBlock = 8;

// out_c = Σ_c' g_cc' u_c' for rank entries [c0, c0 + NB) of every lane,
// ascending c' from +0.0, each chain in a register across c'. g, u and out
// are lane-interleaved: entry e of lane q at [kLaneWidth · e + q].
template <int NB>
__attribute__((target("avx2"))) void GramTimesPassAvx2(Index k, Index c0,
                                                      const double* g,
                                                      const double* u,
                                                      double* out) {
  __m256d acc[NB];
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) acc[b] = _mm256_setzero_pd();
  const double* gc = g + kLaneWidth * c0 * k;
  for (Index c2 = 0; c2 < k; ++c2) {
    const __m256d uc = _mm256_loadu_pd(u + kLaneWidth * c2);
    #pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      acc[b] = _mm256_add_pd(
          acc[b],
          _mm256_mul_pd(_mm256_loadu_pd(gc + kLaneWidth * (b * k + c2)), uc));
    }
  }
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_pd(out + kLaneWidth * (c0 + b), acc[b]);
  }
}

// GramTimesPassAvx2 over nb (1 .. NB) rank entries.
template <int NB = kFoldInRankBlock>
__attribute__((target("avx2"))) void GramTimesPassOfAvx2(
    Index nb, Index k, Index c0, const double* g, const double* u,
    double* out) {
  if constexpr (NB > 1) {
    if (nb < NB) {
      GramTimesPassOfAvx2<NB - 1>(nb, k, c0, g, u, out);
      return;
    }
  }
  GramTimesPassAvx2<NB>(k, c0, g, u, out);
}

// GramTimesScalar for every lane (see GramTimesPassAvx2).
__attribute__((target("avx2"))) void GramTimesAvx2(Index k, const double* g,
                                                  const double* u,
                                                  double* out) {
  const Index passes = (k + kFoldInRankBlock - 1) / kFoldInRankBlock;
  Index c0 = 0;
  for (Index p = 0; p < passes; ++p) {
    const Index nb = (k - c0) / (passes - p);
    GramTimesPassOfAvx2(nb, k, c0, g, u, out);
    c0 += nb;
  }
}

// Lanes `lanes` (a lane mask) of the lane-interleaved u, written out to
// their rows with the updates they ran.
void StoreFoldInLanes(Index k, const double* u, int lanes, int iterations,
                      FoldInRow* rows) {
  for (Index q = 0; q < kLaneWidth; ++q) {
    if (!(lanes >> q & 1)) continue;
    for (Index c = 0; c < k; ++c) rows[q].u[c] = u[kLaneWidth * c + q];
    rows[q].iterations = iterations;
  }
}

// Up to kLaneWidth rows of the fold-in solve (FoldInRow), a row per lane:
// each row's start (num, e₀) on the scalar tier's code, then G, u, num and
// den packed lane-interleaved in `work`, and every iteration runs the stop
// test, the update, den' and Δ for all of them as one instruction stream
// until no lane is live (a lane reading its error from the residuals reads
// it on its own). A lane's u and update count are written out when it
// stops (or at the cap); a stopped lane keeps updating, unread, so no
// update waits for the stop test. A lane without a row is zero throughout
// and never live.
__attribute__((target("avx2"))) void FoldInGroupAvx2(const FoldInSolve& s,
                                                    FoldInRow* rows,
                                                    Index count,
                                                    double* work) {
  const Index k = s.k, lanes = kLaneWidth * k;
  double* g = work;
  double* u = g + lanes * k;
  double* next = u + lanes;
  double* num = next + lanes;
  double* den = num + lanes;
  double* den_next = den + lanes;
  std::fill(g, den_next + lanes, 0.0);
  double e0[kLaneWidth] = {};
  for (Index q = 0; q < count; ++q) {
    const FoldInRow& row = rows[q];
    // The row's num goes to den first (G·u overwrites it below), then to
    // its own lanes.
    FoldInNum(s, row, den);
    e0[q] = FoldInRowError(s, row, row.u, 1);
    for (Index c = 0; c < k; ++c) {
      num[kLaneWidth * c + q] = den[c];
      u[kLaneWidth * c + q] = row.u[c];
    }
    for (Index e = 0; e < k * k; ++e) g[kLaneWidth * e + q] = row.gram[e];
  }
  GramTimesAvx2(k, g, u, den);
  const __m256d eps = _mm256_set1_pd(s.div_eps);
  const __m256d tol = _mm256_set1_pd(s.tolerance);
  const __m256d tiny = _mm256_set1_pd(1e-300);
  __m256d live = _mm256_castsi256_pd(FirstLanes(count));
  __m256d prev = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d err = _mm256_loadu_pd(e0);
  const __m256d residual_below =
      _mm256_mul_pd(_mm256_set1_pd(kFoldInResidualBelow), err);
  __m256d residual = _mm256_setzero_pd();  // lanes reading the residuals
  int iter = 0;
  for (; iter < s.max_iterations; ++iter) {
    // prev − err < tol · max(prev, 1e-300), std::max's operand order.
    const __m256d stop = _mm256_cmp_pd(
        _mm256_sub_pd(prev, err),
        _mm256_mul_pd(tol, _mm256_max_pd(tiny, prev)), _CMP_LT_OQ);
    if (const int stopped = _mm256_movemask_pd(_mm256_and_pd(stop, live))) {
      StoreFoldInLanes(k, u, stopped, iter, rows);
      live = _mm256_andnot_pd(stop, live);
      if (_mm256_movemask_pd(live) == 0) break;
    }
    prev = err;
    for (Index e = 0; e < lanes; e += kLaneWidth) {
      // max(ε, den) is std::max(den, ε): den unless den < ε.
      const __m256d ratio =
          _mm256_div_pd(_mm256_loadu_pd(num + e),
                        _mm256_max_pd(eps, _mm256_loadu_pd(den + e)));
      _mm256_storeu_pd(next + e, _mm256_mul_pd(_mm256_loadu_pd(u + e), ratio));
    }
    GramTimesAvx2(k, g, next, den_next);
    __m256d delta = _mm256_setzero_pd();
    for (Index e = 0; e < lanes; e += kLaneWidth) {
      const __m256d du = _mm256_sub_pd(_mm256_loadu_pd(u + e),
                                       _mm256_loadu_pd(next + e));
      const __m256d n = _mm256_loadu_pd(num + e);
      const __m256d slope =
          _mm256_sub_pd(_mm256_add_pd(_mm256_loadu_pd(den + e),
                                      _mm256_loadu_pd(den_next + e)),
                        _mm256_add_pd(n, n));
      delta = _mm256_add_pd(delta, _mm256_mul_pd(du, slope));
    }
    err = _mm256_sub_pd(prev, delta);
    // As in the scalar tier, a lane reads its error from the residuals
    // once its err falls below kFoldInResidualBelow · e₀.
    residual = _mm256_or_pd(residual,
                            _mm256_cmp_pd(err, residual_below, _CMP_LT_OQ));
    if (const int read = _mm256_movemask_pd(_mm256_and_pd(residual, live))) {
      double e[kLaneWidth];
      _mm256_storeu_pd(e, err);
      for (Index q = 0; q < count; ++q) {
        if (read >> q & 1) {
          e[q] = FoldInRowError(s, rows[q], next + q, kLaneWidth);
        }
      }
      err = _mm256_loadu_pd(e);
    }
    std::swap(u, next);
    std::swap(den, den_next);
  }
  StoreFoldInLanes(k, u, _mm256_movemask_pd(live), iter, rows);
  // The next group starts in legacy-SSE code (FoldInNum), which dirty upper
  // halves slow per instruction: at -O2 the set-up ran 3× slower.
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void FoldInRowsAvx2(const FoldInSolve& s,
                                                   FoldInRow* rows,
                                                   Index count,
                                                   double* work) {
  for (Index q0 = 0; q0 < count; q0 += kLaneWidth) {
    FoldInGroupAvx2(s, rows + q0, std::min(kLaneWidth, count - q0), work);
  }
}

// One row of U V over padded columns [0, 4·NC) of `v` (k × mp): register b
// holds columns [4b, 4b + 4), each lane its column's ascending-p chain from
// +0.0 (kSkip: the u[p] == 0 terms skipped, uniformly across the lanes),
// every accumulator in registers across the whole rank loop.
template <int NC, bool kSkip>
__attribute__((target("avx2"), always_inline)) inline void UvRowBlockAvx2(
    Index k, Index mp, const double* v, const double* u, double* r) {
  __m256d a[NC];
  #pragma GCC unroll 8
  for (int b = 0; b < NC; ++b) a[b] = _mm256_setzero_pd();
  for (Index p = 0; p < k; ++p) {
    // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
    if (kSkip && u[p] == 0.0) continue;
    const __m256d x = _mm256_set1_pd(u[p]);
    const double* vr = v + p * mp;
    #pragma GCC unroll 8
    for (int b = 0; b < NC; ++b) {
      a[b] = _mm256_add_pd(
          a[b], _mm256_mul_pd(x, _mm256_loadu_pd(vr + b * kLaneWidth)));
    }
  }
  #pragma GCC unroll 8
  for (int b = 0; b < NC; ++b) _mm256_storeu_pd(r + b * kLaneWidth, a[b]);
}

// UvRowScalar on AVX2: column blocks of up to eight registers (32
// columns), so the eight accumulators, the broadcast and a load fit the
// 16 ymm registers.
template <bool kSkip>
__attribute__((target("avx2"))) void UvRowAvx2(Index k, Index mp,
                                               const double* v,
                                               const double* u, double* r) {
  for (Index j0 = 0; j0 < mp; j0 += 8 * kLaneWidth) {
    const double* vb = v + j0;
    double* rb = r + j0;
    switch (std::min<Index>(8, (mp - j0) / kLaneWidth)) {
      case 1: UvRowBlockAvx2<1, kSkip>(k, mp, vb, u, rb); break;
      case 2: UvRowBlockAvx2<2, kSkip>(k, mp, vb, u, rb); break;
      case 3: UvRowBlockAvx2<3, kSkip>(k, mp, vb, u, rb); break;
      case 4: UvRowBlockAvx2<4, kSkip>(k, mp, vb, u, rb); break;
      case 5: UvRowBlockAvx2<5, kSkip>(k, mp, vb, u, rb); break;
      case 6: UvRowBlockAvx2<6, kSkip>(k, mp, vb, u, rb); break;
      case 7: UvRowBlockAvx2<7, kSkip>(k, mp, vb, u, rb); break;
      default: UvRowBlockAvx2<8, kSkip>(k, mp, vb, u, rb); break;
    }
  }
}

// The table's uv_row: UvRowAvx2 with the zero-skip chosen at run time.
__attribute__((target("avx2"))) void UvRowTableAvx2(Index k, Index mp,
                                                    const double* v,
                                                    const double* u,
                                                    bool skip_zeros,
                                                    double* r) {
  if (skip_zeros) {
    UvRowAvx2<true>(k, mp, v, u, r);
  } else {
    UvRowAvx2<false>(k, mp, v, u, r);
  }
}

// Row i's sums over its observed cells for lanes [l0, l0 + 4·NB) — num
// and den, or the gradient's single chain in num — with every accumulator
// in registers from the first cell to the last, reading (U V)_ij of cell c
// at uv[cols[c]] (kDense) or uv[c − row_ptr[i]] (packed). Returns the
// row's squared error, its chain running beside the sums over the same
// cells.
template <int NB, bool kDense>
__attribute__((target("avx2"), always_inline)) inline double UStepCellsAvx2(
    const UStep& s, Index i, const double* uv, Index l0, __m256d* num,
    __m256d* den) {
  const Index kp = PaddedWidth(s.k);
  const Index c0 = s.row_ptr[i], c1 = s.row_ptr[i + 1];
  double row_err = 0.0;
  if (s.multiplicative) {
    for (Index c = c0; c < c1; ++c) {
      const Index j = s.cols[c];
      const double* vp = s.vt + j * kp + l0;
      const double uc = kDense ? uv[j] : uv[c - c0];
      const double d = s.x[c] - uc;
      row_err += d * d;
      const __m256d xv = _mm256_set1_pd(s.x[c]);
      const __m256d uv_c = _mm256_set1_pd(uc);
      #pragma GCC unroll 8
      for (int b = 0; b < NB; ++b) {
        const __m256d vv = _mm256_loadu_pd(vp + b * kLaneWidth);
        num[b] = _mm256_add_pd(num[b], _mm256_mul_pd(xv, vv));
        den[b] = _mm256_add_pd(den[b], _mm256_mul_pd(uv_c, vv));
      }
    }
    return row_err;
  }
  for (Index c = c0; c < c1; ++c) {
    const Index j = s.cols[c];
    const double* vp = s.vt + j * kp + l0;
    const double d = s.x[c] - (kDense ? uv[j] : uv[c - c0]);
    row_err += d * d;
    const __m256d a = _mm256_set1_pd(d);
    #pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      num[b] = _mm256_add_pd(
          num[b], _mm256_mul_pd(a, _mm256_loadu_pd(vp + b * kLaneWidth)));
    }
  }
  return row_err;
}

// One pass of row i's U step over lanes [l0, l0 + 4·NB): UStepRowScalar's
// chains, a vector lane per rank entry, from the row's cells in `uv` (see
// UStepCellsAvx2) to its store. Returns the row's squared error.
template <int NB>
__attribute__((target("avx2"), always_inline)) inline double UStepRowPassAvx2(
    const UStep& s, Index i, const double* uv, bool dense, Index l0) {
  const Index k = s.k;
  const __m256i tail =
      FirstLanes(std::min(kLaneWidth, k - l0 - (NB - 1) * kLaneWidth));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d lambda = _mm256_set1_pd(s.lambda);
  const __m256d step = _mm256_set1_pd(s.step);
  const __m256d eps = _mm256_set1_pd(s.div_eps);
  __m256d num[NB], den[NB];
  #pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) num[b] = den[b] = zero;
  const double row_err =
      dense ? UStepCellsAvx2<NB, true>(s, i, uv, l0, num, den)
            : UStepCellsAvx2<NB, false>(s, i, uv, l0, num, den);
  const double* urow = s.u + i * k + l0;
  __m256d out[NB];
  if (s.lambda > 0.0) {
    __m256d du[NB];
    #pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) du[b] = zero;
    for (Index e = s.nbr_ptr[i]; e < s.nbr_ptr[i + 1]; ++e) {
      const __m256d we = _mm256_set1_pd(s.nbr_w[e]);
      const double* nrow = s.u + s.nbr[e] * k + l0;
      #pragma GCC unroll 8
      for (int b = 0; b < NB; ++b) {
        du[b] = _mm256_add_pd(du[b],
                              _mm256_mul_pd(we, LoadBlock<NB>(nrow, b, tail)));
      }
    }
    const __m256d degree = _mm256_set1_pd(s.degree[i]);
    #pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      const __m256d ul = LoadBlock<NB>(urow, b, tail);
      const __m256d wu = _mm256_mul_pd(degree, ul);
      if (s.multiplicative) {
        const __m256d nl =
            _mm256_add_pd(num[b], _mm256_mul_pd(du[b], lambda));
        const __m256d dl = _mm256_add_pd(den[b], _mm256_mul_pd(wu, lambda));
        // max(eps, dl) is std::max(dl, eps): dl unless dl < eps.
        out[b] = _mm256_mul_pd(ul, _mm256_div_pd(nl, _mm256_max_pd(eps, dl)));
      } else {
        const __m256d g = _mm256_sub_pd(
            num[b], _mm256_mul_pd(_mm256_sub_pd(wu, du[b]), lambda));
        // max(0, a) is std::max(a, 0.0): a unless a < 0 (keeps −0, NaN).
        out[b] = _mm256_max_pd(zero,
                               _mm256_add_pd(ul, _mm256_mul_pd(g, step)));
      }
    }
  } else {
    #pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      const __m256d ul = LoadBlock<NB>(urow, b, tail);
      out[b] = s.multiplicative
                   ? _mm256_mul_pd(
                         ul, _mm256_div_pd(num[b], _mm256_max_pd(eps, den[b])))
                   : _mm256_max_pd(
                         zero, _mm256_add_pd(ul, _mm256_mul_pd(num[b], step)));
    }
  }
  double* orow = s.u_next + i * k + l0;
  #pragma GCC unroll 8
  for (int b = 0; b + 1 < NB; ++b) {
    _mm256_storeu_pd(orow + b * kLaneWidth, out[b]);
  }
  _mm256_maskstore_pd(orow + (NB - 1) * kLaneWidth, tail, out[NB - 1]);
  return row_err;
}

// A later pass of a rank above 16 (its squared error is the first pass's).
template <int NB>
__attribute__((target("avx2"), noinline)) void UStepLaterPassAvx2(
    const UStep& s, Index i, const double* uv, bool dense, Index l0) {
  UStepRowPassAvx2<NB>(s, i, uv, dense, l0);
}

// Dense/per-cell crossover of the AVX2 tier (Kernels::dense_crossover):
// its dense rows run UvRowAvx2's register blocks, its sparse rows
// masked_dot_cols four cells per vector.
constexpr Index kAvx2Crossover = 4;

// UStepRowsScalar on AVX2, the first lane pass of each row holding NB
// registers (a rank of at most 4·NB, or the first 16 lanes of a larger
// one): the row's cells into the row scratch, then its step at once.
template <int NB>
__attribute__((target("avx2"))) double UStepRowsPassAvx2(const UStep& s,
                                                        Index r0, Index r1) {
  const Index k = s.k, m = s.m, mp = PaddedWidth(m);
  double* row = RowScratch(mp);
  double err = 0.0;
  for (Index b0 = r0; b0 < r1; b0 += kRowPassBlock) {
    const Index b1 = std::min(b0 + kRowPassBlock, r1);
    double block_err = 0.0;
    for (Index i = b0; i < b1; ++i) {
      const Index c0 = s.row_ptr[i], nc = s.row_ptr[i + 1] - c0;
      const double* ui = s.u + i * k;
      const bool dense = nc * kAvx2Crossover >= m;
      if (dense) {
        if (s.skip_zeros) {
          UvRowAvx2<true>(k, mp, s.vp, ui, row);
        } else {
          UvRowAvx2<false>(k, mp, s.vp, ui, row);
        }
      } else {
        MaskedDotColsAvx2(k, s.vt, ui, s.cols + c0, nc, s.skip_zeros, row);
      }
      block_err += UStepRowPassAvx2<NB>(s, i, row, dense, 0);
      for (Index l0 = NB * kLaneWidth; l0 < k; l0 += 4 * kLaneWidth) {
        switch (std::min<Index>(4, (k - l0 + kLaneWidth - 1) / kLaneWidth)) {
          case 1: UStepLaterPassAvx2<1>(s, i, row, dense, l0); break;
          case 2: UStepLaterPassAvx2<2>(s, i, row, dense, l0); break;
          case 3: UStepLaterPassAvx2<3>(s, i, row, dense, l0); break;
          default: UStepLaterPassAvx2<4>(s, i, row, dense, l0); break;
        }
      }
    }
    err += block_err;
  }
  return err;
}

__attribute__((target("avx2"))) double UStepRowsAvx2(const UStep& s,
                                                    Index r0, Index r1) {
  switch (std::min<Index>(4, (s.k + kLaneWidth - 1) / kLaneWidth)) {
    case 1: return UStepRowsPassAvx2<1>(s, r0, r1);
    case 2: return UStepRowsPassAvx2<2>(s, r0, r1);
    case 3: return UStepRowsPassAvx2<3>(s, r0, r1);
    default: return UStepRowsPassAvx2<4>(s, r0, r1);
  }
}

// Edge q's squared differences over columns [c, c + 4) of its rows a[q]
// and b[q], the four edges transposed 4×4 into t: t[l] lane q is edge q's
// at column c + l. kTail: columns past the rows' width w read as +0.0
// instead of being loaded.
template <bool kTail>
__attribute__((target("avx2"), always_inline)) inline void EdgeSquaresAvx2(
    const double* const* a, const double* const* b, Index c, Index w,
    __m256d t[4]) {
  const __m256i live = FirstLanes(w);
  __m256d sq[4];
  #pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
    const __m256d d =
        kTail ? _mm256_sub_pd(_mm256_maskload_pd(a[q] + c, live),
                              _mm256_maskload_pd(b[q] + c, live))
              : _mm256_sub_pd(_mm256_loadu_pd(a[q] + c),
                              _mm256_loadu_pd(b[q] + c));
    sq[q] = _mm256_mul_pd(d, d);
  }
  Transpose4(sq[0], sq[1], sq[2], sq[3], t);
}

// LaplacianEdgesScalar on AVX2, a vector lane per edge of each group of
// four: four columns at a time, each edge's squared differences come out of
// one sub and one mul with its columns in the lanes, are transposed 4×4 so
// lane q holds edge q's, and join lane q's chain in ascending column order
// from +0.0. The four weighted terms then join the sum in edge order.
__attribute__((target("avx2"))) double LaplacianEdgesAvx2(
    const LaplacianEdges& g, Index e0, Index e1) {
  const Index k = g.k;
  double acc = 0.0;
  Index e = e0;
  for (; e + 4 <= e1; e += 4) {
    const double* a[4];
    const double* b[4];
    #pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      a[q] = g.u + g.from[e + q] * k;
      b[q] = g.u + g.targets[g.edge[e + q]] * k;
    }
    __m256d s = _mm256_setzero_pd();
    __m256d t[4];
    Index c = 0;
    for (; c + kLaneWidth <= k; c += kLaneWidth) {
      EdgeSquaresAvx2<false>(a, b, c, kLaneWidth, t);
      s = _mm256_add_pd(s, t[0]);
      s = _mm256_add_pd(s, t[1]);
      s = _mm256_add_pd(s, t[2]);
      s = _mm256_add_pd(s, t[3]);
    }
    if (c < k) {
      // Rows of U are read only up to their true width.
      const Index w = k - c;
      EdgeSquaresAvx2<true>(a, b, c, w, t);
      s = _mm256_add_pd(s, t[0]);
      if (w > 1) s = _mm256_add_pd(s, t[1]);
      if (w > 2) s = _mm256_add_pd(s, t[2]);
    }
    const __m256d terms = _mm256_mul_pd(
        _mm256_setr_pd(g.weights[g.edge[e]], g.weights[g.edge[e + 1]],
                       g.weights[g.edge[e + 2]], g.weights[g.edge[e + 3]]),
        s);
    const __m128d lo = _mm256_castpd256_pd128(terms);
    const __m128d hi = _mm256_extractf128_pd(terms, 1);
    acc += _mm_cvtsd_f64(lo);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    acc += _mm_cvtsd_f64(hi);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  }
  for (; e < e1; ++e) acc += g.weights[g.edge[e]] * EdgeSquaredDistance(g, e);
  return acc;
}

constexpr Kernels kAvx2Table{
    Tier::kAvx2,        AxpyAvx2,      DotPanelAvx2,
    MaskedDotColsAvx2,  UStepRowsAvx2,
    VStepColsAvx2,      UvRowTableAvx2, FoldInRowsAvx2,
    LaplacianEdgesAvx2, kAvx2Crossover};

#endif  // SMFL_SIMD_X86

// ---------------------------------------------------------------------------
// NEON tier (aarch64). NEON is mandatory on aarch64 so there is no runtime
// probe — the compile-time gate is the dispatch. masked_dot_cols and the
// fit kernels stay on the (order-identical) scalar routines.
// ---------------------------------------------------------------------------

#if defined(SMFL_SIMD_NEON)

void AxpyNeon(Index n, double a, const double* x, double* y) {
  const float64x2_t av = vdupq_n_f64(a);
  Index j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t xv = vld1q_f64(x + j);
    const float64x2_t yv = vld1q_f64(y + j);
    // vaddq + vmulq, never vfmaq: fused multiply-add would round once
    // where the scalar code rounds twice.
    vst1q_f64(y + j, vaddq_f64(yv, vmulq_f64(av, xv)));
  }
  for (; j < n; ++j) {
    y[j] += a * x[j];
  }
}

void DotPanelNeon(Index k, const double* a, const double* panel, Index lanes,
                  double* out) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  for (Index p = 0; p < k; ++p) {
    const float64x2_t ap = vdupq_n_f64(a[p]);
    const double* prow = panel + p * kPanelWidth;
    acc0 = vaddq_f64(acc0, vmulq_f64(ap, vld1q_f64(prow)));
    acc1 = vaddq_f64(acc1, vmulq_f64(ap, vld1q_f64(prow + 2)));
    acc2 = vaddq_f64(acc2, vmulq_f64(ap, vld1q_f64(prow + 4)));
    acc3 = vaddq_f64(acc3, vmulq_f64(ap, vld1q_f64(prow + 6)));
  }
  double lane[kPanelWidth];
  vst1q_f64(lane, acc0);
  vst1q_f64(lane + 2, acc1);
  vst1q_f64(lane + 4, acc2);
  vst1q_f64(lane + 6, acc3);
  for (Index l = 0; l < lanes; ++l) {
    out[l] = lane[l];
  }
}

// The fit and fold-in kernels and their crossovers are the scalar tier's:
// no NEON version of them is built or tested here.
constexpr Kernels kNeonTable{
    Tier::kNeon,          AxpyNeon,        DotPanelNeon,
    MaskedDotColsScalar,  UStepRowsScalar,
    VStepColsScalar,      UvRowScalar,     FoldInRowsScalar,
    LaplacianEdgesScalar, kScalarCrossover};

#endif  // SMFL_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

// True while a ScopedSimd(0) pins the scalar tier on this thread.
thread_local bool tls_scalar = false;

const Kernels& HardwareTable() {
#if defined(SMFL_SIMD_X86)
  if (HardwareTier() == Tier::kAvx2) {
    return kAvx2Table;
  }
  return kScalarTable;
#elif defined(SMFL_SIMD_NEON)
  return kNeonTable;
#else
  return kScalarTable;
#endif
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

Tier HardwareTier() {
#if defined(SMFL_SIMD_X86)
  static const Tier tier =
      __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kScalar;
  return tier;
#elif defined(SMFL_SIMD_NEON)
  return Tier::kNeon;
#else
  return Tier::kScalar;
#endif
}

Tier ActiveTier() { return Active().tier; }

ScopedSimd::ScopedSimd(int mode) : saved_(tls_scalar) {
  tls_scalar = mode == 0;
}

ScopedSimd::~ScopedSimd() { tls_scalar = saved_; }

const Kernels& Active() { return tls_scalar ? kScalarTable : HardwareTable(); }

void PackRowPanel(const double* b, Index ldb, Index nrows, Index k,
                  double* panel) {
  if (k <= 0) {
    return;
  }
  if (nrows >= kPanelWidth) {
    for (Index p = 0; p < k; ++p) {
      double* prow = panel + p * kPanelWidth;
      for (Index l = 0; l < kPanelWidth; ++l) {
        prow[l] = b[l * ldb + p];
      }
    }
    return;
  }
  for (Index p = 0; p < k; ++p) {
    double* prow = panel + p * kPanelWidth;
    for (Index l = 0; l < nrows; ++l) {
      prow[l] = b[l * ldb + p];
    }
    for (Index l = nrows; l < kPanelWidth; ++l) {
      prow[l] = 0.0;
    }
  }
}

void PackTransposed(const double* v, Index k, Index m, double* vt) {
  const Index kp = PaddedWidth(k);
  for (Index j = 0; j < m; ++j) {
    double* col = vt + j * kp;
    for (Index l = 0; l < k; ++l) col[l] = v[l * m + j];
    for (Index l = k; l < kp; ++l) col[l] = 0.0;
  }
}

void PackRowsPadded(const double* v, Index k, Index m, double* vp) {
  const Index mp = PaddedWidth(m);
  for (Index p = 0; p < k; ++p) {
    std::copy(v + p * m, v + p * m + m, vp + p * mp);
    std::fill(vp + p * mp + m, vp + p * mp + mp, 0.0);
  }
}

}  // namespace smfl::la::simd
