// The only translation unit in the tree allowed to touch raw SIMD
// intrinsics (smfl_lint rule `raw-simd` enforces this). Every vector
// kernel below preserves the scalar per-output-element operation order —
// see the contract in simd.h — by using separate mul and add intrinsics
// (never fused multiply-add) and by never reducing across a vector
// register. The build additionally pins -ffp-contract=off so no tier can
// be contracted behind our back.

#include "src/la/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

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

void DotPanelColsScalar(Index n, const double* a, const Index* cols,
                        const double* panel, Index lanes, double* out) {
  // dot_panel's lane chains, walking only the listed panel rows.
  double acc[kPanelWidth] = {};
  for (Index c = 0; c < n; ++c) {
    const double ac = a[c];
    const double* prow = panel + cols[c] * kPanelWidth;
    for (Index l = 0; l < kPanelWidth; ++l) {
      acc[l] += ac * prow[l];
    }
  }
  for (Index l = 0; l < lanes; ++l) {
    out[l] = acc[l];
  }
}

void MaskedDotColsScalar(Index k, Index m, const double* u, const double* v,
                         const Index* cols, Index ncols, double* orow) {
  for (Index c = 0; c < ncols; ++c) {
    const Index j = cols[c];
    double acc = 0.0;
    for (Index p = 0; p < k; ++p) {
      const double up = u[p];
      if (up == 0.0) {  // smfl-lint: allow(float-eq) exact zero-skip, mirrors the historical sparse path
        continue;
      }
      acc += up * v[p * m + j];
    }
    orow[j] = acc;
  }
}

void SqDiffScalar(Index n, const double* x, const double* r, double* out) {
  for (Index j = 0; j < n; ++j) {
    const double d = x[j] - r[j];
    out[j] = d * d;
  }
}

// Scalar crossover 1/4: below 25% observed the per-entry dots beat the
// full-width axpy+restrict pass (the historical `observed * 4 >= m`,
// confirmed by the BENCH_PR8 observed-rate sweep).
constexpr Kernels kScalarTable{Tier::kScalar, AxpyScalar, DotPanelScalar,
                               DotPanelColsScalar, MaskedDotColsScalar,
                               SqDiffScalar, 4};

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

__attribute__((target("avx2"))) void DotPanelColsAvx2(
    Index n, const double* a, const Index* cols, const double* panel,
    Index lanes, double* out) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (Index c = 0; c < n; ++c) {
    const __m256d ac = _mm256_set1_pd(a[c]);
    const double* prow = panel + cols[c] * kPanelWidth;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(ac, _mm256_loadu_pd(prow)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(ac, _mm256_loadu_pd(prow + 4)));
  }
  double lane[kPanelWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (Index l = 0; l < lanes; ++l) {
    out[l] = lane[l];
  }
}

// No AVX2 masked_dot_cols: the _mm256_i64gather_pd kernel that lived here
// through PR 7 measured 0.85× the scalar per-entry dots at 10% observed
// (BENCH_PR7.json) — hardware gathers are slow on the server Xeons this
// repo benches on, and the strided column reads defeat the vector win.
// The AVX2 table routes sparse rows to MaskedDotColsScalar instead and
// compensates with an earlier dense crossover (see kAvx2Table).

__attribute__((target("avx2"))) void SqDiffAvx2(Index n, const double* x,
                                                const double* r, double* out) {
  Index j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + j),
                                    _mm256_loadu_pd(r + j));
    _mm256_storeu_pd(out + j, _mm256_mul_pd(d, d));
  }
  for (; j < n; ++j) {
    const double d = x[j] - r[j];
    out[j] = d * d;
  }
}

// AVX2 crossover 1/5: the 4-wide axpy pass makes the dense path ~1.7×
// cheaper than scalar dense, so it overtakes the (scalar) per-entry dots
// at ~20% observed rather than 25% (BENCH_PR8 observed-rate sweep).
constexpr Kernels kAvx2Table{Tier::kAvx2, AxpyAvx2, DotPanelAvx2,
                             DotPanelColsAvx2, MaskedDotColsScalar,
                             SqDiffAvx2, 5};

#endif  // SMFL_SIMD_X86

// ---------------------------------------------------------------------------
// NEON tier (aarch64). NEON is mandatory on aarch64 so there is no runtime
// probe — the compile-time gate is the dispatch. No gather instruction
// exists, so masked_dot_cols stays on the (already order-identical) scalar
// routine.
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

void DotPanelColsNeon(Index n, const double* a, const Index* cols,
                      const double* panel, Index lanes, double* out) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  for (Index c = 0; c < n; ++c) {
    const float64x2_t ac = vdupq_n_f64(a[c]);
    const double* prow = panel + cols[c] * kPanelWidth;
    acc0 = vaddq_f64(acc0, vmulq_f64(ac, vld1q_f64(prow)));
    acc1 = vaddq_f64(acc1, vmulq_f64(ac, vld1q_f64(prow + 2)));
    acc2 = vaddq_f64(acc2, vmulq_f64(ac, vld1q_f64(prow + 4)));
    acc3 = vaddq_f64(acc3, vmulq_f64(ac, vld1q_f64(prow + 6)));
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

void SqDiffNeon(Index n, const double* x, const double* r, double* out) {
  Index j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(x + j), vld1q_f64(r + j));
    vst1q_f64(out + j, vmulq_f64(d, d));
  }
  for (; j < n; ++j) {
    const double d = x[j] - r[j];
    out[j] = d * d;
  }
}

// NEON crossover 1/5: like AVX2, sparse rows run the scalar dots while the
// dense path runs 2-wide — break-even sits below the scalar tier's 1/4.
constexpr Kernels kNeonTable{Tier::kNeon, AxpyNeon, DotPanelNeon,
                             DotPanelColsNeon, MaskedDotColsScalar,
                             SqDiffNeon, 5};

#endif  // SMFL_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

std::atomic<bool> g_process_enabled{true};

// -1 inherit the process setting, 0 force scalar, 1 force vector.
thread_local int tls_simd_mode = -1;

bool EnvPinEnabled() {
  static const bool enabled = SimdEnvValueEnabled(std::getenv("SMFL_SIMD"));
  return enabled;
}

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

bool Enabled() {
  if (tls_simd_mode == 0) {
    return false;
  }
  if (tls_simd_mode == 1) {
    return true;
  }
  // The env pin is ANDed in, so SetEnabled(true) cannot unpin a run that
  // exported SMFL_SIMD=0 for reproduction.
  return g_process_enabled.load(std::memory_order_relaxed) && EnvPinEnabled();
}

void SetEnabled(bool enabled) {
  g_process_enabled.store(enabled, std::memory_order_relaxed);
}

Tier ActiveTier() { return Active().tier; }

ScopedSimd::ScopedSimd(int mode) : saved_(tls_simd_mode), active_(mode >= 0) {
  if (active_) {
    tls_simd_mode = mode > 0 ? 1 : 0;
  }
}

ScopedSimd::~ScopedSimd() {
  if (active_) {
    tls_simd_mode = saved_;
  }
}

bool SimdEnvValueEnabled(const char* value) {
  if (value == nullptr || value[0] == '\0') {
    return true;
  }
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0 &&
         std::strcmp(value, "OFF") != 0 && std::strcmp(value, "false") != 0 &&
         std::strcmp(value, "FALSE") != 0;
}

const Kernels& Active() {
  if (!Enabled()) {
    return kScalarTable;
  }
  return HardwareTable();
}

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

}  // namespace smfl::la::simd
