// Vectorized microkernels behind one-time runtime CPU dispatch — the raw
// inner loops under la::MatMul / MatMulAtB / MatMulABt, the Ω-sparse SMFL
// U update, and the fused data::MaskedReconstruct / MaskedSquaredError
// paths. The table: axpy, dot_panel, dot_panel_cols (index-list
// dot_panel), masked_dot_cols, sq_diff.
//
// DETERMINISM CONTRACT. Every tier (scalar, AVX2, NEON) computes every
// output element with the IDENTICAL sequence of IEEE-754 operations: the
// same ascending-k mul-then-add chain the serial code has always used.
// Vectorization happens ONLY across independent output elements (a vector
// lane per output column), never within one element's reduction — no
// horizontal sums, no FMA contraction (the build pins -ffp-contract=off),
// no reassociation. SIMD-on, SIMD-off, and any thread count therefore
// produce byte-identical results; tests/simd_kernel_test.cc and
// tests/kernel_equivalence_test.cc enforce this bit for bit.
//
// Dispatch resolution, strongest first (mirrors the threading layer):
//   1. simd::ScopedSimd          — thread-local RAII override; this is what
//                                  `options.simd` in SmflOptions uses.
//   2. simd::SetEnabled(bool)    — process-wide; the CLI's `--simd` flag.
//   3. SMFL_SIMD env             — "0"/"off"/"false" pins scalar; read once.
//   4. CPU probe                 — AVX2 (x86 cpuid) or NEON (aarch64),
//                                  else scalar. Scalar is always present.
//
// Callers fetch the kernel table ONCE per operation on the calling thread
// (`const simd::Kernels& k = simd::Active();`) and capture it into any
// ParallelFor body, so a thread-local override set by the caller governs
// the pool workers executing its chunks.
//
// Raw intrinsics are allowed ONLY in src/la/simd.cc — smfl_lint rule
// `raw-simd` rejects <immintrin.h>/<arm_neon.h> and _mm*/v*q_f64 tokens
// anywhere else, keeping the dispatch (and the determinism reasoning
// above) centralized in one file.

#ifndef SMFL_LA_SIMD_H_
#define SMFL_LA_SIMD_H_

#include <cstddef>

namespace smfl::la::simd {

using Index = std::ptrdiff_t;

enum class Tier {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

// Human-readable tier name ("scalar", "avx2", "neon").
[[nodiscard]] const char* TierName(Tier tier);

// Widest tier this CPU supports, probed once per process.
[[nodiscard]] Tier HardwareTier();

// Tier the next Active() call on this thread resolves to (overrides and
// the SMFL_SIMD pin applied).
[[nodiscard]] Tier ActiveTier();

// True when vector kernels are eligible (before the hardware probe is
// consulted): ScopedSimd override if set, else the process-wide setting.
[[nodiscard]] bool Enabled();

// Process-wide switch. SetEnabled(true) cannot override an SMFL_SIMD=0
// environment pin (mirrors SMFL_TELEMETRY=0): a run pinned scalar for
// reproduction stays scalar no matter what flags later ask for.
void SetEnabled(bool enabled);

// RAII thread-local override for a single fit: mode 1 forces vector
// kernels (when the hardware has them), 0 forces scalar, -1 inherits the
// process setting (no-op). Used by `options.simd` in SmflOptions.
class ScopedSimd {
 public:
  explicit ScopedSimd(int mode);
  ~ScopedSimd();

  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  int saved_;
  bool active_;
};

// Pure parser for the SMFL_SIMD environment value: returns false (pinned
// off) for "0", "off", "false"; true otherwise (including null/empty).
// Exposed for unit tests; the env itself is read once at first use.
[[nodiscard]] bool SimdEnvValueEnabled(const char* value);

// Output columns processed per microkernel block. Panel buffers passed to
// dot_panel must hold kPanelWidth * max(k, 1) doubles.
inline constexpr Index kPanelWidth = 8;

// One dispatch table. Every function preserves the exact scalar
// per-element operation order (see the file comment).
struct Kernels {
  Tier tier;

  // y[j] += a * x[j] for j in [0, n), ascending — the shared inner loop of
  // MatMul / MatMulAtB / dense MaskedReconstruct.
  void (*axpy)(Index n, double a, const double* x, double* y);

  // out[l] = sum_p a[p] * panel[p * kPanelWidth + l] for l in [0, lanes),
  // each lane an independent ascending-p mul/add chain (no horizontal
  // reduction). `panel` is packed by PackRowPanel; writes exactly `lanes`
  // doubles to `out`. Powers MatMulABt.
  void (*dot_panel)(Index k, const double* a, const double* panel,
                    Index lanes, double* out);

  // out[l] = sum_c a[c] * panel[cols[c] * kPanelWidth + l] for l in
  // [0, lanes): dot_panel restricted to the panel rows listed in `cols`,
  // each lane an independent ascending-c mul/add chain. With `cols` the
  // observed columns of one data row and `a` that row's packed values, it
  // is the Ω-sparse form of one MatMulABt output row — bitwise equal to
  // dot_panel over the zero-filled row when the panel is finite: each
  // skipped term is then an exact ±0.0 added to a chain that starts at
  // +0.0 and so never holds −0.0. Powers the SMFL U update (core/smfl.cc).
  void (*dot_panel_cols)(Index n, const double* a, const Index* cols,
                         const double* panel, Index lanes, double* out);

  // orow[cols[c]] = sum_p u[p] * v[p * m + cols[c]] for c in [0, ncols),
  // with the exact-zero skip on u[p] the scalar sparse path has always
  // had. Powers the sparse-row path of MaskedReconstruct.
  void (*masked_dot_cols)(Index k, Index m, const double* u, const double* v,
                          const Index* cols, Index ncols, double* orow);

  // out[j] = (x[j] - r[j])^2 for j in [0, n) — elementwise, no
  // accumulation (the caller sums in its own fixed order). Powers
  // MaskedSquaredError's dense rows.
  void (*sq_diff)(Index n, const double* x, const double* r, double* out);

  // Measured dense/gather crossover for the masked kernels' per-row path
  // choice: a row takes the dense (full-width axpy / sq_diff, then
  // restrict to Ω) path when `observed * dense_crossover >= m`, and the
  // per-column masked_dot_cols path below that. Per tier because the
  // dense path vectorizes while masked_dot_cols is the scalar per-entry
  // chain on every tier, so the break-even observed rate shifts with the
  // vector width (tools/run_bench.sh observed-rate sweep; table in
  // docs/performance.md "Sparse Ω"). Both paths produce bitwise-identical
  // entries, so the constant only moves wall-clock, never results.
  Index dense_crossover;
};

// Resolves the dispatch table for the calling thread. Fetch once per
// operation and capture into ParallelFor bodies (see file comment).
[[nodiscard]] const Kernels& Active();

// Packs up to kPanelWidth rows of row-major `b` (leading dimension `ldb`)
// into the column-interleaved panel layout dot_panel consumes:
// panel[p * kPanelWidth + l] = b[l * ldb + p]. Missing lanes
// (nrows < kPanelWidth) are zero-filled. Pure data movement — no
// floating-point arithmetic, hence no determinism concern.
void PackRowPanel(const double* b, Index ldb, Index nrows, Index k,
                  double* panel);

}  // namespace smfl::la::simd

#endif  // SMFL_LA_SIMD_H_
