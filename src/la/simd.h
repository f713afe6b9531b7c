// Vectorized microkernels behind one-time runtime CPU dispatch — the raw
// inner loops under la::MatMul / MatMulAtB / MatMulABt, the SMFL fit
// loop's two per-iteration passes, data::MaskedReconstruct and the
// fold-in solve. The table: axpy, dot_panel, masked_dot_cols, the
// register-resident fit kernels u_step_rows (the row pass: R_Ω(UV), its
// squared error, and Formula 13 or its gradient step, one row at a time),
// v_step_cols (Formula 14 or its gradient step over a range of columns),
// uv_row (one row of U V with every accumulator in registers) and
// laplacian_edges (the objective's Tr(UᵀLU) over a range of graph edges),
// and the serving kernel fold_in_rows (the fold-in solve of core::FoldIn,
// a row per vector lane).
//
// DETERMINISM CONTRACT. Every tier (scalar, AVX2, NEON) computes every
// output element with the IDENTICAL sequence of IEEE-754 operations: the
// same ascending-k mul-then-add chain the serial code has always used.
// Vectorization happens ONLY across independent output elements (a vector
// lane per output column, per rank entry of an output row or column, per
// cell, per edge, or per fresh row of a fold-in solve), never within one
// element's reduction — no horizontal sums, no FMA contraction (the build pins
// -ffp-contract=off), no reassociation.
// SIMD-on, SIMD-off, and any thread count therefore produce byte-identical
// results; tests/simd_kernel_test.cc and tests/kernel_equivalence_test.cc
// enforce this bit for bit.
//
// Dispatch resolution: the CPU probe picks the tier once per process —
// AVX2 (x86 cpuid) or NEON (aarch64), else scalar; scalar is always
// present. simd::ScopedSimd(0) pins the scalar tier on the calling thread,
// which is how the equivalence tests and bench_kernels run both tiers in
// one process.
//
// Callers fetch the kernel table ONCE per operation on the calling thread
// (`const simd::Kernels& k = simd::Active();`) and capture it into any
// ParallelFor body, so a pin set by the caller governs the pool workers
// executing its chunks.
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

// Tier the next Active() call on this thread resolves to (a ScopedSimd
// pin applied).
[[nodiscard]] Tier ActiveTier();

// RAII thread-local tier pin: mode 0 pins the scalar tier, any other mode
// the probed one. The innermost live pin on a thread wins.
class ScopedSimd {
 public:
  explicit ScopedSimd(int mode);
  ~ScopedSimd();

  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool saved_;
};

// Output columns processed per microkernel block. Panel buffers passed to
// dot_panel must hold kPanelWidth * max(k, 1) doubles.
inline constexpr Index kPanelWidth = 8;

// Lanes of one register block in the fit kernels (the AVX2 width). Their
// packed operands pad each K-wide row of V-transpose, and each row of V,
// to a multiple of it with zeros, so every vector load of a packed operand
// stays inside it; rows of U and V themselves are read and written only
// up to their true width.
inline constexpr Index kLaneWidth = 4;

// n rounded up to a multiple of kLaneWidth.
[[nodiscard]] constexpr Index PaddedWidth(Index n) {
  return (n + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
}

// One row pass of the SMFL fit (core/smfl.cc) over rows [r0, r1): for each
// row i, (U V)_ij at its observed cells, the row's squared error
// Σ_j (x_ij − (U V)_ij)² over them, and the U step from those values —
// Formula 13,
//   u_i ← u_i ⊙ (R_Ω(X)_i Vᵀ + λ (D U)_i) / max(R_Ω(UV)_i Vᵀ + λ d_i u_i, ε),
// or the projected-gradient step
//   u_i ← max(0, u_i + 2θ ((R_Ω(X)_i − R_Ω(UV)_i) Vᵀ − λ (d_i u_i − (D U)_i))).
// Row i's observed cells are cols[row_ptr[i] .. row_ptr[i + 1]) with the
// packed observed values x at the same positions; its graph neighbours are
// nbr[nbr_ptr[i] .. nbr_ptr[i + 1]) with weights nbr_w and degree
// d_i = degree[i] (read only when lambda > 0). V comes packed in both
// layouts the pass reads.
struct UStep {
  Index k = 0;                    // rank
  Index m = 0;                    // columns of X and V
  const double* vt = nullptr;     // V transposed, m × PaddedWidth(k)
  const double* vp = nullptr;     // V, k × PaddedWidth(m) (PackRowsPadded)
  bool skip_zeros = false;        // V holds a non-finite entry
  const Index* row_ptr = nullptr;
  const Index* cols = nullptr;
  const double* x = nullptr;
  const double* u = nullptr;      // U, n × k
  const Index* nbr_ptr = nullptr;
  const Index* nbr = nullptr;
  const double* nbr_w = nullptr;
  const double* degree = nullptr;
  double lambda = 0.0;
  double step = 0.0;              // 2θ, gradient rule only
  double div_eps = 0.0;           // the denominator floor ε
  bool multiplicative = true;
  double* u_next = nullptr;       // output rows, n × k; must not alias u
};

// One SMFL V step over free columns [c0, c1) — Formula 14,
//   v_j ← v_j ⊙ (Uᵀ R_Ω(X)_j) / max(Uᵀ R_Ω(UV)_j, ε),
// or its gradient step v_j ← max(0, v_j + 2θ (Uᵀ R_Ω(X)_j − Uᵀ R_Ω(UV)_j)).
// Column j's observed rows are rows[col_ptr[j − col_begin] ..
// col_ptr[j − col_begin + 1]) (ascending) with packed values x; each
// reconstructed (U V)_pj reads V's column j from vt.
struct VStep {
  Index k = 0;                    // rank
  Index m = 0;                    // columns of v
  const double* u = nullptr;      // U, n × k
  const double* vt = nullptr;     // V before this step, m × PaddedWidth(k)
  Index col_begin = 0;
  const Index* col_ptr = nullptr;
  const Index* rows = nullptr;
  const double* x = nullptr;
  double step = 0.0;
  double div_eps = 0.0;
  bool multiplicative = true;
  double* v = nullptr;            // V, k × m; column j is written
};

// The edges of the spatial regularizer Tr(UᵀLU) = Σ_{i<j} d_ij ||u_i − u_j||²
// (spatial::NeighborGraph::LaplacianQuadraticForm): upper-triangle edge e
// joins rows from[e] and targets[edge[e]] with weight weights[edge[e]],
// edge[e] being its position in the graph's CSR arrays.
struct LaplacianEdges {
  Index k = 0;                     // rank
  const double* u = nullptr;       // U, n × k
  const Index* from = nullptr;
  const Index* edge = nullptr;
  const Index* targets = nullptr;  // the CSR targets
  const double* weights = nullptr;  // the CSR weights
};

// One fresh row of the fold-in solve (core/fold_in.cc): the single-row
// Formula 13 without graph terms against the frozen V restricted to the
// row's usable observed columns cols[0 .. nt),
//   num_c = Σ_t x_t v_ct, then per iteration r_t = Σ_c u_c v_ct,
//   err = Σ_t (x_t − r_t)², a stop when prev − err < tol · max(prev,
//   1e-300), else u_c ← u_c · (num_c / max(Σ_t r_t v_ct, ε)),
// with x_t = x[cols[t]]. V's observed columns come packed (once per
// observed-column pattern, shared by the pattern's rows).
struct FoldInRow {
  Index nt = 0;                    // usable observed columns, >= 1
  const Index* cols = nullptr;     // ascending
  const double* x = nullptr;       // the batch row; only x[cols[t]] is read
  // k × PaddedWidth(nt), zero padded: v_cols[c · PaddedWidth(nt) + t] =
  // v_c,cols[t].
  const double* v_cols = nullptr;
  double* u = nullptr;             // k entries: the start in, the solve out
  int iterations = 0;              // out: multiplicative updates applied
};

// The options every row of one fold-in solve shares.
struct FoldInSolve {
  Index k = 0;                     // rank
  int max_iterations = 0;
  double tolerance = 0.0;
  double div_eps = 0.0;            // the denominator floor ε
};

// Doubles of work space one fold_in_rows call needs when its widest row
// has nt observed columns: the rows of a lane group (kLaneWidth of them)
// packed lane-interleaved — their V columns, x_t, r_t, u and num.
[[nodiscard]] constexpr Index FoldInWorkSize(Index k, Index nt) {
  return kLaneWidth * (nt * k + 2 * nt + 2 * k);
}

// One dispatch table. Every function preserves the exact scalar
// per-element operation order (see the file comment).
struct Kernels {
  Tier tier;

  // y[j] += a * x[j] for j in [0, n), ascending — the shared inner loop of
  // MatMul / MatMulAtB.
  void (*axpy)(Index n, double a, const double* x, double* y);

  // out[l] = sum_p a[p] * panel[p * kPanelWidth + l] for l in [0, lanes),
  // each lane an independent ascending-p mul/add chain (no horizontal
  // reduction). `panel` is packed by PackRowPanel; writes exactly `lanes`
  // doubles to `out`. Powers MatMulABt.
  void (*dot_panel)(Index k, const double* a, const double* panel,
                    Index lanes, double* out);

  // out[c] = sum_l u[l] * vt[cols[c] * PaddedWidth(k) + l] for c in
  // [0, ncols): one row of U V at its observed columns, packed in `cols`
  // order, from V transposed (PackTransposed). Each entry is the
  // ascending-l chain from +0.0; with skip_zeros the terms with u[l] == 0
  // are skipped (needed only when V holds a non-finite entry, as in
  // uv_row). Four cells at a time — on AVX2 four to a vector, their
  // columns of Vᵀ transposed 4×4 in registers. Powers the sparse rows of
  // the row pass and of data::MaskedReconstruct.
  void (*masked_dot_cols)(Index k, const double* vt, const double* u,
                          const Index* cols, Index ncols, bool skip_zeros,
                          double* out);

  // The row pass over rows [r0, r1) (see UStep); returns their squared
  // error. It walks one row at a time: first the row's observed cells of
  // U V into a row-sized scratch of the calling thread — its whole padded
  // row on uv_row's chains when `observed * dense_crossover >= m`
  // (on AVX2 up to 32 columns per register block, every accumulator in
  // registers across the rank), else its cells through masked_dot_cols —
  // then that row's U step from them. Each reconstructed (U V)_ij is the
  // ascending-l chain from +0.0 (skipping u_il == 0 under skip_zeros), so
  // the path a row takes never changes a bit. Per output entry u_il the
  // step's chains are those of the dense formula restricted to Ω: num and
  // den sum the row's observed cells in ascending column order from +0.0,
  // (D U)_il sums the neighbour rows from +0.0 in adjacency order, then
  // num + (D U)_il·λ, den + (d_i·u_il)·λ and the epilogue. The vector
  // lanes are the K entries of the row (up to four 4-lane registers per
  // pass; a rank above 16 takes more passes), every accumulator in
  // registers across the row's cells and edges. The squared error is
  // data::MaskedSquaredError's: each row's cells ascending from +0.0 (the
  // AVX2 step sums it beside its num and den), the row sums in row order
  // from +0.0 within a block of 64 rows from r0, then the block sums in
  // order.
  double (*u_step_rows)(const UStep& s, Index r0, Index r1);

  // The V step over free columns [c0, c1) (see VStep). For each observed
  // row p of column j, ascending: (U V)_pj as the ascending-l chain from
  // +0.0, skipping u_pl == 0 when V's column has a non-finite entry; then
  // num_l += u_pl·x_pj and den_l += u_pl·(U V)_pj, skipping u_pl == 0 when
  // (U V)_pj is not finite. Vector lanes are the K entries of the column;
  // num and den stay in registers across the column's rows. The AVX2 tier
  // loads four observed rows' registers once; when one pass holds the
  // whole rank it builds their (U V)_pj in one vector from those
  // registers, transposed 4×4, and, when all four are finite (one test per
  // group), broadcasts each row's lane in registers to feed num and den
  // from the same registers; a group with a non-finite (U V)_pj masks the
  // zero terms lane by lane (a column with a non-finite V entry, or a
  // rank above 16, keeps the scalar zero-skipping chains for (U V)_pj).
  void (*v_step_cols)(const VStep& s, Index c0, Index c1);

  // r[j] = sum_p u[p] * v[p * mp + j] for j in [0, mp): one row of U V,
  // each entry the ascending-p chain from +0.0. `v` is k × mp with mp a
  // multiple of kLaneWidth; with skip_zeros the terms with u[p] == 0 are
  // skipped (needed only when v holds a non-finite entry: against a finite
  // partner the skipped term is an exact ±0.0 that leaves the chain
  // unchanged). Vector lanes are output columns; the accumulators for a
  // column block (up to 32 columns on AVX2) stay in registers across p.
  // Powers the dense rows of data::MaskedReconstruct; the row pass runs
  // the same chains on its dense rows.
  void (*uv_row)(Index k, Index mp, const double* v, const double* u,
                 bool skip_zeros, double* r);

  // The fold-in solve of rows[0 .. count) (see FoldInRow), with `work`
  // holding FoldInWorkSize(k, the widest row's nt) doubles. Each row's
  // chains are those of the plain per-row loop: num_c, r_t and the
  // denominators ascending in t or c from +0.0, err ascending in t, mul
  // then add, and std::max(den, ε) before the divide. On AVX2 the vector
  // lanes are ROWS: each group of four rows is packed lane-interleaved
  // once (V's observed columns, x_t and u, zero past each row's own nt),
  // and one instruction stream runs r_t, err, the stop test, the
  // denominators and the update for all four, the update blended by a
  // live-lane mask and the iterations counted per lane. A lane's padded
  // t comes last in each of its chains and adds an exact +0.0 (its r_t
  // is masked to +0.0) to a sum that starts at +0.0 and so never holds
  // −0.0: every lane keeps its row's scalar bits and stopping iteration.
  void (*fold_in_rows)(const FoldInSolve& s, FoldInRow* rows, Index count,
                       double* work);

  // Σ_e d_e·||u_from − u_to||² over edges [e0, e1) (see LaplacianEdges),
  // from +0.0 in edge order. Each squared distance is the ascending-column
  // chain from +0.0. The edges go in groups of four whose chains run side
  // by side — on AVX2 a vector lane per edge: the four rows' squared
  // differences, four columns at a time, transposed 4×4 — and each group's
  // weighted terms join the sum in edge order; the 0–3 edges after the
  // last group follow one at a time. NeighborGraph::LaplacianQuadraticForm
  // calls it once per 64-vertex chunk.
  double (*laplacian_edges)(const LaplacianEdges& g, Index e0, Index e1);

  // Measured dense/per-cell crossover of every masked reconstruction —
  // the row pass and data::MaskedReconstruct: a row takes the dense path
  // (the full padded row on uv_row's chains, then its observed entries)
  // when `observed * dense_crossover >= m`, and masked_dot_cols below
  // that, so sparse rows of wide tables stay per-cell. Per tier because
  // the two paths vectorize differently (table in docs/performance.md
  // "Two passes per iteration"). Both paths produce bitwise-identical
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

// Packs row-major `v` (k × m) transposed into `vt` (m × PaddedWidth(k)):
// vt[j * PaddedWidth(k) + l] = v[l * m + j], lanes [k, PaddedWidth(k))
// zero. The layout UStep and VStep read. Pure data movement.
void PackTransposed(const double* v, Index k, Index m, double* vt);

// Copies row-major `v` (k × m) into `vp` (k × PaddedWidth(m)) with zero
// padding columns — the layout uv_row reads. Pure data movement.
void PackRowsPadded(const double* v, Index k, Index m, double* vp);

}  // namespace smfl::la::simd

#endif  // SMFL_LA_SIMD_H_
