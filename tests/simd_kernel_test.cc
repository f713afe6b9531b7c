// Bitwise-equivalence contract of the SIMD dispatch layer (src/la/simd.*):
// every dispatched microkernel and every op built on them must produce
// byte-identical results with vector kernels forced on vs pinned to the
// scalar tier, at any thread count — including remainder lanes (n % 4,
// n % 8), empty inputs, and 1x1 shapes. Full SMFL/SMF/NMF fits, under
// both update rules, must serialize to byte-identical model files and
// bit-identical U with the scalar tier pinned (ScopedSimd(0)) and on the
// probed tier x threads {1, 4} x multiple seeds (the acceptance bar of the
// dispatch layer). On hosts
// whose probe resolves to the scalar tier these tests still run — both
// sides execute the same table, so they degrade to self-consistency.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/model_io.h"
#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/mask.h"
#include "src/data/normalize.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/la/simd.h"

namespace smfl {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;
namespace simd = la::simd;

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed,
                    double zero_rate = 0.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index i = 0; i < m.size(); ++i) {
    const double v = rng.Uniform(-1.0, 1.0);
    m.data()[i] = (zero_rate > 0.0 && rng.Uniform() < zero_rate) ? 0.0 : v;
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

// Runs `fn` with the vector tier forced on and with scalar pinned, and
// asserts byte-identical Matrix results.
template <typename Fn>
void ExpectSimdInvariant(const Fn& fn, const std::string& label) {
  Matrix vec, scalar;
  {
    simd::ScopedSimd on(1);
    vec = fn();
  }
  {
    simd::ScopedSimd off(0);
    scalar = fn();
  }
  ExpectBitwiseEqual(vec, scalar, label + " (simd on vs off)");
}

// --------------------------------------------------------------------------
// Dispatch plumbing

TEST(SimdDispatchTest, TierNames) {
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::TierName(simd::Tier::kNeon), "neon");
}

TEST(SimdDispatchTest, ScopedOverrideForcesScalarAndRestores) {
  const simd::Tier ambient = simd::ActiveTier();
  {
    simd::ScopedSimd off(0);
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
    EXPECT_EQ(simd::Active().tier, simd::Tier::kScalar);
    {
      simd::ScopedSimd on(1);  // nesting: innermost wins
      EXPECT_EQ(simd::ActiveTier(), simd::HardwareTier());
    }
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  }
  EXPECT_EQ(simd::ActiveTier(), ambient);
}

TEST(SimdDispatchTest, ActiveTableMatchesTier) {
  simd::ScopedSimd on(1);
  EXPECT_EQ(simd::Active().tier, simd::HardwareTier());
}

// --------------------------------------------------------------------------
// Raw microkernels: vector tier vs scalar tier, element for element.
// Sizes cover every remainder class of the 4-wide (AVX2) and 2-wide
// (NEON) loops plus empty and single-element inputs.

const Index kEdgeSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100};

TEST(SimdKernelTest, AxpyMatchesScalarTier) {
  for (const Index n : kEdgeSizes) {
    const Matrix x = RandomMatrix(1, std::max<Index>(n, 1), 11);
    Matrix y_vec = RandomMatrix(1, std::max<Index>(n, 1), 12);
    Matrix y_sca = y_vec;
    {
      simd::ScopedSimd on(1);
      simd::Active().axpy(n, 0.37, x.data(), y_vec.data());
    }
    {
      simd::ScopedSimd off(0);
      simd::Active().axpy(n, 0.37, x.data(), y_sca.data());
    }
    ExpectBitwiseEqual(y_vec, y_sca, "axpy n=" + std::to_string(n));
  }
}

TEST(SimdKernelTest, DotPanelMatchesScalarTier) {
  for (const Index k : kEdgeSizes) {
    for (const Index lanes :
         {Index{1}, Index{3}, Index{5}, simd::kPanelWidth}) {
      const Matrix a = RandomMatrix(1, std::max<Index>(k, 1), 21, 0.2);
      const Matrix b = RandomMatrix(std::max<Index>(lanes, 1),
                                    std::max<Index>(k, 1), 22);
      std::vector<double> panel(
          static_cast<size_t>(simd::kPanelWidth * std::max<Index>(k, 1)));
      simd::PackRowPanel(b.data(), k, lanes, k, panel.data());
      std::vector<double> out_vec(static_cast<size_t>(lanes), -1.0);
      std::vector<double> out_sca(static_cast<size_t>(lanes), -2.0);
      {
        simd::ScopedSimd on(1);
        simd::Active().dot_panel(k, a.data(), panel.data(), lanes,
                                 out_vec.data());
      }
      {
        simd::ScopedSimd off(0);
        simd::Active().dot_panel(k, a.data(), panel.data(), lanes,
                                 out_sca.data());
      }
      for (Index l = 0; l < lanes; ++l) {
        ASSERT_EQ(out_vec[static_cast<size_t>(l)],
                  out_sca[static_cast<size_t>(l)])
            << "dot_panel k=" << k << " lanes=" << lanes << " lane " << l;
      }
    }
  }
}

// --------------------------------------------------------------------------
// The fit kernels (u_step_rows, v_step_cols, uv_row): vector tier vs
// scalar tier over every rank K in 1..17 (one to four 4-lane registers,
// lane tails, and a second 16-lane pass) and every width m in 1..33.

constexpr double kInf = std::numeric_limits<double>::infinity();

// Identical bits, or NaN on both sides (which NaN operand a tier
// propagates when two meet is not part of the contract).
bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameBits(a[i], b[i]))
        << label << " index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// One row pass on both tiers at rank k and width m: n = 12 rows — row 1
// unobserved, row 4 fully observed, row 5 with one cell, row 7 with two,
// row 3 with about m/3 (the masked_dot_cols path on the scalar tier, the
// dense path on AVX2), rows 9 and 10 at the smallest cell count that
// takes the dense path on the vector and on the scalar tier (exactly
// `observed · dense_crossover == m` when the crossover divides m), row 11
// one cell below the vector tier's, the rest about half — U with exact
// zeros, a graph in which row 2 is isolated, and, unless finite_v, an
// infinite V entry, so reconstructed cells are infinite or, without the
// zero-skip, NaN. The returned squared error and U_next must match bit for
// bit; against a finite V the zero-skip must not change a bit either.
void ExpectRowPassMatchesScalarTier(Index k, Index m, bool finite_v) {
  constexpr Index n = 12;
  const auto crossover = [](int mode) {
    simd::ScopedSimd tier(mode);
    return simd::Active().dense_crossover;
  };
  const auto dense_min = [&](int mode) {
    return (m + crossover(mode) - 1) / crossover(mode);
  };
  const Index row_cells[3] = {dense_min(1), dense_min(0), dense_min(1) - 1};
  const auto seed = static_cast<uint64_t>(k * 100 + m);
  Rng rng(seed);
  const Matrix u = RandomMatrix(n, k, seed + 1, 0.25);
  Matrix v = RandomMatrix(k, m, seed + 2, 0.1);
  if (!finite_v) v(k - 1, m - 1) = kInf;
  std::vector<Index> row_ptr{0}, cols;
  std::vector<double> x;
  for (Index i = 0; i < n; ++i) {
    Index taken = 0;
    for (Index j = 0; j < m; ++j) {
      bool keep = rng.Uniform() < 0.5;
      if (i == 1) keep = false;
      if (i == 4) keep = true;
      if (i == 5 || i == 7) {
        keep = taken < (i == 5 ? 1 : 2) && (j % 3 == 1 || j == m - 1);
      }
      if (i == 3) keep = j % 3 == 2;
      // The first cells of every other column, then the last columns.
      if (i >= 9) {
        const Index want = row_cells[i - 9];
        keep = taken < want && (j % 2 == 0 || m - j <= want - taken);
      }
      if (!keep) continue;
      ++taken;
      cols.push_back(j);
      x.push_back(rng.Uniform());
    }
    row_ptr.push_back(static_cast<Index>(cols.size()));
  }
  // Row i's neighbours (i + 1) % n and (i + 3) % n; row 2 isolated.
  std::vector<Index> nbr_ptr{0}, nbr;
  std::vector<double> nbr_w, degree;
  for (Index i = 0; i < n; ++i) {
    double d = 0.0;
    if (i != 2) {
      for (const Index to : {(i + 1) % n, (i + 3) % n}) {
        nbr.push_back(to);
        nbr_w.push_back(rng.Uniform(0.1, 1.0));
        d += nbr_w.back();
      }
    }
    nbr_ptr.push_back(static_cast<Index>(nbr.size()));
    degree.push_back(d);
  }
  std::vector<double> vt(static_cast<size_t>(m * simd::PaddedWidth(k)));
  std::vector<double> vp(static_cast<size_t>(k * simd::PaddedWidth(m)));
  simd::PackTransposed(v.data(), k, m, vt.data());
  simd::PackRowsPadded(v.data(), k, m, vp.data());
  for (const bool multiplicative : {true, false}) {
    for (const double lambda : {0.0, 0.5}) {
      simd::UStep step;
      step.k = k;
      step.m = m;
      step.vt = vt.data();
      step.vp = vp.data();
      step.row_ptr = row_ptr.data();
      step.cols = cols.data();
      step.x = x.data();
      step.u = u.data();
      step.nbr_ptr = nbr_ptr.data();
      step.nbr = nbr.data();
      step.nbr_w = nbr_w.data();
      step.degree = degree.data();
      step.lambda = lambda;
      step.step = 0.1;
      step.div_eps = 1e-9;
      step.multiplicative = multiplicative;
      const auto run = [&](int mode, bool skip_zeros, double* err) {
        simd::ScopedSimd tier(mode);
        std::vector<double> out(static_cast<size_t>(n * k), -1.0);
        step.skip_zeros = skip_zeros;
        step.u_next = out.data();
        *err = simd::Active().u_step_rows(step, 0, n);
        return out;
      };
      const std::string label =
          "u_step_rows k=" + std::to_string(k) + " m=" + std::to_string(m) +
          (multiplicative ? " mult" : " grad") +
          " lambda=" + std::to_string(lambda);
      for (const bool skip : {false, true}) {
        double err_vec = 0.0, err_sca = 0.0;
        const std::vector<double> out_vec = run(1, skip, &err_vec);
        const std::vector<double> out_sca = run(0, skip, &err_sca);
        const std::string run_label = label + (skip ? " skip" : "");
        ExpectSameBits(out_vec, out_sca, run_label);
        ASSERT_TRUE(SameBits(err_vec, err_sca))
            << run_label << ": " << err_vec << " vs " << err_sca;
      }
      if (finite_v) {
        double err_skip = 0.0, err_plain = 0.0;
        ExpectSameBits(run(1, true, &err_skip), run(0, false, &err_plain),
                       label + " skip vs no skip");
        ASSERT_TRUE(SameBits(err_skip, err_plain)) << label;
      }
    }
  }
}

// Every rank K in 1..17 (one to four 4-lane registers, lane tails, and a
// second 16-lane pass) at every width m in 1..33, an infinite V entry at
// every third shape; then infinite-V (zero-skip) passes on wider rows, whose
// dense rows span more than one register block of columns.
TEST(SimdKernelTest, UStepRowsMatchesScalarTier) {
  for (Index k = 1; k <= 17; ++k) {
    for (Index m = 1; m <= 33; ++m) {
      ExpectRowPassMatchesScalarTier(k, m, (k + m) % 3 != 0);
    }
  }
  for (const Index k : {Index{1}, Index{4}, Index{10}, Index{17}}) {
    for (const Index m : {Index{25}, Index{32}, Index{40}, Index{70}}) {
      ExpectRowPassMatchesScalarTier(k, m, false);
    }
  }
}

// The row pass's squared error, as the fit sums it (64-row chunks through
// ParallelReduce), is data::MaskedSquaredError's over
// data::MaskedReconstruct bit for bit on both tiers: 150 rows (three
// chunks), ranks 1…17, observed rates 5–100% at widths on both sides of
// every tier's crossover.
TEST(SimdKernelTest, RowPassSquaredErrorMatchesMaskedSquaredError) {
  constexpr Index n = 150;
  for (const Index m : {Index{7}, Index{20}, Index{33}}) {
    for (Index k = 1; k <= 17; ++k) {
      const auto seed = static_cast<uint64_t>(k * 1000 + m);
      const Matrix u = RandomMatrix(n, k, seed + 1, 0.2);
      const Matrix v = RandomMatrix(k, m, seed + 2, 0.1);
      const Matrix xm = RandomMatrix(n, m, seed + 3);
      std::vector<double> vt(static_cast<size_t>(m * simd::PaddedWidth(k)));
      std::vector<double> vp(static_cast<size_t>(k * simd::PaddedWidth(m)));
      simd::PackTransposed(v.data(), k, m, vt.data());
      simd::PackRowsPadded(v.data(), k, m, vp.data());
      for (const double rate : {0.05, 0.1, 0.3, 0.6, 1.0}) {
        const data::ObservedIndex omega = data::ObservedIndex::FromMask(
            RandomMask(n, m, seed + 4, rate), xm);
        const double expected = data::MaskedSquaredError(
            xm, omega, data::MaskedReconstruct(u, v, omega));
        const std::vector<Index> no_edges(static_cast<size_t>(n) + 1, 0);
        std::vector<double> u_next(static_cast<size_t>(n * k));
        simd::UStep step;
        step.k = k;
        step.m = m;
        step.vt = vt.data();
        step.vp = vp.data();
        step.row_ptr = omega.CsrRowPtr().data();
        step.cols = omega.CsrColIdx().data();
        step.x = omega.CsrValues().data();
        step.u = u.data();
        step.nbr_ptr = no_edges.data();
        step.div_eps = 1e-12;
        step.u_next = u_next.data();
        for (const int mode : {0, 1}) {
          simd::ScopedSimd tier(mode);
          const simd::Kernels& ker = simd::Active();
          const double err = parallel::ParallelReduce(
              0, n, 64,
              [&](Index r0, Index r1) { return ker.u_step_rows(step, r0, r1); });
          ASSERT_TRUE(SameBits(err, expected))
              << "k=" << k << " m=" << m << " rate " << rate << " simd "
              << mode << ": " << err << " vs " << expected;
        }
      }
    }
  }
}

// G_cc' = Σ_t v_c,cols[t] v_c',cols[t], ascending t from +0.0: the Gram
// matrix of V's columns `cols`, as core::FoldIn builds it.
std::vector<double> GramOf(const Matrix& v, const std::vector<Index>& cols) {
  const Index k = v.rows();
  std::vector<double> g(static_cast<size_t>(k * k));
  for (Index c = 0; c < k; ++c) {
    for (Index c2 = 0; c2 < k; ++c2) {
      double acc = 0.0;
      for (Index j : cols) acc += v(c, j) * v(c2, j);
      g[static_cast<size_t>(c * k + c2)] = acc;
    }
  }
  return g;
}

// One fold_in_rows call on the given tier: row q folds x.Row(q) over V's
// columns cols[q] (on their Gram matrix), starting from start.Row(q).
// Returns the solved u (row after row) and fills the per-row iteration
// counts.
std::vector<double> SolveFoldIn(int tier, const Matrix& v, const Matrix& x,
                                const Matrix& start,
                                const std::vector<std::vector<Index>>& cols,
                                double tolerance, int max_iterations,
                                std::vector<int>* iterations) {
  const Index k = v.rows();
  const auto count = static_cast<Index>(cols.size());
  std::vector<std::vector<double>> grams;
  for (const auto& cq : cols) grams.push_back(GramOf(v, cq));
  std::vector<double> vt(static_cast<size_t>(v.cols() * simd::PaddedWidth(k)));
  simd::PackTransposed(v.data(), k, v.cols(), vt.data());
  std::vector<double> u(start.data(), start.data() + count * k);
  std::vector<double> work(static_cast<size_t>(simd::FoldInWorkSize(k)));
  std::vector<simd::FoldInRow> rows(static_cast<size_t>(count));
  for (Index q = 0; q < count; ++q) {
    simd::FoldInRow& row = rows[static_cast<size_t>(q)];
    row.nt = static_cast<Index>(cols[static_cast<size_t>(q)].size());
    row.cols = cols[static_cast<size_t>(q)].data();
    row.x = x.Row(q).data();
    row.gram = grams[static_cast<size_t>(q)].data();
    row.u = u.data() + q * k;
  }
  simd::FoldInSolve solve;
  solve.k = k;
  solve.vt = vt.data();
  solve.max_iterations = max_iterations;
  solve.tolerance = tolerance;
  solve.div_eps = 1e-12;
  simd::ScopedSimd scoped(tier);
  simd::Active().fold_in_rows(solve, rows.data(), count, work.data());
  iterations->clear();
  for (const simd::FoldInRow& row : rows) iterations->push_back(row.iterations);
  return u;
}

// x_j = Σ_c start_c v_cj at every column j of row q: a row its start
// reproduces exactly (e₀ = +0.0), so its first update leaves u unchanged
// up to rounding and, at a positive tolerance, it stops on the first test
// after that update.
void MakeExactRow(const Matrix& v, const Matrix& start, Index q, Matrix& x) {
  for (Index j = 0; j < v.cols(); ++j) {
    double acc = 0.0;
    for (Index c = 0; c < v.rows(); ++c) acc += start(q, c) * v(c, j);
    x(q, j) = acc;
  }
}

// The fold-in solve on both tiers: six rows per call (a group of four
// plus two), each with its own pattern of nt observed columns out of
// nt + 2, so every row has its own Gram matrix. Row 0 is exact at its
// start (it stops on the tolerance at once); row 2's rank entry 0 vanishes
// on its columns (a denominator below ε); row 5 starts from zero, so its
// first update is a fixed point (Δ = 0) and it stops on the next test at
// any positive tolerance; a loose tolerance makes the rows stop at
// different iterations. Then calls of 1–4 rows of different widths (nt 1,
// 7, 16, 33 and 70), a row per lane whatever its width, with a lane that
// stops after one update next to lanes that run to the cap, at ranks up to
// 33 (beyond one register block of den' chains); once with a zero start in
// the second row and once with an infinite start entry in the first.
TEST(SimdKernelTest, FoldInRowsMatchesScalarTier) {
  constexpr Index kRows = 6;
  constexpr int kCap = 40;
  for (Index k = 1; k <= 17; ++k) {
    for (Index nt = 1; nt <= 33; ++nt) {
      const auto seed = static_cast<uint64_t>(k * 100 + nt);
      Rng rng(seed);
      const Index m = nt + 2;
      Matrix v = RandomMatrix(k, m, seed + 1);
      for (Index i = 0; i < v.size(); ++i) {
        v.data()[i] = std::fabs(v.data()[i]) + 0.01;
      }
      Matrix start = RandomMatrix(kRows, k, seed + 2);
      for (Index i = 0; i < start.size(); ++i) {
        start.data()[i] = std::fabs(start.data()[i]) + 1e-3;
      }
      for (Index c = 0; c < k; ++c) start(5, c) = 0.0;
      Matrix x(kRows, m);
      std::vector<std::vector<Index>> cols(kRows);
      for (Index q = 0; q < kRows; ++q) {
        for (Index j = 0; j < m; ++j) {
          if (j != q % m && j != (q + 2) % m) cols[q].push_back(j);
        }
        cols[q].resize(static_cast<size_t>(nt));
        if (q == 2) {
          for (Index j : cols[q]) v(0, j) = 0.0;
        }
        for (Index j = 0; j < m; ++j) x(q, j) = rng.Uniform(0.0, 1.0);
      }
      // Row 0 reproduced exactly by its (positive) start.
      MakeExactRow(v, start, 0, x);
      // At tolerance 0 a row stops on the first iteration whose error does
      // not fall, which turns on the last bits of Δ: a check on its
      // summation order.
      for (const double tolerance : {1e-8, 1e-3, 0.0}) {
        std::vector<int> it_vec, it_sca;
        const std::vector<double> u_vec =
            SolveFoldIn(1, v, x, start, cols, tolerance, kCap, &it_vec);
        const std::vector<double> u_sca =
            SolveFoldIn(0, v, x, start, cols, tolerance, kCap, &it_sca);
        const std::string label = "fold_in_rows k=" + std::to_string(k) +
                                  " nt=" + std::to_string(nt) +
                                  " tol=" + std::to_string(tolerance);
        ASSERT_EQ(it_vec, it_sca) << label;
        if (tolerance > 0.0) {
          ASSERT_LT(it_sca[0], kCap) << label;
          ASSERT_EQ(it_sca[5], 1) << label;
        }
        ExpectSameBits(u_vec, u_sca, label);
      }
    }
  }

  // Calls whose rows have different widths, as index lists into kWidths.
  constexpr Index kM = 80;
  const Index kWidths[] = {1, 7, 16, 33, 70};
  const std::vector<std::vector<int>> kCalls = {
      {0, 1, 2, 3}, {4, 0, 3}, {2, 4}, {1}, {3, 2, 1, 0, 4}, {4, 4, 0, 1}};
  bool saw_one_update_beside_cap = false;
  for (Index k : {1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 33}) {
    for (size_t call = 0; call < kCalls.size(); ++call) {
      const auto seed = static_cast<uint64_t>(k * 1000 + call);
      Rng rng(seed);
      Matrix v = RandomMatrix(k, kM, seed + 1);
      for (Index i = 0; i < v.size(); ++i) {
        v.data()[i] = std::fabs(v.data()[i]) + 0.01;
      }
      const auto count = static_cast<Index>(kCalls[call].size());
      Matrix start = RandomMatrix(count, k, seed + 2);
      for (Index i = 0; i < start.size(); ++i) {
        start.data()[i] = std::fabs(start.data()[i]) + 1e-3;
      }
      Matrix x(count, kM);
      std::vector<std::vector<Index>> cols(static_cast<size_t>(count));
      for (Index q = 0; q < count; ++q) {
        for (Index j = 0; j < kM; ++j) x(q, j) = rng.Uniform(0.0, 1.0);
        // nt distinct ascending columns, a different subset per row.
        std::vector<Index>& cq = cols[static_cast<size_t>(q)];
        const Index nt = kWidths[kCalls[call][static_cast<size_t>(q)]];
        for (Index j = 0; j < kM && static_cast<Index>(cq.size()) < nt; ++j) {
          if (rng.Uniform() < static_cast<double>(nt) / kM ||
              kM - j <= nt - static_cast<Index>(cq.size())) {
            cq.push_back(j);
          }
        }
      }
      // The second row of every call is exact at its start: it stops on
      // the first test after one update while the others run on.
      if (count > 1) MakeExactRow(v, start, 1, x);
      for (const double tolerance : {1e-8, 1e-3, 0.0}) {
        for (const int cap : {kCap, 1}) {
          std::vector<int> it_vec, it_sca;
          const std::vector<double> u_vec =
              SolveFoldIn(1, v, x, start, cols, tolerance, cap, &it_vec);
          const std::vector<double> u_sca =
              SolveFoldIn(0, v, x, start, cols, tolerance, cap, &it_sca);
          const std::string label =
              "fold_in_rows mixed widths k=" + std::to_string(k) + " call " +
              std::to_string(call) + " tol=" + std::to_string(tolerance) +
              " cap=" + std::to_string(cap);
          ASSERT_EQ(it_vec, it_sca) << label;
          ExpectSameBits(u_vec, u_sca, label);
          if (count > 1 && tolerance > 0.0 && cap == kCap) {
            ASSERT_EQ(it_sca[1], 1) << label;
            for (int it : it_sca) {
              if (it == kCap) saw_one_update_beside_cap = true;
            }
          }
        }
      }
      // The second row starts from zero instead: its first update is a
      // fixed point (Δ = 0), so it too stops after one update.
      if (count > 1) {
        Matrix zero_start = start;
        for (Index c = 0; c < k; ++c) zero_start(1, c) = 0.0;
        for (const int cap : {1, kCap}) {
          std::vector<int> it_vec, it_sca;
          const std::vector<double> u_vec =
              SolveFoldIn(1, v, x, zero_start, cols, 1e-8, cap, &it_vec);
          const std::vector<double> u_sca =
              SolveFoldIn(0, v, x, zero_start, cols, 1e-8, cap, &it_sca);
          const std::string label = "fold_in_rows zero start k=" +
                                    std::to_string(k) + " call " +
                                    std::to_string(call) +
                                    " cap=" + std::to_string(cap);
          ASSERT_EQ(it_vec, it_sca) << label;
          ASSERT_EQ(it_sca[1], 1) << label;
          ExpectSameBits(u_vec, u_sca, label);
        }
      }
      // The first row starts from an infinite entry: its e₀ and den are
      // infinite and its first update NaN, which must stay in its own
      // lane — the other rows keep their bits and stopping iterations.
      Matrix inf_start = start;
      inf_start(0, 0) = std::numeric_limits<double>::infinity();
      for (const int cap : {1, kCap}) {
        std::vector<int> it_vec, it_sca;
        const std::vector<double> u_vec =
            SolveFoldIn(1, v, x, inf_start, cols, 1e-8, cap, &it_vec);
        const std::vector<double> u_sca =
            SolveFoldIn(0, v, x, inf_start, cols, 1e-8, cap, &it_sca);
        const std::string label = "fold_in_rows infinite start k=" +
                                  std::to_string(k) + " call " +
                                  std::to_string(call) +
                                  " cap=" + std::to_string(cap);
        ASSERT_EQ(it_vec, it_sca) << label;
        ExpectSameBits(u_vec, u_sca, label);
      }
    }
  }
  EXPECT_TRUE(saw_one_update_beside_cap);
}

// One V step on both tiers over the free columns [1, m): n = 9 rows, U
// with exact zeros and (for some shapes) an infinite entry, so the
// reconstruction of its cells is not finite; V with an infinite entry in
// one column (zero U entries meet it); the last column never observed.
TEST(SimdKernelTest, VStepColsMatchesScalarTier) {
  constexpr Index n = 9;
  for (Index k = 1; k <= 17; ++k) {
    for (Index m = 1; m <= 33; ++m) {
      const auto seed = static_cast<uint64_t>(k * 1000 + m);
      Rng rng(seed);
      Matrix u = RandomMatrix(n, k, seed + 1, 0.25);
      if ((k + m) % 4 == 0) u(2, 0) = kInf;
      Matrix v = RandomMatrix(k, m, seed + 2);
      if ((k + m) % 3 == 0) v(k - 1, m / 2) = kInf;
      const Index col_begin = m > 1 ? 1 : 0;
      std::vector<Index> col_ptr{0}, rows;
      std::vector<double> x;
      for (Index j = col_begin; j < m; ++j) {
        for (Index i = 0; i < n; ++i) {
          if (j == m - 1 && m > 2) continue;
          if (i != 0 && i != 2 && rng.Uniform() < 0.5) continue;
          rows.push_back(i);
          x.push_back(rng.Uniform());
        }
        col_ptr.push_back(static_cast<Index>(rows.size()));
      }
      std::vector<double> vt(static_cast<size_t>(m * simd::PaddedWidth(k)));
      simd::PackTransposed(v.data(), k, m, vt.data());
      for (const bool multiplicative : {true, false}) {
        simd::VStep step;
        step.k = k;
        step.m = m;
        step.u = u.data();
        step.vt = vt.data();
        step.col_begin = col_begin;
        step.col_ptr = col_ptr.data();
        step.rows = rows.data();
        step.x = x.data();
        step.step = 0.1;
        step.div_eps = 1e-9;
        step.multiplicative = multiplicative;
        std::vector<double> v_vec(v.data(), v.data() + v.size());
        std::vector<double> v_sca = v_vec;
        {
          simd::ScopedSimd on(1);
          step.v = v_vec.data();
          simd::Active().v_step_cols(step, col_begin, m);
        }
        {
          simd::ScopedSimd off(0);
          step.v = v_sca.data();
          simd::Active().v_step_cols(step, col_begin, m);
        }
        ExpectSameBits(v_vec, v_sca,
                       "v_step_cols k=" + std::to_string(k) +
                           " m=" + std::to_string(m) +
                           (multiplicative ? " mult" : " grad"));
      }
    }
  }

  // Columns with chosen rows: 1, 2 and 3 rows (one short group), four rows
  // of which row 2 is non-finite among finite ones, five rows (a group
  // holding row 2, then a group of one), row 2 alone and row 2 beside row
  // 6. Once with U finite, once with u_2,0 infinite, so row 2's (U V)_pj is
  // ±Inf, or NaN in the last column, where v_0j is zero: the group's one
  // finiteness test, then the per-lane zero masking, decide those groups.
  const std::vector<std::vector<Index>> column_rows = {
      {3}, {1, 5}, {0, 4, 7}, {1, 2, 3, 6}, {0, 2, 4, 5, 8}, {2}, {2, 6}};
  const auto m = static_cast<Index>(column_rows.size()) + 1;
  for (Index k = 1; k <= 17; ++k) {
    for (const bool infinite_u : {false, true}) {
      const auto seed = static_cast<uint64_t>(k * 10 + (infinite_u ? 1 : 0));
      Rng rng(seed);
      Matrix u = RandomMatrix(n, k, seed + 1, 0.25);
      if (infinite_u) u(2, 0) = kInf;
      Matrix v = RandomMatrix(k, m, seed + 2);
      v(0, m - 1) = 0.0;
      std::vector<Index> col_ptr{0}, rows;
      std::vector<double> x;
      for (const std::vector<Index>& col : column_rows) {
        for (const Index i : col) {
          rows.push_back(i);
          x.push_back(rng.Uniform());
        }
        col_ptr.push_back(static_cast<Index>(rows.size()));
      }
      std::vector<double> vt(static_cast<size_t>(m * simd::PaddedWidth(k)));
      simd::PackTransposed(v.data(), k, m, vt.data());
      for (const bool multiplicative : {true, false}) {
        simd::VStep step;
        step.k = k;
        step.m = m;
        step.u = u.data();
        step.vt = vt.data();
        step.col_begin = 1;
        step.col_ptr = col_ptr.data();
        step.rows = rows.data();
        step.x = x.data();
        step.step = 0.1;
        step.div_eps = 1e-9;
        step.multiplicative = multiplicative;
        const auto run = [&](int mode) {
          simd::ScopedSimd tier(mode);
          std::vector<double> out(v.data(), v.data() + v.size());
          step.v = out.data();
          simd::Active().v_step_cols(step, 1, m);
          return out;
        };
        ExpectSameBits(run(1), run(0),
                       "v_step_cols chosen rows k=" + std::to_string(k) +
                           (infinite_u ? " infinite u" : "") +
                           (multiplicative ? " mult" : " grad"));
      }
    }
  }
}

// laplacian_edges on both tiers, and on each against the plain per-edge
// sum acc += w_e·||u_from − u_to||² in edge order from +0.0 (the groups of
// four only interleave independent chains), at every rank K in 1..17: 40
// upper-triangle edges among 150 rows, some joining rows in different
// 64-row chunks, with weights read through their CSR positions, over flat
// ranges that start at every offset mod 4 and leave 0–3 edges after their
// groups of four; then with a NaN, and with an infinite, entry in one row
// of U (NaN compared as NaN).
TEST(SimdKernelTest, LaplacianEdgesMatchesScalarTier) {
  constexpr Index n = 150, kEdges = 40;
  for (Index k = 1; k <= 17; ++k) {
    const auto seed = static_cast<uint64_t>(k * 31);
    Rng rng(seed);
    // Directed CSR positions 2e (the upper edge) and 2e + 1 (its twin,
    // which the kernel never reads).
    std::vector<Index> from, edge, targets;
    std::vector<double> weights;
    Index crossing = 0;
    for (Index e = 0; e < kEdges; ++e) {
      const auto i = static_cast<Index>(rng.UniformInt(n - 1));
      const Index j = i + 1 + static_cast<Index>(rng.UniformInt(
                                  static_cast<uint64_t>(n - 1 - i)));
      crossing += i / 64 != j / 64 ? 1 : 0;
      from.push_back(i);
      edge.push_back(static_cast<Index>(targets.size()));
      targets.push_back(j);
      weights.push_back(rng.Uniform(0.1, 2.0));
      targets.push_back(i);
      weights.push_back(-1.0);
    }
    ASSERT_GT(crossing, 0);
    Matrix u = RandomMatrix(n, k, seed + 1, 0.1);
    simd::LaplacianEdges g;
    g.k = k;
    g.u = u.data();
    g.from = from.data();
    g.edge = edge.data();
    g.targets = targets.data();
    g.weights = weights.data();
    const auto run = [&](int mode, Index e0, Index e1) {
      simd::ScopedSimd tier(mode);
      return simd::Active().laplacian_edges(g, e0, e1);
    };
    const auto plain = [&](Index e0, Index e1) {
      double acc = 0.0;
      for (Index e = e0; e < e1; ++e) {
        double d2 = 0.0;
        for (Index c = 0; c < k; ++c) {
          const double diff = u(from[e], c) - u(targets[edge[e]], c);
          d2 += diff * diff;
        }
        acc += weights[edge[e]] * d2;
      }
      return acc;
    };
    const auto check = [&](const std::string& what) {
      for (Index e0 = 0; e0 < 4; ++e0) {
        for (Index e1 = e0; e1 <= kEdges; ++e1) {
          const std::string label = "laplacian_edges k=" + std::to_string(k) +
                                    " [" + std::to_string(e0) + ", " +
                                    std::to_string(e1) + ")" + what;
          const double expected = plain(e0, e1);
          ASSERT_TRUE(SameBits(run(0, e0, e1), expected)) << label;
          ASSERT_TRUE(SameBits(run(1, e0, e1), expected)) << label;
        }
      }
    };
    check("");
    u(from[5], k - 1) = std::numeric_limits<double>::quiet_NaN();
    check(" NaN entry");
    u(from[5], k - 1) = kInf;
    check(" infinite entry");
  }
}

// One row of U V per call on both tiers, for two rows of U with exact
// zeros; with skip_zeros and an infinite V entry the skip decides the
// result, and against a finite V the skip must not change a bit.
TEST(SimdKernelTest, UvRowMatchesScalarTier) {
  for (Index k = 1; k <= 17; ++k) {
    for (Index m = 1; m <= 33; ++m) {
      const auto seed = static_cast<uint64_t>(k * 10000 + m);
      const Index mp = simd::PaddedWidth(m);
      const Matrix u = RandomMatrix(2, k, seed + 1, 0.3);
      const Matrix v = RandomMatrix(k, m, seed + 2);
      std::vector<double> vp(static_cast<size_t>(k * mp));
      simd::PackRowsPadded(v.data(), k, m, vp.data());
      const auto run = [&](int mode, bool skip) {
        simd::ScopedSimd tier(mode);
        std::vector<double> r(static_cast<size_t>(2 * mp), -1.0);
        for (Index row = 0; row < 2; ++row) {
          simd::Active().uv_row(k, mp, vp.data(), u.Row(row).data(), skip,
                                r.data() + row * mp);
        }
        return r;
      };
      const std::string label =
          "uv_row k=" + std::to_string(k) + " m=" + std::to_string(m);
      const std::vector<double> finite = run(0, false);
      ExpectSameBits(run(1, false), finite, label);
      ExpectSameBits(run(1, true), finite, label + " skip");
      ExpectSameBits(run(0, true), finite, label + " scalar skip");
      vp[static_cast<size_t>((k - 1) * mp)] = kInf;
      ExpectSameBits(run(1, true), run(0, true), label + " inf skip");
      ExpectSameBits(run(1, false), run(0, false), label + " inf");
    }
  }
}

// masked_dot_cols on both tiers against the plain ascending-l chain from
// +0.0, for observed-column subsets of every size (full groups of four and
// each remainder), with and without the zero-skip, and against a V with an
// infinite entry, where the skip decides between ±Inf and NaN.
TEST(SimdKernelTest, MaskedDotColsMatchesScalarTier) {
  for (Index k = 0; k <= 17; ++k) {
    for (const Index m : {Index{1}, Index{5}, Index{7}, Index{33}}) {
      const auto seed = static_cast<uint64_t>(k * 100 + m);
      const Index kp = simd::PaddedWidth(k);
      const Matrix u = RandomMatrix(1, std::max<Index>(k, 1), seed + 1, 0.3);
      Matrix v = RandomMatrix(std::max<Index>(k, 1), m, seed + 2);
      Rng rng(seed + 3);
      std::vector<Index> cols;
      for (Index j = 0; j < m; ++j) {
        if (rng.Uniform() < 0.6 || j == m - 1) cols.push_back(j);
      }
      const auto ncols = static_cast<Index>(cols.size());
      for (const bool finite : {true, false}) {
        if (!finite) {
          if (k == 0) continue;
          v(k - 1, m - 1) = kInf;
        }
        std::vector<double> vt(static_cast<size_t>(std::max<Index>(m * kp, 1)));
        simd::PackTransposed(v.data(), k, m, vt.data());
        const auto run = [&](int mode, bool skip) {
          simd::ScopedSimd tier(mode);
          std::vector<double> out(static_cast<size_t>(ncols) + 4, -1.0);
          simd::Active().masked_dot_cols(k, vt.data(), u.data(), cols.data(),
                                         ncols, skip, out.data());
          return out;
        };
        for (const bool skip : {false, true}) {
          std::vector<double> expected(static_cast<size_t>(ncols) + 4, -1.0);
          for (Index c = 0; c < ncols; ++c) {
            double acc = 0.0;
            for (Index l = 0; l < k; ++l) {
              if (skip && u(0, l) == 0.0) continue;
              acc += u(0, l) * v(l, cols[static_cast<size_t>(c)]);
            }
            expected[static_cast<size_t>(c)] = acc;
          }
          const std::string label =
              "masked_dot_cols k=" + std::to_string(k) + " m=" +
              std::to_string(m) + (finite ? "" : " inf") +
              (skip ? " skip" : "");
          ExpectSameBits(run(1, skip), expected, label + " vector");
          ExpectSameBits(run(0, skip), expected, label + " scalar");
        }
      }
    }
  }
}

TEST(SimdKernelTest, PackRowPanelZeroPadsMissingLanes) {
  const Index k = 5;
  const Matrix b = RandomMatrix(3, k, 51);
  std::vector<double> panel(static_cast<size_t>(simd::kPanelWidth * k), -9.0);
  simd::PackRowPanel(b.data(), k, 3, k, panel.data());
  for (Index p = 0; p < k; ++p) {
    for (Index l = 0; l < simd::kPanelWidth; ++l) {
      const double expect = l < 3 ? b(l, p) : 0.0;
      ASSERT_EQ(panel[static_cast<size_t>(p * simd::kPanelWidth + l)], expect)
          << "p=" << p << " lane " << l;
    }
  }
}

// --------------------------------------------------------------------------
// Ops built on the kernels: random shapes including every remainder class
// of the panel/lane widths, empty, and 1x1.

TEST(SimdKernelTest, MatMulSimdInvariant) {
  const struct { Index n, k, m; } shapes[] = {
      {1, 1, 1}, {3, 2, 5}, {17, 9, 23}, {64, 16, 64},
      {70, 33, 65},  // ragged blocks: m % 8 = 1, m % 4 = 1
      {5, 0, 7},     // empty reduction
      {0, 4, 4},     // empty output
  };
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.n, s.k, 61, 0.2);
    const Matrix b = RandomMatrix(s.k, s.m, 62);
    ExpectSimdInvariant([&] { return la::MatMul(a, b); },
                        "MatMul " + std::to_string(s.n) + "x" +
                            std::to_string(s.k) + "x" + std::to_string(s.m));
  }
}

TEST(SimdKernelTest, MatMulAtBSimdInvariant) {
  const struct { Index k, n, m; } shapes[] = {
      {1, 1, 1}, {9, 3, 7}, {151, 70, 43}, {32, 16, 33},
  };
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.k, s.n, 63, 0.2);
    const Matrix b = RandomMatrix(s.k, s.m, 64);
    ExpectSimdInvariant([&] { return la::MatMulAtB(a, b); },
                        "MatMulAtB " + std::to_string(s.k) + "x" +
                            std::to_string(s.n) + "x" + std::to_string(s.m));
  }
}

TEST(SimdKernelTest, MatMulABtSimdInvariant) {
  const struct { Index n, k, m; } shapes[] = {
      {1, 1, 1}, {5, 3, 9},   // m % 8 = 1
      {29, 31, 57},           // m % 8 = 1, odd k
      {16, 8, 8}, {12, 7, 15},
  };
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.n, s.k, 65);
    const Matrix b = RandomMatrix(s.m, s.k, 66);
    ExpectSimdInvariant([&] { return la::MatMulABt(a, b); },
                        "MatMulABt " + std::to_string(s.n) + "x" +
                            std::to_string(s.k) + "x" + std::to_string(s.m));
  }
}

TEST(SimdKernelTest, MaskedReconstructSimdInvariant) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const Matrix u = RandomMatrix(101, 12, seed * 7 + 1, 0.15);
    const Matrix v = RandomMatrix(12, 53, seed * 7 + 2);
    // Low and high rates hit both the gathered-dot and dense-row paths.
    for (double rate : {0.1, 0.9}) {
      const data::ObservedIndex omega = data::ObservedIndex::FromMask(
          RandomMask(101, 53, seed * 7 + 3, rate));
      ExpectSimdInvariant(
          [&] { return data::MaskedReconstruct(u, v, omega); },
          "MaskedReconstruct seed " + std::to_string(seed) + " rate " +
              std::to_string(rate));
    }
  }
}

TEST(SimdKernelTest, MaskedSquaredErrorSimdInvariant) {
  const Matrix x = RandomMatrix(211, 29, 5);
  const Matrix r = RandomMatrix(211, 29, 6);
  for (double rate : {0.1, 0.7, 1.0}) {
    const data::ObservedIndex omega =
        data::ObservedIndex::FromMask(RandomMask(211, 29, 7, rate), x);
    double vec, scalar;
    {
      simd::ScopedSimd on(1);
      vec = data::MaskedSquaredError(x, omega, r);
    }
    {
      simd::ScopedSimd off(0);
      scalar = data::MaskedSquaredError(x, omega, r);
    }
    EXPECT_EQ(vec, scalar) << "MaskedSquaredError rate " << rate;
  }
}

// SIMD choice must also compose with threading: vector-on at 4 threads ==
// scalar at 1 thread, bit for bit.
TEST(SimdKernelTest, SimdAndThreadingComposeBitwise) {
  const Matrix a = RandomMatrix(173, 37, 71, 0.2);
  const Matrix b = RandomMatrix(37, 91, 72);
  Matrix baseline;
  {
    parallel::ScopedParallelism threads(1);
    simd::ScopedSimd off(0);
    baseline = la::MatMul(a, b);
  }
  {
    parallel::ScopedParallelism threads(4);
    simd::ScopedSimd on(1);
    ExpectBitwiseEqual(baseline, la::MatMul(a, b),
                       "scalar@1thread vs simd@4threads");
  }
}

// --------------------------------------------------------------------------
// Full fits: the acceptance bar. SMFL, SMF and NMF models serialized after
// fitting with vector kernels on vs scalar pinned must be byte-identical
// files with bit-identical U, at 1 and 4 threads, across seeds.

TEST(SimdKernelTest, FitModelsByteIdenticalSimdOnVsOff) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    auto dataset = data::MakeVehicleLike(50, 200 + seed);
    ASSERT_TRUE(dataset.ok());
    auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
    ASSERT_TRUE(normalizer.ok());
    const Matrix truth = normalizer->Transform(dataset->table.values());
    data::MissingInjectionOptions inject;
    inject.missing_rate = 0.2;
    inject.seed = seed * 31 + 1;
    auto injection = data::InjectMissing(dataset->table, inject);
    ASSERT_TRUE(injection.ok());
    const Matrix x_in = data::ApplyMask(truth, injection->observed);

    for (const char* method : {"SMFL", "SMF", "NMF"}) {
      for (core::UpdateMethod rule : {core::UpdateMethod::kMultiplicative,
                                      core::UpdateMethod::kGradientDescent}) {
        const std::string name =
            std::string(method) +
            (rule == core::UpdateMethod::kGradientDescent ? " gradient" : "");
        core::SmflOptions options;
        options.rank = 4;
        options.max_iterations = 25;
        options.tolerance = 0.0;
        options.seed = seed * 7919 + 3;
        options.use_landmarks = std::string(method) == "SMFL";
        if (std::string(method) == "NMF") options.lambda = 0.0;
        options.update = rule;

        const auto fit_on_tier = [&](int mode) {
          simd::ScopedSimd tier(mode);
          return core::FitSmfl(x_in, injection->observed, 2, options);
        };
        std::string reference;
        Matrix reference_u;
        for (int threads : {1, 4}) {
          options.threads = threads;
          auto on = fit_on_tier(1);
          ASSERT_TRUE(on.ok()) << on.status().ToString();
          auto off = fit_on_tier(0);
          ASSERT_TRUE(off.ok()) << off.status().ToString();

          const std::string serialized_on = core::SerializeModel(*on);
          const std::string serialized_off = core::SerializeModel(*off);
          const std::string label = name + " seed " + std::to_string(seed) +
                                    " @ " + std::to_string(threads) +
                                    " threads";
          ASSERT_EQ(serialized_on, serialized_off) << label;
          // The model file holds mean(U), not U: compare U itself too.
          ExpectBitwiseEqual(on->u, off->u, label + " U");
          // And across thread counts too: one model per (seed, method).
          if (reference.empty()) {
            reference = serialized_on;
            reference_u = on->u;
          } else {
            ASSERT_EQ(serialized_on, reference) << label << " vs 1 thread";
            ExpectBitwiseEqual(on->u, reference_u, label + " U vs 1 thread");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace smfl
