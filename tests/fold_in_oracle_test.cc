// Reference oracle for batched fold-in serving (core::FoldIn, FoldInRow).
//
// The serving solve of docs/serving.md written out naively, one row at a
// time, as plain loops:
//
//   usable cells     observed, finite and nonnegative; none → column-mean
//                    tier, the row served as mean(U)·V
//   initial u        1/K, or the landmark kernel over the row's usable
//                    coordinates when the model has landmarks
//   Gram matrix      G_cc' = Σ_t v_ct v_c't over the usable columns t
//   start            num_c = Σ_t x_t v_ct; e₀ = Σ_t (x_t − r_t)² with
//                    r_t = Σ_c u_c v_ct; den = G·u
//   iteration        err = e₀ and prev = +∞ first; stop when
//                    prev − err < tol · max(prev, 1e-300); otherwise
//                    prev = err, u'_c = u_c · (num_c / max(den_c, ε)),
//                    den' = G·u', Δ = Σ_c (u_c − u'_c) ·
//                    ((den_c + den'_c) − (num_c + num_c)), err = prev − Δ;
//                    once err < 2⁻²⁰ · e₀, and on every later iteration,
//                    err = Σ_t (x_t − r'_t)² from the residuals of u'
//   completed row    usable cells copied, every other cell Σ_c u_c v_cj
//
// Every sum is one chain in ascending index order from +0.0. FoldIn and
// FoldInRow must reproduce the oracle's outputs, per-row iteration counts
// and serving tiers bit for bit at every thread count and SIMD tier. The
// batch puts rows that stop on the tolerance at different iterations into
// one solve call (FoldIn solves the solvable rows four at a time in row
// order), and covers the column-mean and uniform-u tiers, a denominator
// below ε, dropped cells, shared patterns and single-column rows. A second
// batch holds patterns of many widths, a few rows each, among column-mean
// rows, so most of its solve calls mix widths and Gram matrices.
//
// The direct form — r_t reconstructed and Σ_t r_t v_ct summed every
// iteration, the error recomputed from the residuals — is kept as a
// reference (the serving solve before the Gram matrix): the Gram solve
// agrees with it to rounding, and on rows the model reproduces exactly it
// keeps the direct form's update counts, which an error computed as
// ‖x‖² − 2u·num + u·Gu (cancelling against ‖x‖²) does not.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/fold_in.h"
#include "src/la/simd.h"
#include "src/mf/factorization.h"

namespace smfl::core {
namespace {

using data::Mask;

constexpr Index kCols = 11;
constexpr Index kSpatial = 2;
constexpr Index kTrainRows = 30;
// Ranks: 1, 3, 10 and 17, and 33 — beyond one block of denominators the
// vector tier holds in registers.
constexpr Index kRanks[] = {1, 3, 10, 17, 33};

struct OracleRow {
  std::vector<double> out;
  FoldInTier tier = FoldInTier::kLandmarkKernel;
  int iterations = 0;
};

// The landmark-kernel initialization, naively.
bool OracleInit(const SmflModel& model, const std::vector<double>& row,
                const std::vector<bool>& usable, std::vector<double>& u) {
  const Index k = model.v.rows();
  const Index l = std::min(model.spatial_cols, model.landmarks.cols());
  if (model.landmarks.size() == 0 || l <= 0) return false;
  std::vector<Index> si;
  for (Index j = 0; j < l; ++j) {
    if (usable[static_cast<size_t>(j)]) si.push_back(j);
  }
  if (si.empty()) return false;
  const double sigma2 = FoldInKernelWidth(model.landmarks);
  double sum = 0.0;
  for (Index c = 0; c < k; ++c) {
    double d2 = 0.0;
    for (Index j : si) {
      const double diff = row[static_cast<size_t>(j)] - model.landmarks(c, j);
      d2 += diff * diff;
    }
    d2 *= static_cast<double>(l) / static_cast<double>(si.size());
    u[static_cast<size_t>(c)] = std::exp(-d2 / (2.0 * sigma2)) + 1e-4;
    sum += u[static_cast<size_t>(c)];
  }
  for (Index c = 0; c < k; ++c) u[static_cast<size_t>(c)] /= sum;
  return true;
}

// How the oracle's iteration reads the error and the denominators.
enum class Form {
  kGram,        // the serving chains (file comment)
  kDirect,      // r_t and Σ_t r_t v_ct rebuilt every iteration
  kCancelling,  // the Gram update, err = ‖x‖² − 2u·num + u·Gu
};

// The multiplicative solve of u over the usable columns obs of `row` in
// the given form; returns the updates applied.
int OracleSolve(Form form, const SmflModel& model,
                const std::vector<double>& row, const std::vector<Index>& obs,
                const FoldInOptions& options, std::vector<double>& u) {
  const auto k = static_cast<size_t>(model.v.rows());
  const size_t nt = obs.size();
  const auto v = [&](size_t c, size_t t) {
    return model.v(static_cast<Index>(c), obs[t]);
  };
  const auto x = [&](size_t t) { return row[static_cast<size_t>(obs[t])]; };
  std::vector<double> num(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    for (size_t t = 0; t < nt; ++t) num[c] += x(t) * v(c, t);
  }
  const auto squared_error = [&](const std::vector<double>& w) {
    double err = 0.0;
    for (size_t t = 0; t < nt; ++t) {
      double r = 0.0;
      for (size_t c = 0; c < k; ++c) r += w[c] * v(c, t);
      const double d = x(t) - r;
      err += d * d;
    }
    return err;
  };
  std::vector<double> gram(k * k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    for (size_t c2 = 0; c2 < k; ++c2) {
      for (size_t t = 0; t < nt; ++t) gram[c * k + c2] += v(c, t) * v(c2, t);
    }
  }
  const auto gram_times = [&](const std::vector<double>& w) {
    std::vector<double> out(k, 0.0);
    for (size_t c = 0; c < k; ++c) {
      for (size_t c2 = 0; c2 < k; ++c2) out[c] += gram[c * k + c2] * w[c2];
    }
    return out;
  };
  double xx = 0.0;
  for (size_t t = 0; t < nt; ++t) xx += x(t) * x(t);
  const auto cancelling_error = [&](const std::vector<double>& w,
                                    const std::vector<double>& gw) {
    double xn = 0.0, wgw = 0.0;
    for (size_t c = 0; c < k; ++c) {
      xn += w[c] * num[c];
      wgw += w[c] * gw[c];
    }
    return (xx - 2.0 * xn) + wgw;
  };

  std::vector<double> den = gram_times(u);
  double err = squared_error(u);
  const double residual_below = 0x1p-20 * err;
  bool residual = false;
  double prev = std::numeric_limits<double>::infinity();
  int iterations = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (prev - err < options.tolerance * std::max(prev, 1e-300)) break;
    prev = err;
    ++iterations;
    if (form == Form::kDirect) {
      std::vector<double> recon(nt, 0.0);
      for (size_t t = 0; t < nt; ++t) {
        for (size_t c = 0; c < k; ++c) recon[t] += u[c] * v(c, t);
      }
      for (size_t c = 0; c < k; ++c) {
        double d = 0.0;
        for (size_t t = 0; t < nt; ++t) d += recon[t] * v(c, t);
        u[c] *= num[c] / std::max(d, mf::kDivEps);
      }
      err = squared_error(u);
      continue;
    }
    std::vector<double> next(k);
    for (size_t c = 0; c < k; ++c) {
      next[c] = u[c] * (num[c] / std::max(den[c], mf::kDivEps));
    }
    const std::vector<double> den_next = gram_times(next);
    if (form == Form::kGram) {
      double delta = 0.0;
      for (size_t c = 0; c < k; ++c) {
        delta +=
            (u[c] - next[c]) * ((den[c] + den_next[c]) - (num[c] + num[c]));
      }
      err = prev - delta;
      if (residual || err < residual_below) {
        err = squared_error(next);
        residual = true;
      }
    } else {
      err = cancelling_error(next, den_next);
    }
    u = next;
    den = den_next;
  }
  return iterations;
}

OracleRow OracleFoldRow(const SmflModel& model, const Matrix& x,
                        const Mask& observed, Index i,
                        const FoldInOptions& options,
                        Form form = Form::kGram) {
  const Index k = model.v.rows(), m = model.v.cols();
  OracleRow r;
  r.out.assign(static_cast<size_t>(m), 0.0);
  std::vector<double> row(static_cast<size_t>(m));
  std::vector<bool> usable(static_cast<size_t>(m), false);
  std::vector<Index> obs;
  for (Index j = 0; j < m; ++j) {
    row[static_cast<size_t>(j)] = x(i, j);
    if (observed.Contains(i, j) && std::isfinite(x(i, j)) && x(i, j) >= 0.0) {
      usable[static_cast<size_t>(j)] = true;
      obs.push_back(j);
    }
  }
  if (obs.empty()) {
    r.tier = FoldInTier::kColumnMean;
    std::vector<double> mean(static_cast<size_t>(k),
                             1.0 / static_cast<double>(k));
    if (model.u.rows() > 0) {
      std::fill(mean.begin(), mean.end(), 0.0);
      for (Index p = 0; p < model.u.rows(); ++p) {
        for (Index c = 0; c < k; ++c) {
          mean[static_cast<size_t>(c)] += model.u(p, c);
        }
      }
      for (double& v : mean) v /= static_cast<double>(model.u.rows());
    }
    for (Index j = 0; j < m; ++j) {
      double acc = 0.0;
      for (Index c = 0; c < k; ++c) {
        acc += mean[static_cast<size_t>(c)] * model.v(c, j);
      }
      r.out[static_cast<size_t>(j)] = acc;
    }
    return r;
  }
  std::vector<double> u(static_cast<size_t>(k), 1.0 / static_cast<double>(k));
  r.tier = OracleInit(model, row, usable, u) ? FoldInTier::kLandmarkKernel
                                             : FoldInTier::kUniformU;
  r.iterations = OracleSolve(form, model, row, obs, options, u);
  for (Index j = 0; j < m; ++j) {
    if (usable[static_cast<size_t>(j)]) {
      r.out[static_cast<size_t>(j)] = row[static_cast<size_t>(j)];
      continue;
    }
    double acc = 0.0;
    for (Index c = 0; c < k; ++c) {
      acc += u[static_cast<size_t>(c)] * model.v(c, j);
    }
    r.out[static_cast<size_t>(j)] = acc;
  }
  return r;
}

// A frozen model of rank k over kCols columns: V's first two columns are
// the landmarks (as SMFL freezes them), rank entry 0 is zero on the last
// two columns and tiny on the third-last, so a row observing only those
// has a denominator below ε there.
SmflModel MakeModel(Index k, uint64_t seed) {
  Rng rng(seed);
  SmflModel model;
  model.spatial_cols = kSpatial;
  model.landmarks = Matrix(k, kSpatial);
  model.v = Matrix(k, kCols);
  model.u = Matrix(kTrainRows, k);
  for (Index c = 0; c < k; ++c) {
    for (Index j = 0; j < kCols; ++j) model.v(c, j) = rng.Uniform(0.05, 1.0);
    for (Index j = 0; j < kSpatial; ++j) {
      model.landmarks(c, j) = model.v(c, j);
    }
  }
  model.v(0, kCols - 1) = 0.0;
  model.v(0, kCols - 2) = 0.0;
  model.v(0, kCols - 3) = 1e-15;
  for (Index i = 0; i < model.u.size(); ++i) {
    model.u.data()[i] = rng.Uniform(0.0, 1.0);
  }
  return model;
}

// x_j = (s / K) Σ_c v_cj on the attribute columns, coordinates missing: a
// row the uniform start reproduces exactly up to the scale s.
void SetUniformRow(const SmflModel& model, double s, Index i, Matrix& x,
                   Mask& observed) {
  const Index k = model.v.rows();
  for (Index j = kSpatial; j < kCols; ++j) {
    double acc = 0.0;
    for (Index c = 0; c < k; ++c) {
      acc += (s / static_cast<double>(k)) * model.v(c, j);
    }
    x(i, j) = acc;
    observed.Set(i, j, true);
  }
}

// The serving batch (see the file comment). Rows 0 and 1 share a pattern
// and so a solve call, beside rows that keep iterating.
void MakeBatch(const SmflModel& model, uint64_t seed, Matrix& x,
               Mask& observed) {
  constexpr Index kRows = 40;
  Rng rng(seed);
  x = Matrix(kRows, kCols);
  observed = Mask(kRows, kCols);
  // Rows 0–3: rows 0 and 1 are exact at the start (stop at iteration 1)
  // and after one rescaling step (stop at 2); row 2 observes one column,
  // which one step fits exactly; row 3 is a full row that runs on.
  SetUniformRow(model, 1.0, 0, x, observed);
  SetUniformRow(model, 2.0, 1, x, observed);
  x(2, 3) = 0.4;
  observed.Set(2, 3, true);
  for (Index j = 0; j < kCols; ++j) {
    x(3, j) = rng.Uniform(0.0, 1.0);
    observed.Set(3, j, true);
  }
  // Rows 4–7: row 4 has nothing observed (column-mean); row 5 misses its
  // coordinates (uniform-u); row 6 observes only the columns where rank
  // entry 0 vanishes (denominator below ε, uniform-u); row 7 has a NaN and
  // a negative observed cell, dropped from its solve.
  for (Index j = kSpatial; j < kCols; j += 2) {
    x(5, j) = rng.Uniform(0.0, 1.0);
    observed.Set(5, j, true);
  }
  for (Index j = kCols - 3; j < kCols; ++j) {
    x(6, j) = rng.Uniform(0.1, 1.0);
    observed.Set(6, j, true);
  }
  for (Index j = 0; j < kCols; ++j) {
    x(7, j) = rng.Uniform(0.0, 1.0);
    observed.Set(7, j, true);
  }
  x(7, 3) = std::nan("");
  x(7, 5) = -0.25;
  // Rows 8–15 share one pattern; 16–19 observe a single column each.
  for (Index i = 8; i < 16; ++i) {
    for (Index j = 0; j < kCols; ++j) {
      x(i, j) = rng.Uniform(0.0, 1.0);
      observed.Set(i, j, j != 4 && j != 8);
    }
  }
  for (Index i = 16; i < 20; ++i) {
    const Index j = i - 16 + (i % 2 == 0 ? 0 : kSpatial);
    x(i, j) = rng.Uniform(0.0, 1.0);
    observed.Set(i, j, true);
  }
  // Row 20: every observed cell non-finite (column-mean). Row 21 observes
  // zeros, so its first update zeroes u and its second is a fixed point
  // (Δ = 0): a stop after two updates at any rank and positive tolerance.
  // The rest: random holes, coordinates mostly present, a ragged last
  // solve call of two rows.
  for (Index j = 0; j < kCols; ++j) {
    x(20, j) = std::numeric_limits<double>::infinity();
    observed.Set(20, j, j % 3 == 0);
  }
  for (Index j = kSpatial; j < kCols; ++j) observed.Set(21, j, true);
  for (Index i = 22; i < kRows; ++i) {
    for (Index j = 0; j < kCols; ++j) {
      const bool seen = j < kSpatial ? i % 5 != 0 : rng.Bernoulli(0.7);
      x(i, j) = seen ? rng.Uniform(0.0, 1.0) : 0.0;
      observed.Set(i, j, seen);
    }
  }
}

// Observed-column widths of the mixed batch, cycled row by row.
constexpr Index kMixedWidths[] = {11, 1, 6, 3, 9, 2, 11, 5};

// A batch of patterns of many widths (see kMixedWidths), a few rows each;
// every eighth row observes nothing (the column-mean tier), and every
// third row misses its coordinates.
void MakeMixedWidthBatch(uint64_t seed, Matrix& x, Mask& observed) {
  constexpr Index kRows = 26;
  Rng rng(seed);
  x = Matrix(kRows, kCols);
  observed = Mask(kRows, kCols);
  for (Index i = 0; i < kRows; ++i) {
    if (i % 8 == 5) continue;
    const Index width = kMixedWidths[i % 8];
    // `width` columns, starting at a row-dependent offset.
    for (Index w = 0; w < width; ++w) {
      const Index j = (i + w * 3) % kCols;
      if (i % 3 == 2 && j < kSpatial) continue;
      x(i, j) = rng.Uniform(0.0, 1.0);
      observed.Set(i, j, true);
    }
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectMatchesOracle(const SmflModel& model, const Matrix& x,
                         const Mask& observed, const FoldInOptions& options,
                         const std::string& label) {
  std::vector<OracleRow> oracle;
  for (Index i = 0; i < x.rows(); ++i) {
    oracle.push_back(OracleFoldRow(model, x, observed, i, options));
  }
  for (int threads : {1, 4}) {
    for (int simd : {0, 1}) {
      parallel::ScopedParallelism scoped_threads(threads);
      la::simd::ScopedSimd scoped_simd(simd);
      const std::string where = label + " threads " +
                                std::to_string(threads) + " simd " +
                                std::to_string(simd);
      FoldInReport report;
      auto folded = FoldIn(model, x, observed, options, &report);
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
      ASSERT_EQ(report.rows.size(), oracle.size()) << where;
      for (Index i = 0; i < x.rows(); ++i) {
        const OracleRow& o = oracle[static_cast<size_t>(i)];
        const FoldInRowOutcome& got = report.rows[static_cast<size_t>(i)];
        ASSERT_EQ(got.served_by, o.tier) << where << " row " << i;
        ASSERT_EQ(got.iterations, o.iterations) << where << " row " << i;
        for (Index j = 0; j < x.cols(); ++j) {
          ASSERT_EQ(Bits((*folded)(i, j)), Bits(o.out[static_cast<size_t>(j)]))
              << where << " row " << i << " col " << j;
        }
        // The strict single-row path serves every row it accepts (all
        // observed cells valid, at least one) with the same bits.
        la::Vector row(x.cols());
        std::vector<bool> seen(static_cast<size_t>(x.cols()));
        bool valid = false;
        for (Index j = 0; j < x.cols(); ++j) {
          row[j] = x(i, j);
          seen[static_cast<size_t>(j)] = observed.Contains(i, j);
          if (!seen[static_cast<size_t>(j)]) continue;
          valid = true;
          if (!std::isfinite(x(i, j)) || x(i, j) < 0.0) {
            valid = false;
            break;
          }
        }
        if (!valid) continue;
        auto single = FoldInRow(model, row, seen, options);
        ASSERT_TRUE(single.ok()) << where << " row " << i;
        for (Index j = 0; j < x.cols(); ++j) {
          ASSERT_EQ(Bits((*single)[j]), Bits(o.out[static_cast<size_t>(j)]))
              << where << " FoldInRow row " << i << " col " << j;
        }
      }
    }
  }
}

TEST(FoldInOracleTest, BatchAndSingleRowMatchTheNaiveSolveBitwise) {
  for (Index k : kRanks) {
    const SmflModel model = MakeModel(k, 100 + static_cast<uint64_t>(k));
    Matrix x;
    Mask observed;
    MakeBatch(model, 200 + static_cast<uint64_t>(k), x, observed);
    const std::string rank = "K=" + std::to_string(k);
    // The serving default, a loose tolerance (rows stop all over the
    // iteration range), tolerance 0 (a row stops on the first iteration
    // whose error does not fall, which turns on the last bits of the
    // error sum) and a short cap.
    ExpectMatchesOracle(model, x, observed, FoldInOptions{}, rank);
    ExpectMatchesOracle(model, x, observed, FoldInOptions{200, 1e-3},
                        rank + " tol 1e-3");
    ExpectMatchesOracle(model, x, observed, FoldInOptions{200, 0.0},
                        rank + " tol 0");
    ExpectMatchesOracle(model, x, observed, FoldInOptions{7, 1e-8},
                        rank + " cap 7");
  }
}

TEST(FoldInOracleTest, MixedWidthBatchMatchesTheNaiveSolveBitwise) {
  for (Index k : kRanks) {
    const SmflModel model = MakeModel(k, 300 + static_cast<uint64_t>(k));
    Matrix x;
    Mask observed;
    MakeMixedWidthBatch(400 + static_cast<uint64_t>(k), x, observed);
    const std::string rank = "mixed K=" + std::to_string(k);
    ExpectMatchesOracle(model, x, observed, FoldInOptions{}, rank);
    ExpectMatchesOracle(model, x, observed, FoldInOptions{200, 1e-3},
                        rank + " tol 1e-3");
    ExpectMatchesOracle(model, x, observed, FoldInOptions{200, 0.0},
                        rank + " tol 0");
    ExpectMatchesOracle(model, x, observed, FoldInOptions{7, 1e-8},
                        rank + " cap 7");
  }
}

// The cases the oracle comparison relies on are really in the batch.
TEST(FoldInOracleTest, BatchCoversTheEdgeCases) {
  for (Index k : kRanks) {
    const SmflModel model = MakeModel(k, 100 + static_cast<uint64_t>(k));
    Matrix x;
    Mask observed;
    MakeBatch(model, 200 + static_cast<uint64_t>(k), x, observed);
    const FoldInOptions options;
    std::vector<OracleRow> rows;
    for (Index i = 0; i < x.rows(); ++i) {
      rows.push_back(OracleFoldRow(model, x, observed, i, options));
    }
    // Rows 0–2 of the first chunk stop on the tolerance, not on the cap,
    // and at different iterations.
    std::set<int> stops;
    for (Index i = 0; i < 3; ++i) {
      EXPECT_LT(rows[static_cast<size_t>(i)].iterations, options.max_iterations)
          << "K=" << k << " row " << i;
      stops.insert(rows[static_cast<size_t>(i)].iterations);
    }
    EXPECT_GE(stops.size(), 2u) << "K=" << k;
    EXPECT_EQ(rows[21].iterations, 2) << "K=" << k;
    EXPECT_EQ(rows[4].tier, FoldInTier::kColumnMean);
    EXPECT_EQ(rows[5].tier, FoldInTier::kUniformU);
    EXPECT_EQ(rows[6].tier, FoldInTier::kUniformU);
    EXPECT_EQ(rows[20].tier, FoldInTier::kColumnMean);
    EXPECT_EQ(rows[8].tier, FoldInTier::kLandmarkKernel);
    // Row 6's first denominator for rank entry 0, (G·u)_0 at the uniform
    // start, sits below ε.
    const double u = 1.0 / static_cast<double>(k);
    double den = 0.0;
    for (Index c = 0; c < k; ++c) {
      double g = 0.0;
      for (Index j = kCols - 3; j < kCols; ++j) {
        g += model.v(0, j) * model.v(c, j);
      }
      den += g * u;
    }
    EXPECT_LT(den, mf::kDivEps) << "K=" << k;
  }
}

// FoldIn's solve order (the solvable rows in row order) cuts the mixed
// batch into 4-row calls most of which mix widths, and the batch holds
// column-mean rows besides.
TEST(FoldInOracleTest, MixedBatchSolveCallsMixWidths) {
  Matrix x;
  Mask observed;
  MakeMixedWidthBatch(410, x, observed);
  std::vector<size_t> widths;  // of the solvable rows, in row order
  Index column_mean = 0;
  for (Index i = 0; i < x.rows(); ++i) {
    size_t width = 0;
    for (Index j = 0; j < x.cols(); ++j) width += observed.Contains(i, j);
    if (width == 0) {
      ++column_mean;
      continue;
    }
    widths.push_back(width);
  }
  Index mixed_calls = 0, calls = 0;
  for (size_t p0 = 0; p0 < widths.size(); p0 += 4, ++calls) {
    const std::set<size_t> call(
        widths.begin() + static_cast<std::ptrdiff_t>(p0),
        widths.begin() + static_cast<std::ptrdiff_t>(
                             std::min(p0 + 4, widths.size())));
    if (call.size() >= 2) ++mixed_calls;
  }
  EXPECT_GE(column_mean, 3);
  EXPECT_GE(2 * mixed_calls, calls) << mixed_calls << " of " << calls;
}

// |a − b| / max(|a|, |b|), 0 when a == b.
double RelativeGap(double a, double b) {
  // smfl-lint: allow(float-eq) equal values have no gap, zeros included
  if (a == b) return 0.0;
  return std::fabs(a - b) / std::max(std::fabs(a), std::fabs(b));
}

// A batch of rows values in [0, 1) with each cell observed with
// probability 0.7 (coordinates missing in every fifth row).
void MakeRandomBatch(Index rows, uint64_t seed, Matrix& x, Mask& observed) {
  Rng rng(seed);
  x = Matrix(rows, kCols);
  observed = Mask(rows, kCols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < kCols; ++j) {
      const bool seen = j < kSpatial ? i % 5 != 0 : rng.Bernoulli(0.7);
      x(i, j) = rng.Uniform(0.0, 1.0);
      observed.Set(i, j, seen);
    }
  }
}

// The Gram solve against the direct form over 1,200 random rows (240 per
// rank): at a cap of 7 updates the same counts and outputs within 1e-12
// relative; at the serving default the same counts on at least 99% of the
// rows and outputs within 1e-9 relative. The two forms differ only in
// rounding, which can move a row's stop by an update where its relative
// decrease sits at the tolerance.
TEST(FoldInOracleTest, GramSolveAgreesWithTheDirectForm) {
  constexpr Index kRows = 240;
  struct Case {
    FoldInOptions options;
    double max_gap;
    double min_same_counts;
  };
  for (const Case& test : {Case{FoldInOptions{7, 1e-8}, 1e-12, 1.0},
                           Case{FoldInOptions{}, 1e-9, 0.99}}) {
    Index rows = 0, same_counts = 0;
    double max_gap = 0.0;
    for (Index k : kRanks) {
      const SmflModel model = MakeModel(k, 500 + static_cast<uint64_t>(k));
      Matrix x;
      Mask observed;
      MakeRandomBatch(kRows, 600 + static_cast<uint64_t>(k), x, observed);
      FoldInReport report;
      auto folded = FoldIn(model, x, observed, test.options, &report);
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
      for (Index i = 0; i < x.rows(); ++i) {
        const OracleRow direct =
            OracleFoldRow(model, x, observed, i, test.options, Form::kDirect);
        ++rows;
        same_counts +=
            report.rows[static_cast<size_t>(i)].iterations == direct.iterations;
        for (Index j = 0; j < x.cols(); ++j) {
          max_gap = std::max(
              max_gap, RelativeGap((*folded)(i, j),
                                   direct.out[static_cast<size_t>(j)]));
        }
      }
    }
    const std::string label =
        "cap " + std::to_string(test.options.max_iterations);
    EXPECT_LE(max_gap, test.max_gap) << label;
    EXPECT_GE(static_cast<double>(same_counts),
              test.min_same_counts * static_cast<double>(rows))
        << label << ": " << same_counts << " of " << rows;
  }
}

// Rows one step fits exactly — the uniform start's row scaled by 2, 0.5
// or 3, or a single observed column — reach the rounding floor, where a
// form's last updates turn on rounding noise, so the two forms may stop
// them an update or two apart: at every rank both stop them on the
// tolerance within a few updates. (The step's error alone falls a few
// ulps below zero there, so a solve that never reads the residuals runs
// such rows on for tens of updates or to the cap.)
TEST(FoldInOracleTest, RowsFittedExactlyStopWithinAFewUpdates) {
  const FoldInOptions options;
  constexpr int kFewUpdates = 10;
  constexpr double kScales[] = {2.0, 0.5, 3.0};
  constexpr auto kScaled = static_cast<Index>(std::size(kScales));
  for (Index k : kRanks) {
    const SmflModel model = MakeModel(k, 700 + static_cast<uint64_t>(k));
    const Index rows = kScaled + (kCols - kSpatial);
    Matrix x(rows, kCols);
    Mask observed(rows, kCols);
    for (Index i = 0; i < kScaled; ++i) {
      SetUniformRow(model, kScales[static_cast<size_t>(i)], i, x, observed);
    }
    for (Index j = kSpatial; j < kCols; ++j) {
      const Index i = kScaled + j - kSpatial;
      x(i, j) = 0.1 * static_cast<double>(j);
      observed.Set(i, j, true);
    }
    FoldInReport report;
    auto folded = FoldIn(model, x, observed, options, &report);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    for (Index i = 0; i < rows; ++i) {
      EXPECT_LT(OracleFoldRow(model, x, observed, i, options, Form::kDirect)
                    .iterations,
                kFewUpdates)
          << "K=" << k << " row " << i;
      EXPECT_LT(report.rows[static_cast<size_t>(i)].iterations, kFewUpdates)
          << "K=" << k << " row " << i;
    }
  }
}

// Rows the model reproduces exactly keep the direct form's update counts
// at the serving default.
//
// At every rank, a row the uniform start reproduces exactly stops after
// one update in both forms.
//
// Above the rounding floor: x = u₀V at every column for a random u₀,
// solved from the uniform start at ranks 2 and 3 over a V whose rank
// entries overlap on every column (weight 0.6 and 0.5 off their own
// columns). The error falls steadily through 1e-8 ‖x‖² without reaching
// the floor, and every row runs the 200-update cap. An error read as
// ‖x‖² − 2u·num + u·Gu cancels against ‖x‖² once it is that small and
// stops rows early, which the last assertion shows on the same rows.
TEST(FoldInOracleTest, ExactRowsKeepTheDirectFormsUpdateCounts) {
  const FoldInOptions options;
  for (Index k : kRanks) {
    const SmflModel model = MakeModel(k, 700 + static_cast<uint64_t>(k));
    Matrix x(1, kCols);
    Mask observed(1, kCols);
    SetUniformRow(model, 1.0, 0, x, observed);
    FoldInReport report;
    auto folded = FoldIn(model, x, observed, options, &report);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_EQ(
        OracleFoldRow(model, x, observed, 0, options, Form::kDirect).iterations,
        1)
        << "K=" << k;
    EXPECT_EQ(report.rows[0].iterations, 1) << "K=" << k;
  }

  constexpr Index kRows = 48;
  Index cancelling_differs = 0;
  for (Index k : {2, 3}) {
    Rng rng(800 + static_cast<uint64_t>(k));
    const double overlap = k == 2 ? 0.6 : 0.5;
    SmflModel model;  // no landmarks: every row starts uniform
    model.v = Matrix(k, kCols);
    for (Index c = 0; c < k; ++c) {
      for (Index j = 0; j < kCols; ++j) {
        model.v(c, j) = (j % k == c ? 1.0 : overlap) * rng.Uniform(0.5, 1.0);
      }
    }
    Matrix x(kRows, kCols);
    const Mask observed(kRows, kCols, true);
    for (Index i = 0; i < kRows; ++i) {
      std::vector<double> u0(static_cast<size_t>(k));
      for (double& e : u0) e = rng.Uniform(0.1, 1.0);
      for (Index j = 0; j < kCols; ++j) {
        double acc = 0.0;
        for (Index c = 0; c < k; ++c) {
          acc += u0[static_cast<size_t>(c)] * model.v(c, j);
        }
        x(i, j) = acc;
      }
    }
    FoldInReport report;
    auto folded = FoldIn(model, x, observed, options, &report);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    for (Index i = 0; i < kRows; ++i) {
      const int direct =
          OracleFoldRow(model, x, observed, i, options, Form::kDirect)
              .iterations;
      ASSERT_EQ(direct, options.max_iterations) << "K=" << k << " row " << i;
      EXPECT_EQ(report.rows[static_cast<size_t>(i)].iterations, direct)
          << "K=" << k << " row " << i;
      cancelling_differs +=
          OracleFoldRow(model, x, observed, i, options, Form::kCancelling)
              .iterations != direct;
    }
  }
  EXPECT_GT(cancelling_differs, 0);
}

}  // namespace
}  // namespace smfl::core
