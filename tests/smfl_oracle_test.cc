// Reference oracle for the SMFL fit loop.
//
// A naive dense implementation of the paper's update rules, written as
// plain loops over the zero-filled R_Ω(X) = ApplyMask(X, Ω) and the dense
// graph matrices D (adjacency) and W (degree diagonal):
//
//   Formula 13   U ← U ⊙ (R_Ω(X)Vᵀ + λDU) / max(R_Ω(UV)Vᵀ + λWU, ε)
//   Formula 14   V ← V ⊙ (UᵀR_Ω(X)) / max(UᵀR_Ω(UV), ε)   (free columns)
//   §III-B1      U ← max(U + 2θ((R_Ω(X) − R_Ω(UV))Vᵀ − λ(WU − DU)), 0)
//                V ← max(0, V + 2θ(UᵀR_Ω(X) − UᵀR_Ω(UV)))   (free columns)
//
// with the V step reading the just-updated U, and the objective
// ||R_Ω(X) − R_Ω(UV)||² + λ·Tr(UᵀLU) evaluated after each iteration.
// Every product is a full dense loop in ascending index order; nothing
// skips a zero. The optimized fit must reproduce the oracle's U, V and
// objective trace bit for bit from the same starting point (the fit's own
// initialization, read back with max_iterations = 0), at every thread
// count and SIMD tier. That holds because every term the fit skips — an
// unobserved cell, a zero factor entry, a non-edge — is an exact +0.0
// added to a chain that never holds −0.0.
//
// The only part that is not naive is the objective's summation grouping,
// which the fit fixes by its deterministic chunked reductions: the squared
// error sums each row, then each 64-row chunk of row sums, then the chunk
// totals in order; Tr(UᵀLU) sums each 64-vertex chunk's edge terms flat,
// then the chunk totals in order. The gradient step keeps the fit's
// association (R_Ω(X) − R_Ω(UV))Vᵀ, one chain per entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/core/smfl.h"
#include "src/core/training_guard.h"
#include "src/data/mask.h"
#include "src/la/simd.h"
#include "src/mf/factorization.h"
#include "src/spatial/graph.h"

namespace smfl {
namespace {

using core::SmflOptions;
using core::UpdateMethod;
using data::Mask;
using la::Index;
using la::Matrix;
using spatial::NeighborGraph;

constexpr Index kCols = 7;
constexpr Index kSpatial = 2;
// Ranks: one partial 4-lane register block (3), two full blocks plus a
// tail (10), and more than one 16-lane pass of the fit kernels (17).
constexpr Index kRanks[] = {3, 10, 17};
constexpr int kIterations = 15;
constexpr Index kChunk = 64;  // the fit's reduction grain (see above)

// c = a bᵀ.
Matrix NaiveABt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index l = 0; l < b.rows(); ++l) {
      double acc = 0.0;
      for (Index j = 0; j < a.cols(); ++j) acc += a(i, j) * b(l, j);
      c(i, l) = acc;
    }
  }
  return c;
}

// c = aᵀ b.
Matrix NaiveAtB(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (Index l = 0; l < a.cols(); ++l) {
    for (Index j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (Index p = 0; p < a.rows(); ++p) acc += a(p, l) * b(p, j);
      c(l, j) = acc;
    }
  }
  return c;
}

// c = a b.
Matrix NaiveAB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index l = 0; l < b.cols(); ++l) {
      double acc = 0.0;
      for (Index q = 0; q < a.cols(); ++q) acc += a(i, q) * b(q, l);
      c(i, l) = acc;
    }
  }
  return c;
}

// R_Ω(U V).
Matrix NaiveMaskedProduct(const Matrix& u, const Matrix& v,
                          const Mask& observed) {
  Matrix uv = NaiveAB(u, v);
  for (Index i = 0; i < uv.rows(); ++i) {
    for (Index j = 0; j < uv.cols(); ++j) {
      if (!observed.Contains(i, j)) uv(i, j) = 0.0;
    }
  }
  return uv;
}

struct Oracle {
  Matrix xm;  // R_Ω(X)
  Mask observed;
  Matrix d;   // dense adjacency
  Matrix w;   // dense degree diagonal
  double lambda = 0.0;
  UpdateMethod update = UpdateMethod::kMultiplicative;
  double theta = 0.0;
  Index v_begin = 0;
  double eps = mf::kDivEps;  // the denominator floor

  double Objective(const Matrix& u, const Matrix& v) const {
    const Matrix uv = NaiveMaskedProduct(u, v, observed);
    const Index n = u.rows();
    double err = 0.0, lqf = 0.0;
    for (Index c0 = 0; c0 < n; c0 += kChunk) {
      const Index c1 = std::min(c0 + kChunk, n);
      double err_chunk = 0.0, lqf_chunk = 0.0;
      for (Index i = c0; i < c1; ++i) {
        double row = 0.0;
        for (Index j = 0; j < xm.cols(); ++j) {
          if (!observed.Contains(i, j)) continue;
          const double diff = xm(i, j) - uv(i, j);
          row += diff * diff;
        }
        err_chunk += row;
        // Each undirected edge once, from its lower endpoint.
        for (Index q = i + 1; q < n; ++q) {
          double d2 = 0.0;
          for (Index l = 0; l < u.cols(); ++l) {
            const double diff = u(i, l) - u(q, l);
            d2 += diff * diff;
          }
          lqf_chunk += d(i, q) * d2;
        }
      }
      err += err_chunk;
      lqf += lqf_chunk;
    }
    return err + lambda * lqf;
  }

  void Step(Matrix& u, Matrix& v) const {
    // U step from (U, V).
    {
      const Matrix uv = NaiveMaskedProduct(u, v, observed);
      const Matrix du = NaiveAB(d, u);
      const Matrix wu = NaiveAB(w, u);
      Matrix next(u.rows(), u.cols());
      if (update == UpdateMethod::kMultiplicative) {
        const Matrix xv = NaiveABt(xm, v);
        const Matrix uvv = NaiveABt(uv, v);
        for (Index i = 0; i < u.rows(); ++i) {
          for (Index l = 0; l < u.cols(); ++l) {
            const double num = xv(i, l) + lambda * du(i, l);
            const double den = uvv(i, l) + lambda * wu(i, l);
            next(i, l) = u(i, l) * (num / std::max(den, eps));
          }
        }
      } else {
        Matrix residual = xm;
        residual -= uv;
        const Matrix rv = NaiveABt(residual, v);
        for (Index i = 0; i < u.rows(); ++i) {
          for (Index l = 0; l < u.cols(); ++l) {
            const double lu = lambda * (wu(i, l) - du(i, l));
            const double g = (2.0 * theta) * (rv(i, l) - lu);
            next(i, l) = std::max(u(i, l) + g, 0.0);
          }
        }
      }
      u = next;
    }
    // V step from (U_new, V), free columns only.
    {
      const Matrix uv = NaiveMaskedProduct(u, v, observed);
      const Matrix num = NaiveAtB(u, xm);
      const Matrix den = NaiveAtB(u, uv);
      for (Index l = 0; l < v.rows(); ++l) {
        for (Index j = v_begin; j < v.cols(); ++j) {
          if (update == UpdateMethod::kMultiplicative) {
            v(l, j) = v(l, j) * (num(l, j) / std::max(den(l, j), eps));
          } else {
            const double g = 2.0 * theta * (num(l, j) - den(l, j));
            v(l, j) = std::max(0.0, v(l, j) + g);
          }
        }
      }
    }
  }
};

struct Problem {
  std::string name;
  Matrix x;
  Mask observed;
  NeighborGraph graph;
};

// n x 7 table in [0, 1): two smooth spatial coordinates plus five
// attributes that vary with them, each cell observed at `rate`, and row 3
// never observed.
Problem MakeProblem(Index n, double rate, uint64_t seed) {
  Problem p;
  p.name = std::to_string(n) + "x" + std::to_string(kCols) + " @ " +
           std::to_string(static_cast<int>(rate * 100)) + "%";
  Rng rng(seed);
  p.x = Matrix(n, kCols);
  for (Index i = 0; i < n; ++i) {
    const double a = rng.Uniform(), b = rng.Uniform();
    p.x(i, 0) = a;
    p.x(i, 1) = b;
    for (Index j = kSpatial; j < kCols; ++j) {
      const double t = 0.5 * a * static_cast<double>(j) / kCols + 0.3 * b;
      p.x(i, j) = std::min(0.999, t + 0.1 * rng.Uniform());
    }
  }
  p.observed = Mask(n, kCols);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < kCols; ++j) {
      p.observed.Set(i, j, i != 3 && rng.Uniform() < rate);
    }
  }
  auto graph = NeighborGraph::Build(p.x.Block(0, 0, n, kSpatial), 3);
  SMFL_CHECK(graph.ok());
  p.graph = std::move(graph).value();
  // Non-unit edge weights, so every graph product multiplies for real.
  SMFL_CHECK(p.graph.ApplyHeatKernelWeights(p.x.Block(0, 0, n, kSpatial)).ok());
  return p;
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

TEST(SmflOracleTest, FitMatchesNaiveDenseUpdatesBitwise) {
  std::vector<Problem> problems;
  problems.push_back(MakeProblem(60, 0.1, 11));
  problems.push_back(MakeProblem(60, 0.5, 12));
  problems.push_back(MakeProblem(60, 1.0, 13));
  // Several 64-row reduction chunks.
  problems.push_back(MakeProblem(150, 0.3, 14));

  for (const Problem& p : problems) {
    for (const Index rank : kRanks) {
      for (const char* method : {"SMFL", "SMF", "NMF"}) {
        for (UpdateMethod rule :
             {UpdateMethod::kMultiplicative, UpdateMethod::kGradientDescent}) {
          const std::string name = method;
          SmflOptions options;
          options.rank = rank;
          options.use_landmarks = name == "SMFL";
          options.lambda = name == "NMF" ? 0.0 : 0.5;
          options.update = rule;
          options.learning_rate = 0.05;
          options.tolerance = -std::numeric_limits<double>::infinity();
          options.seed = 29;
          const std::string label =
              p.name + " rank " + std::to_string(rank) + " " + name +
              (rule == UpdateMethod::kMultiplicative ? " multiplicative"
                                                     : " gradient");

          options.max_iterations = 0;
          auto init = core::FitSmflWithGraph(p.x, p.observed, kSpatial,
                                             p.graph, options);
          ASSERT_TRUE(init.ok()) << label << ": " << init.status().ToString();

          Oracle oracle;
          oracle.xm = data::ApplyMask(p.x, p.observed);
          oracle.observed = p.observed;
          oracle.d = p.graph.DenseD();
          oracle.w = p.graph.DenseW();
          oracle.lambda = options.lambda;
          oracle.update = rule;
          oracle.theta = options.learning_rate;
          oracle.v_begin = options.use_landmarks ? kSpatial : 0;

          Matrix u = init->u, v = init->v;
          std::vector<double> trace = {oracle.Objective(u, v)};
          ASSERT_EQ(init->report.objective_trace.size(), 1u) << label;
          ASSERT_EQ(init->report.objective_trace[0], trace[0]) << label;
          for (int t = 0; t < kIterations; ++t) {
            oracle.Step(u, v);
            trace.push_back(oracle.Objective(u, v));
          }

          options.max_iterations = kIterations;
          for (int threads : {1, 4}) {
            for (int simd : {0, 1}) {
              la::simd::ScopedSimd tier(simd);
              options.threads = threads;
              const std::string run = label + " @ " + std::to_string(threads) +
                                      " threads, simd " + std::to_string(simd);
              auto fit = core::FitSmflWithGraph(p.x, p.observed, kSpatial,
                                                p.graph, options);
              ASSERT_TRUE(fit.ok()) << run << ": " << fit.status().ToString();
              // The oracle has no rollback; a healthy run never needs one.
              EXPECT_EQ(fit->report.rollbacks, 0) << run;
              ASSERT_EQ(fit->report.objective_trace.size(), trace.size())
                  << run;
              for (size_t t = 0; t < trace.size(); ++t) {
                ASSERT_EQ(fit->report.objective_trace[t], trace[t])
                    << run << " trace index " << t;
              }
              ExpectBitwiseEqual(fit->u, u, run + " U");
              ExpectBitwiseEqual(fit->v, v, run + " V");
            }
          }
        }
      }
    }
  }
}

// The oracle's setup for one problem under `options` (rule, λ, θ, the
// landmark choice), started from the fit's own initialization.
Oracle MakeOracle(const Problem& p, const SmflOptions& options) {
  Oracle oracle;
  oracle.xm = data::ApplyMask(p.x, p.observed);
  oracle.observed = p.observed;
  oracle.d = p.graph.DenseD();
  oracle.w = p.graph.DenseW();
  oracle.lambda = options.lambda;
  oracle.update = options.update;
  oracle.theta = options.learning_rate;
  oracle.v_begin = options.use_landmarks ? kSpatial : 0;
  return oracle;
}

// Fits under `options` at threads {1, 4} × SIMD {0, 1} and requires the
// oracle's trace, U and V bit for bit and `rollbacks` guard rollbacks.
// With nan_at >= 0 the smfl.update.nan fault poisons that iteration.
void ExpectFitMatches(const Problem& p, SmflOptions options,
                      const std::vector<double>& trace, const Matrix& u,
                      const Matrix& v, const std::string& label,
                      int rollbacks = 0, int nan_at = -1) {
  for (int threads : {1, 4}) {
    for (int simd : {0, 1}) {
      la::simd::ScopedSimd tier(simd);
      options.threads = threads;
      const std::string run = label + " @ " + std::to_string(threads) +
                              " threads, simd " + std::to_string(simd);
      FaultSpec spec;
      spec.skip = nan_at;
      spec.count = 1;
      std::optional<ScopedFault> fault;
      if (nan_at >= 0) fault.emplace("smfl.update.nan", spec);
      auto fit =
          core::FitSmflWithGraph(p.x, p.observed, kSpatial, p.graph, options);
      ASSERT_TRUE(fit.ok()) << run << ": " << fit.status().ToString();
      ASSERT_EQ(fit->report.objective_trace.size(), trace.size()) << run;
      for (size_t t = 0; t < trace.size(); ++t) {
        ASSERT_EQ(fit->report.objective_trace[t], trace[t])
            << run << " trace index " << t;
      }
      EXPECT_EQ(fit->report.rollbacks, rollbacks) << run;
      ExpectBitwiseEqual(fit->u, u, run + " U");
      ExpectBitwiseEqual(fit->v, v, run + " V");
    }
  }
}

// A tolerance that stops the fit mid-run: every iteration's row pass has
// already taken the next U step when the stop fires, and the fit must
// discard it — U, V and the trace are the oracle's at the stopping
// iteration.
TEST(SmflOracleTest, ToleranceStopMidRunMatchesOracleBitwise) {
  const Problem p = MakeProblem(150, 0.3, 15);
  for (UpdateMethod rule :
       {UpdateMethod::kMultiplicative, UpdateMethod::kGradientDescent}) {
    SmflOptions options;
    options.rank = 10;
    options.update = rule;
    options.learning_rate = 0.05;
    options.seed = 31;
    options.max_iterations = 0;
    auto init =
        core::FitSmflWithGraph(p.x, p.observed, kSpatial, p.graph, options);
    ASSERT_TRUE(init.ok()) << init.status().ToString();
    const Oracle oracle = MakeOracle(p, options);

    // Run the oracle to 60 iterations, then pick the tolerance that stops
    // it at iteration 12: the relative improvement there, nudged up.
    constexpr int kCap = 60, kStop = 12;
    Matrix u = init->u, v = init->v;
    std::vector<double> trace = {oracle.Objective(u, v)};
    std::vector<Matrix> us = {u}, vs = {v};
    for (int t = 0; t < kCap; ++t) {
      oracle.Step(u, v);
      trace.push_back(oracle.Objective(u, v));
      us.push_back(u);
      vs.push_back(v);
    }
    const auto improvement = [&](size_t t) {
      return (trace[t - 1] - trace[t]) / trace[t - 1];
    };
    options.tolerance = improvement(kStop) * (1.0 + 1e-9);
    size_t stop = 1;
    while (stop < trace.size() &&
           !mf::RelativeImprovementBelow(
               std::vector<double>(trace.begin(), trace.begin() + stop + 1),
               options.tolerance)) {
      ++stop;
    }
    const std::string label =
        std::string("tolerance stop ") +
        (rule == UpdateMethod::kMultiplicative ? "multiplicative"
                                               : "gradient");
    ASSERT_LT(stop, static_cast<size_t>(kCap)) << label;
    options.max_iterations = kCap;
    ExpectFitMatches(p, options,
                     std::vector<double>(trace.begin(),
                                         trace.begin() + stop + 1),
                     us[stop], vs[stop], label);
  }
}

// The guard, refreshing its checkpoint every core::kCheckpointInterval
// iterations over a healthy 60-iteration fit, observes every objective and
// never rolls back, so the trajectory is the oracle's bit for bit.
TEST(SmflOracleTest, GuardedFitMatchesOracleBitwise) {
  const Problem p = MakeProblem(150, 0.5, 16);
  for (const char* method : {"SMFL", "NMF"}) {
    SmflOptions options;
    options.rank = 10;
    options.use_landmarks = std::string(method) == "SMFL";
    options.lambda = std::string(method) == "NMF" ? 0.0 : 0.5;
    options.tolerance = -std::numeric_limits<double>::infinity();
    options.seed = 37;
    options.max_iterations = 0;
    auto init =
        core::FitSmflWithGraph(p.x, p.observed, kSpatial, p.graph, options);
    ASSERT_TRUE(init.ok()) << init.status().ToString();
    const Oracle oracle = MakeOracle(p, options);
    Matrix u = init->u, v = init->v;
    std::vector<double> trace = {oracle.Objective(u, v)};
    for (int t = 0; t < 60; ++t) {
      oracle.Step(u, v);
      trace.push_back(oracle.Objective(u, v));
    }
    options.max_iterations = 60;
    ExpectFitMatches(p, options, trace, u, v,
                     std::string("guarded ") + method);
  }
}

// A rollback: the smfl.update.nan fault poisons iteration 32, the guard
// restores the checkpoint it took after iteration 25, one
// core::kCheckpointInterval in, and widens ε by core::kEpsBump, and the fit
// continues from there — the restored state's U step comes from a fresh
// row pass, not from the poisoned one. The oracle replays it: iterations
// 0..25 at ε, then the remaining 17 at the widened ε from the same state;
// the trace keeps the accepted entries only.
TEST(SmflOracleTest, RolledBackFitMatchesOracleBitwise) {
  const Problem p = MakeProblem(150, 0.5, 17);
  SmflOptions options;
  options.rank = 10;
  options.tolerance = -std::numeric_limits<double>::infinity();
  options.seed = 41;
  options.max_iterations = 0;
  auto init =
      core::FitSmflWithGraph(p.x, p.observed, kSpatial, p.graph, options);
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  Oracle oracle = MakeOracle(p, options);
  constexpr int kCap = 50, kNanAt = 32, kCheckpoint = core::kCheckpointInterval;
  Matrix u = init->u, v = init->v;
  std::vector<double> trace = {oracle.Objective(u, v)};
  for (int t = 0; t <= kCheckpoint; ++t) {
    oracle.Step(u, v);
    trace.push_back(oracle.Objective(u, v));
  }
  oracle.eps = mf::kDivEps * core::kEpsBump;
  for (int t = kNanAt + 1; t < kCap; ++t) {
    oracle.Step(u, v);
    trace.push_back(oracle.Objective(u, v));
  }
  options.max_iterations = kCap;
  ExpectFitMatches(p, options, trace, u, v, "rolled back", 1, kNanAt);
}

}  // namespace
}  // namespace smfl
