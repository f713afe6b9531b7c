#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/core/smfl.h"
#include "src/data/inject.h"
#include "src/la/ops.h"
#include "src/mf/pca.h"
#include "src/mf/softimpute.h"
#include "src/mf/svt.h"

namespace smfl::mf {
namespace {

using data::Mask;

// Nonnegative rank-r matrix UV with uniform factors.
Matrix LowRankNonnegative(Index n, Index m, Index r, uint64_t seed) {
  Rng rng(seed);
  Matrix u(n, r), v(r, m);
  for (Index i = 0; i < u.size(); ++i) u.data()[i] = rng.Uniform(0.0, 1.0);
  for (Index i = 0; i < v.size(); ++i) v.data()[i] = rng.Uniform(0.0, 1.0);
  return u * v;
}

Mask RandomMask(Index n, Index m, double observed_rate, uint64_t seed) {
  Rng rng(seed);
  Mask mask(n, m);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      if (rng.Bernoulli(observed_rate)) mask.Set(i, j);
    }
  }
  // Guarantee at least one observation per row and column.
  for (Index i = 0; i < n; ++i) mask.Set(i, static_cast<Index>(i % m));
  return mask;
}

// ---------------------------------------------------------------- NMF
//
// NMF is the core SMFL loop with λ = 0 and no landmarks (Φ = ∅); seed 3 is
// NMF's default. Spatial columns play no part in that configuration.

core::SmflOptions NmfConfig() {
  core::SmflOptions options;
  options.lambda = 0.0;
  options.use_landmarks = false;
  options.seed = 3;
  return options;
}

Result<core::SmflModel> NmfFit(const Matrix& x, const Mask& observed,
                               const core::SmflOptions& options) {
  return core::FitSmfl(x, observed, /*spatial_cols=*/1, options);
}

TEST(NmfTest, ReconstructsFullyObservedLowRank) {
  Matrix x = LowRankNonnegative(30, 8, 3, 1);
  core::SmflOptions options = NmfConfig();
  options.rank = 3;
  options.max_iterations = 2000;
  options.tolerance = 1e-12;
  auto model = NmfFit(x, Mask::AllSet(30, 8), options);
  ASSERT_TRUE(model.ok());
  const double rel = la::FrobeniusNorm(x - model->Reconstruct()) /
                     la::FrobeniusNorm(x);
  EXPECT_LT(rel, 0.02);
}

// The paper's convergence theorem specialized to plain NMF: the objective
// must never increase across iterations, for any rank / density / seed.
class NmfMonotoneTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(NmfMonotoneTest, ObjectiveNonIncreasing) {
  const auto [rank, density, seed] = GetParam();
  Matrix x = LowRankNonnegative(25, 7, 4, 100 + seed);
  Mask mask = RandomMask(25, 7, density, 200 + seed);
  core::SmflOptions options = NmfConfig();
  options.rank = rank;
  options.max_iterations = 150;
  options.tolerance = 0.0;  // run every iteration
  options.seed = static_cast<uint64_t>(seed);
  auto model = NmfFit(x, mask, options);
  ASSERT_TRUE(model.ok());
  const auto& trace = model->report.objective_trace;
  ASSERT_GT(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-9))
        << "objective increased at iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NmfMonotoneTest,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(0.5, 0.8, 1.0),
                       ::testing::Values(1, 2)));

TEST(NmfTest, FactorsStayNonnegative) {
  Matrix x = LowRankNonnegative(20, 6, 3, 3);
  auto model = NmfFit(x, RandomMask(20, 6, 0.7, 5), NmfConfig());
  ASSERT_TRUE(model.ok());
  for (Index i = 0; i < model->u.size(); ++i) {
    EXPECT_GE(model->u.data()[i], 0.0);
  }
  for (Index i = 0; i < model->v.size(); ++i) {
    EXPECT_GE(model->v.data()[i], 0.0);
  }
}

TEST(NmfTest, ImputePreservesObserved) {
  Matrix x = LowRankNonnegative(15, 5, 2, 7);
  Mask mask = RandomMask(15, 5, 0.6, 9);
  auto imputed = core::SmflImpute(x, mask, /*spatial_cols=*/1, NmfConfig());
  ASSERT_TRUE(imputed.ok());
  for (Index i = 0; i < 15; ++i) {
    for (Index j = 0; j < 5; ++j) {
      if (mask.Contains(i, j)) {
        EXPECT_DOUBLE_EQ((*imputed)(i, j), x(i, j));
      }
    }
  }
}

TEST(NmfTest, RejectsBadInput) {
  Matrix x(3, 3, 1.0);
  EXPECT_FALSE(NmfFit(Matrix(), Mask(), NmfConfig()).ok());
  core::SmflOptions options = NmfConfig();
  options.rank = 0;
  EXPECT_FALSE(NmfFit(x, Mask::AllSet(3, 3), options).ok());
  // Negative observed entry.
  Matrix neg = x;
  neg(0, 0) = -1.0;
  EXPECT_FALSE(NmfFit(neg, Mask::AllSet(3, 3), NmfConfig()).ok());
  // Negative value hidden by the mask is fine (and rank 10 > 3 rows is
  // legal without landmarks).
  Mask partial = Mask::AllSet(3, 3);
  partial.Set(0, 0, false);
  EXPECT_TRUE(NmfFit(neg, partial, NmfConfig()).ok());
  // NaN rejected.
  Matrix nan_x = x;
  nan_x(1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(NmfFit(nan_x, Mask::AllSet(3, 3), NmfConfig()).ok());
}

TEST(NmfTest, HandlesAllZeroColumn) {
  Matrix x = LowRankNonnegative(10, 4, 2, 11);
  for (Index i = 0; i < 10; ++i) x(i, 2) = 0.0;
  auto model = NmfFit(x, Mask::AllSet(10, 4), NmfConfig());
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Reconstruct().HasNonFinite());
}

TEST(NmfTest, EarlyStopReportsConvergence) {
  // Under-ranked fit: the objective floors at a positive value, so the
  // relative-improvement criterion must trigger well before the budget.
  // (Exactly factorizable data decays geometrically forever and is the
  // documented case where early stop cannot fire.)
  Matrix x = LowRankNonnegative(20, 5, 4, 13);
  core::SmflOptions options = NmfConfig();
  options.rank = 2;
  options.max_iterations = 5000;
  options.tolerance = 1e-7;
  auto model = NmfFit(x, Mask::AllSet(20, 5), options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->report.converged);
  EXPECT_LT(model->report.iterations, 5000);
}

// ---------------------------------------------------------------- SVT

TEST(SvtTest, CompletesLowRankMatrix) {
  Matrix x = LowRankNonnegative(40, 10, 2, 17);
  Mask mask = RandomMask(40, 10, 0.7, 19);
  SvtOptions options;
  options.max_iterations = 500;
  auto result = CompleteSvt(x, mask, options);
  ASSERT_TRUE(result.ok());
  // Error on the HIDDEN entries must be small relative to the data scale.
  double err = 0.0, scale = 0.0;
  Index count = 0;
  for (Index i = 0; i < 40; ++i) {
    for (Index j = 0; j < 10; ++j) {
      if (mask.Contains(i, j)) continue;
      err += std::pow(result->completed(i, j) - x(i, j), 2);
      scale += x(i, j) * x(i, j);
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_LT(std::sqrt(err / scale), 0.35);
}

TEST(SvtTest, RejectsDegenerateInput) {
  EXPECT_FALSE(CompleteSvt(Matrix(), Mask(), SvtOptions{}).ok());
  Matrix x(3, 3, 1.0);
  EXPECT_FALSE(CompleteSvt(x, Mask(3, 3), SvtOptions{}).ok());  // empty Ω
}

// ---------------------------------------------------------------- SoftImpute

TEST(SoftImputeTest, CompletesLowRankMatrix) {
  Matrix x = LowRankNonnegative(40, 10, 2, 23);
  Mask mask = RandomMask(40, 10, 0.7, 29);
  auto result = CompleteSoftImpute(x, mask, SoftImputeOptions{});
  ASSERT_TRUE(result.ok());
  double err = 0.0, scale = 0.0;
  for (Index i = 0; i < 40; ++i) {
    for (Index j = 0; j < 10; ++j) {
      if (mask.Contains(i, j)) continue;
      err += std::pow(result->completed(i, j) - x(i, j), 2);
      scale += x(i, j) * x(i, j);
    }
  }
  EXPECT_LT(std::sqrt(err / scale), 0.35);
}

TEST(SoftImputeTest, ConvergesAndReports) {
  Matrix x = LowRankNonnegative(20, 6, 2, 31);
  auto result = CompleteSoftImpute(x, RandomMask(20, 6, 0.8, 37),
                                   SoftImputeOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->report.iterations, 0);
  EXPECT_FALSE(result->completed.HasNonFinite());
}

// ---------------------------------------------------------------- PCA

TEST(PcaTest, RecoversVarianceDirections) {
  // Points stretched along (1, 1): first component must align with it.
  Rng rng(41);
  Matrix x(200, 2);
  for (Index i = 0; i < 200; ++i) {
    const double t = rng.Normal(0.0, 3.0);
    const double s = rng.Normal(0.0, 0.1);
    x(i, 0) = t + s + 5.0;
    x(i, 1) = t - s - 2.0;
  }
  auto pca = FitPca(x, 1);
  ASSERT_TRUE(pca.ok());
  const double c0 = pca->components(0, 0);
  const double c1 = pca->components(1, 0);
  EXPECT_NEAR(std::fabs(c0), std::sqrt(0.5), 0.05);
  EXPECT_NEAR(c0, c1, 0.05);  // same sign, equal magnitude
}

TEST(PcaTest, TransformShape) {
  Matrix x = LowRankNonnegative(30, 6, 3, 43);
  auto pca = FitPca(x, 2);
  ASSERT_TRUE(pca.ok());
  Matrix scores = pca->Transform(x);
  EXPECT_EQ(scores.rows(), 30);
  EXPECT_EQ(scores.cols(), 2);
}

TEST(PcaTest, ScoresAreCentered) {
  Matrix x = LowRankNonnegative(50, 4, 2, 47);
  auto pca = FitPca(x, 2);
  ASSERT_TRUE(pca.ok());
  la::Vector mean = la::ColMeans(pca->Transform(x));
  EXPECT_NEAR(mean[0], 0.0, 1e-8);
  EXPECT_NEAR(mean[1], 0.0, 1e-8);
}

TEST(PcaTest, ClampsKAndValidates) {
  Matrix x = LowRankNonnegative(5, 3, 2, 53);
  auto pca = FitPca(x, 100);
  ASSERT_TRUE(pca.ok());
  EXPECT_EQ(pca->components.cols(), 3);
  EXPECT_FALSE(FitPca(Matrix(), 2).ok());
  EXPECT_FALSE(FitPca(x, 0).ok());
}

}  // namespace
}  // namespace smfl::mf
