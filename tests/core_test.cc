#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/core/feature_geometry.h"
#include "src/core/landmarks.h"
#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/la/ops.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Scenario {
  Matrix truth;      // normalized ground truth
  Mask observed;     // Ω
  Matrix input;      // scrubbed input (zeros in Ψ)
  Index spatial_cols = 2;
};

Scenario MakeScenario(Index rows, double missing_rate, uint64_t seed) {
  auto dataset = data::MakeVehicleLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Scenario s;
  s.truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = missing_rate;
  inject.preserve_complete_rows = 20;
  inject.seed = seed + 1;
  auto injection = data::InjectMissing(dataset->table, inject);
  SMFL_CHECK(injection.ok());
  s.observed = injection->observed;
  s.input = data::ApplyMask(s.truth, s.observed);
  return s;
}

// ---------------------------------------------------------------- landmarks

TEST(LandmarkTest, GeneratesRankCenters) {
  auto dataset = data::MakeLakeLike(300, 3);
  Matrix si = dataset->table.SpatialInfo();
  auto landmarks = GenerateLandmarks(si, 5);
  ASSERT_TRUE(landmarks.ok());
  EXPECT_EQ(landmarks->rows(), 5);
  EXPECT_EQ(landmarks->cols(), 2);
}

TEST(LandmarkTest, CentersInsideDataRange) {
  auto dataset = data::MakeLakeLike(300, 5);
  Matrix si = dataset->table.SpatialInfo();
  auto landmarks = GenerateLandmarks(si, 4);
  ASSERT_TRUE(landmarks.ok());
  double lat_lo = 1e300, lat_hi = -1e300, lon_lo = 1e300, lon_hi = -1e300;
  for (Index i = 0; i < si.rows(); ++i) {
    lat_lo = std::min(lat_lo, si(i, 0));
    lat_hi = std::max(lat_hi, si(i, 0));
    lon_lo = std::min(lon_lo, si(i, 1));
    lon_hi = std::max(lon_hi, si(i, 1));
  }
  for (Index k = 0; k < 4; ++k) {
    EXPECT_GE((*landmarks)(k, 0), lat_lo);
    EXPECT_LE((*landmarks)(k, 0), lat_hi);
    EXPECT_GE((*landmarks)(k, 1), lon_lo);
    EXPECT_LE((*landmarks)(k, 1), lon_hi);
  }
}

TEST(LandmarkTest, InjectAndVerify) {
  Matrix v(3, 5, 9.0);
  Matrix c{{1, 2}, {3, 4}, {5, 6}};
  InjectLandmarks(v, c);
  EXPECT_DOUBLE_EQ(v(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(v(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(v(0, 2), 9.0);  // non-landmark columns untouched
  EXPECT_TRUE(LandmarksIntact(v, c));
  v(0, 0) += 1e-9;
  EXPECT_FALSE(LandmarksIntact(v, c));
}

TEST(LandmarkTest, RejectsBadRank) {
  Matrix si(10, 2, 0.5);
  EXPECT_FALSE(GenerateLandmarks(si, 0).ok());
  EXPECT_FALSE(GenerateLandmarks(si, 11).ok());
  EXPECT_FALSE(GenerateLandmarks(Matrix(), 2).ok());
}

// ---------------------------------------------------------------- SMFL fit

TEST(SmflTest, InputValidation) {
  Scenario s = MakeScenario(60, 0.1, 1);
  SmflOptions options;
  EXPECT_FALSE(FitSmfl(Matrix(), Mask(), 2, options).ok());
  EXPECT_FALSE(FitSmfl(s.input, Mask(3, 3), 2, options).ok());  // shape
  options.rank = 0;
  EXPECT_FALSE(FitSmfl(s.input, s.observed, 2, options).ok());
  options.rank = 5;
  options.lambda = -1.0;
  EXPECT_FALSE(FitSmfl(s.input, s.observed, 2, options).ok());
  // Non-finite settings are refused by name, not run into a divergence.
  const double inf = std::numeric_limits<double>::infinity();
  for (double lambda : {std::nan(""), inf}) {
    options.lambda = lambda;
    auto fit = FitSmfl(s.input, s.observed, 2, options);
    EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument) << lambda;
    EXPECT_NE(fit.status().message().find("lambda"), std::string::npos)
        << fit.status().ToString();
  }
  options.lambda = 0.05;
  options.update = UpdateMethod::kGradientDescent;
  options.learning_rate = inf;
  auto fit = FitSmfl(s.input, s.observed, 2, options);
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fit.status().message().find("learning_rate"), std::string::npos)
      << fit.status().ToString();
  options.update = UpdateMethod::kMultiplicative;
  EXPECT_FALSE(FitSmfl(s.input, s.observed, 0, options).ok());  // L < 1
  EXPECT_FALSE(
      FitSmfl(s.input, s.observed, s.input.cols() + 1, options).ok());
}

TEST(SmflTest, LandmarksFrozenThroughTraining) {
  Scenario s = MakeScenario(150, 0.15, 2);
  SmflOptions options;
  options.rank = 5;
  options.max_iterations = 60;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  // The first L columns of V must equal the landmark matrix bit-for-bit.
  EXPECT_TRUE(LandmarksIntact(model->v, model->landmarks));
}

TEST(SmflTest, SmfHasNoLandmarks) {
  Scenario s = MakeScenario(100, 0.1, 3);
  SmflOptions options;
  options.use_landmarks = false;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->landmarks.size(), 0);
}

// The paper's Propositions 5 and 7: multiplicative updates never increase
// the objective. Swept over λ, rank, and landmarks on/off.
class SmflMonotoneTest
    : public ::testing::TestWithParam<std::tuple<double, int, bool>> {};

TEST_P(SmflMonotoneTest, ObjectiveNonIncreasing) {
  const auto [lambda, rank, use_landmarks] = GetParam();
  Scenario s = MakeScenario(80, 0.2, 11);
  SmflOptions options;
  options.lambda = lambda;
  options.rank = rank;
  options.use_landmarks = use_landmarks;
  options.max_iterations = 80;
  options.tolerance = 0.0;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  const auto& trace = model->report.objective_trace;
  ASSERT_GT(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-9))
        << "lambda=" << lambda << " rank=" << rank
        << " landmarks=" << use_landmarks << " iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmflMonotoneTest,
    ::testing::Combine(::testing::Values(0.0, 0.01, 0.1, 1.0),
                       ::testing::Values(3, 6),
                       ::testing::Bool()));

TEST(SmflTest, FactorsNonnegative) {
  Scenario s = MakeScenario(90, 0.1, 13);
  auto model = FitSmfl(s.input, s.observed, 2, SmflOptions{});
  ASSERT_TRUE(model.ok());
  for (Index i = 0; i < model->u.size(); ++i) {
    EXPECT_GE(model->u.data()[i], 0.0);
  }
  for (Index i = 0; i < model->v.size(); ++i) {
    EXPECT_GE(model->v.data()[i], 0.0);
  }
}

TEST(SmflTest, DeterministicPerSeed) {
  Scenario s = MakeScenario(70, 0.1, 17);
  SmflOptions options;
  options.max_iterations = 40;
  auto a = FitSmfl(s.input, s.observed, 2, options);
  auto b = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(a->u, b->u), 0.0);
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(a->v, b->v), 0.0);
}

TEST(SmflTest, GradientDescentVariantRuns) {
  Scenario s = MakeScenario(80, 0.1, 19);
  SmflOptions options;
  options.update = UpdateMethod::kGradientDescent;
  options.learning_rate = 1e-3;
  options.max_iterations = 100;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->u.HasNonFinite());
  // GD must also make progress from the random initialization.
  const auto& trace = model->report.objective_trace;
  EXPECT_LT(trace.back(), trace.front());
}

TEST(SmflTest, GradientDescentRejectsBadLearningRate) {
  Scenario s = MakeScenario(30, 0.1, 23);
  SmflOptions options;
  options.update = UpdateMethod::kGradientDescent;
  options.learning_rate = 0.0;
  EXPECT_FALSE(FitSmfl(s.input, s.observed, 2, options).ok());
}

// The headline claim, as a statistical property on synthetic data:
// SMFL <= SMF <= NMF-ish in imputation RMS (allow small slack for noise).
TEST(SmflTest, LandmarksAndRegularizationImproveImputation) {
  // Averaged over seeds at the library defaults; single draws put SMFL and
  // SMF within each other's noise bands.
  double nmf_like = 0.0, smf = 0.0, smfl = 0.0;
  for (uint64_t seed : {29u, 57u, 83u}) {
    Scenario s = MakeScenario(800, 0.1, seed);
    auto run = [&](bool landmarks, double lambda) {
      SmflOptions options;
      options.lambda = lambda;
      options.use_landmarks = landmarks;
      auto imputed = SmflImpute(s.input, s.observed, 2, options);
      SMFL_CHECK(imputed.ok());
      auto rms = exp::RmsOverMask(*imputed, s.truth, s.observed.Complement());
      SMFL_CHECK(rms.ok());
      return *rms;
    };
    const SmflOptions defaults;
    nmf_like += run(false, 0.0);  // no spatial term at all
    smf += run(false, defaults.lambda);
    smfl += run(true, defaults.lambda);
  }
  EXPECT_LT(smf, nmf_like);
  EXPECT_LT(smfl, smf * 1.10);  // SMFL at least matches SMF
  EXPECT_LT(smfl, nmf_like);
}

TEST(SmflTest, ImputePreservesObservedEntries) {
  Scenario s = MakeScenario(100, 0.2, 31);
  auto imputed = SmflImpute(s.input, s.observed, 2, SmflOptions{});
  ASSERT_TRUE(imputed.ok());
  for (Index i = 0; i < s.input.rows(); ++i) {
    for (Index j = 0; j < s.input.cols(); ++j) {
      if (s.observed.Contains(i, j)) {
        EXPECT_DOUBLE_EQ((*imputed)(i, j), s.input(i, j));
      }
    }
  }
}

TEST(SmflTest, RepairReplacesExactlyDirtyCells) {
  auto dataset = data::MakeLakeLike(120, 37);
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Matrix truth = normalizer->Transform(dataset->table.values());
  std::vector<std::string> names;
  for (Index j = 0; j < truth.cols(); ++j) {
    names.push_back("c" + std::to_string(j));
  }
  auto table = data::Table::Create(names, truth, 2);
  data::ErrorInjectionOptions inject;
  inject.error_rate = 0.1;
  inject.preserve_complete_rows = 10;
  auto injection = data::InjectErrors(*table, inject);
  ASSERT_TRUE(injection.ok());
  auto repaired =
      SmflRepair(injection->dirty, injection->dirty_cells, 2, SmflOptions{});
  ASSERT_TRUE(repaired.ok());
  for (Index i = 0; i < truth.rows(); ++i) {
    for (Index j = 0; j < truth.cols(); ++j) {
      if (!injection->dirty_cells.Contains(i, j)) {
        EXPECT_DOUBLE_EQ((*repaired)(i, j), injection->dirty(i, j));
      }
    }
  }
  // Repair must beat leaving the dirty values in place.
  auto rms_repaired =
      exp::RmsOverMask(*repaired, truth, injection->dirty_cells);
  auto rms_dirty =
      exp::RmsOverMask(injection->dirty, truth, injection->dirty_cells);
  ASSERT_TRUE(rms_repaired.ok());
  ASSERT_TRUE(rms_dirty.ok());
  EXPECT_LT(*rms_repaired, *rms_dirty);
}

TEST(SmflTest, WithGraphReusesCallerGraph) {
  Scenario s = MakeScenario(80, 0.1, 41);
  Matrix si = s.input.Block(0, 0, s.input.rows(), 2);
  auto graph = spatial::NeighborGraph::Build(si, 3);
  ASSERT_TRUE(graph.ok());
  SmflOptions options;
  options.max_iterations = 30;
  auto via_graph = FitSmflWithGraph(s.input, s.observed, 2, *graph, options);
  ASSERT_TRUE(via_graph.ok());
  auto direct = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(direct.ok());
  // SI is fully observed in this scenario, so both paths build the same
  // graph and must produce identical factors.
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(via_graph->u, direct->u), 0.0);
}

TEST(SmflTest, HandlesRowsWithNoObservedAttributes) {
  // A row observed only in its spatial columns must not break the fit.
  Scenario s = MakeScenario(50, 0.1, 43);
  for (Index j = 2; j < s.input.cols(); ++j) {
    s.observed.Set(5, j, false);
    s.input(5, j) = 0.0;
  }
  auto model = FitSmfl(s.input, s.observed, 2, SmflOptions{});
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Reconstruct().HasNonFinite());
}

// ---------------------------------------------------------- feature geometry

TEST(FeatureGeometryTest, AllInsideBox) {
  Matrix obs{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  Matrix feats{{0.5, 0.5}, {0.2, 0.8}};
  auto stats = ComputeFeatureGeometry(obs, feats);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->fraction_in_bounding_box, 1.0);
}

TEST(FeatureGeometryTest, OutsidePointDetected) {
  Matrix obs{{0, 0}, {1, 1}};
  Matrix feats{{0.5, 0.5}, {5.0, 5.0}};
  auto stats = ComputeFeatureGeometry(obs, feats);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->fraction_in_bounding_box, 0.5);
  EXPECT_NEAR(stats->max_distance_to_nearest_observation,
              std::sqrt(2.0) * 4.0, 1e-9);
}

TEST(FeatureGeometryTest, SmflFeaturesCloserThanFreeFeatures) {
  // The Fig 5 claim quantified: landmarked feature locations sit closer to
  // the data than SMF's free feature locations.
  Scenario s = MakeScenario(250, 0.1, 47);
  Matrix si = s.truth.Block(0, 0, s.truth.rows(), 2);
  SmflOptions options;
  options.rank = 5;
  options.max_iterations = 120;
  options.use_landmarks = true;
  auto smfl = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(smfl.ok());
  options.use_landmarks = false;
  auto smf = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(smf.ok());
  auto g_smfl = ComputeFeatureGeometry(si, smfl->FeatureLocations());
  auto g_smf = ComputeFeatureGeometry(si, smf->FeatureLocations());
  ASSERT_TRUE(g_smfl.ok());
  ASSERT_TRUE(g_smf.ok());
  EXPECT_LE(g_smfl->mean_distance_to_nearest_observation,
            g_smf->mean_distance_to_nearest_observation);
  EXPECT_DOUBLE_EQ(g_smfl->fraction_in_bounding_box, 1.0);
}

TEST(FeatureGeometryTest, RejectsBadInput) {
  EXPECT_FALSE(ComputeFeatureGeometry(Matrix(), Matrix(1, 2)).ok());
  EXPECT_FALSE(ComputeFeatureGeometry(Matrix(2, 2), Matrix(1, 3)).ok());
}

}  // namespace
}  // namespace smfl::core
