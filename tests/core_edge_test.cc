// Edge-case and property coverage for the core SMFL machinery beyond
// core_test.cc: degenerate geometries, extreme ranks, option interactions,
// and the efficiency claim (landmark columns of V skip their update).

#include <gtest/gtest.h>

#include <cmath>
#include <ctime>

#include "src/core/landmarks.h"
#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Scenario {
  Matrix truth;
  Mask observed;
  Matrix input;
};

Scenario MakeScenario(Index rows, double missing_rate, uint64_t seed) {
  auto dataset = data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Scenario s;
  s.truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = missing_rate;
  inject.preserve_complete_rows = 20;
  inject.seed = seed + 5;
  auto injection = data::InjectMissing(dataset->table, inject);
  SMFL_CHECK(injection.ok());
  s.observed = injection->observed;
  s.input = data::ApplyMask(s.truth, s.observed);
  return s;
}

TEST(SmflEdgeTest, AllColumnsSpatial) {
  // A matrix that is ONLY coordinates: legal (L = M); V has no free
  // columns, so only U updates.
  Scenario s = MakeScenario(60, 0.0, 3);
  Matrix si = s.truth.Block(0, 0, 60, 2);
  SmflOptions options;
  options.rank = 4;
  options.max_iterations = 30;
  auto model = FitSmfl(si, Mask::AllSet(60, 2), 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(LandmarksIntact(model->v, model->landmarks));
  EXPECT_EQ(model->v.cols(), 2);
}

TEST(SmflEdgeTest, RankOne) {
  Scenario s = MakeScenario(80, 0.1, 5);
  SmflOptions options;
  options.rank = 1;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->u.cols(), 1);
  EXPECT_FALSE(model->Reconstruct().HasNonFinite());
}

TEST(SmflEdgeTest, RankEqualsRowCount) {
  Scenario s = MakeScenario(20, 0.1, 7);
  SmflOptions options;
  options.rank = 20;  // K = N: one landmark per observation is legal
  options.max_iterations = 20;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->landmarks.rows(), 20);
}

TEST(SmflEdgeTest, DuplicateLocations) {
  // All rows at the same location: K-means centers coincide; the fit must
  // still be finite and monotone.
  Scenario s = MakeScenario(40, 0.1, 9);
  for (Index i = 0; i < 40; ++i) {
    s.input(i, 0) = 0.5;
    s.input(i, 1) = 0.5;
  }
  SmflOptions options;
  options.rank = 5;
  options.max_iterations = 40;
  options.tolerance = 0.0;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  const auto& trace = model->report.objective_trace;
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-9));
  }
}

TEST(SmflEdgeTest, LambdaZeroEqualsLandmarkedNmf) {
  // With lambda = 0 the Laplacian term vanishes; the objective trace must
  // equal the masked reconstruction error exactly.
  Scenario s = MakeScenario(60, 0.1, 11);
  SmflOptions options;
  options.lambda = 0.0;
  options.max_iterations = 10;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  const data::ObservedIndex omega = data::ObservedIndex::FromMask(s.observed);
  const double reconstruction = data::MaskedSquaredError(
      s.input, omega, data::MaskedReconstruct(model->u, model->v, omega));
  EXPECT_NEAR(model->report.final_objective(), reconstruction, 1e-9);
}

TEST(SmflEdgeTest, TraceLengthMatchesIterations) {
  Scenario s = MakeScenario(50, 0.1, 13);
  SmflOptions options;
  options.max_iterations = 17;
  options.tolerance = 0.0;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->report.iterations, 17);
  // Initial objective + one entry per iteration.
  EXPECT_EQ(model->report.objective_trace.size(), 18u);
  EXPECT_FALSE(model->report.converged);
}

TEST(SmflEdgeTest, TinyMatrix) {
  Matrix x{{0.1, 0.2, 0.5}, {0.9, 0.8, 0.4}};
  SmflOptions options;
  options.rank = 2;
  options.num_neighbors = 1;
  options.max_iterations = 20;
  auto model = FitSmfl(x, Mask::AllSet(2, 3), 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Reconstruct().HasNonFinite());
}

TEST(SmflEdgeTest, NeighborsClampedToDataSize) {
  // p defaults to 3 but only 2 rows exist: the fit must clamp, not fail.
  Matrix x{{0.1, 0.2, 0.5}, {0.9, 0.8, 0.4}};
  SmflOptions options;
  options.rank = 2;
  options.num_neighbors = 50;
  options.max_iterations = 5;
  EXPECT_TRUE(FitSmfl(x, Mask::AllSet(2, 3), 2, options).ok());
}

TEST(SmflEdgeTest, SmflImputeDeterministicEndToEnd) {
  Scenario s = MakeScenario(70, 0.15, 17);
  SmflOptions options;
  options.max_iterations = 25;
  auto a = SmflImpute(s.input, s.observed, 2, options);
  auto b = SmflImpute(s.input, s.observed, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(*a, *b), 0.0);
}

TEST(SmflEdgeTest, LandmarkColumnsUntouchedUnderGradientDescent) {
  Scenario s = MakeScenario(60, 0.1, 19);
  SmflOptions options;
  options.update = UpdateMethod::kGradientDescent;
  options.learning_rate = 1e-3;
  options.max_iterations = 40;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(LandmarksIntact(model->v, model->landmarks));
}

// The efficiency claim of §III-A / Fig 9: SMFL's V update skips the first
// L columns, so its per-fit time must not exceed SMF's by more than noise
// (both run the same U update; SMFL adds K-means once).
TEST(SmflEdgeTest, LandmarkFreezingDoesNotSlowDown) {
  Scenario s = MakeScenario(600, 0.1, 23);
  SmflOptions options;
  options.max_iterations = 60;
  options.tolerance = 0.0;

  // Compares work, not scheduling: both fits run on the calling thread
  // (results are bitwise identical at any thread count) and are timed in
  // that thread's CPU seconds, which other processes sharing the cores do
  // not inflate the way they inflate wall-clock.
  options.threads = 1;
  const auto thread_cpu_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };

  const auto time_fit = [&](bool landmarks) {
    SmflOptions o = options;
    o.use_landmarks = landmarks;
    // Warm-up + timed run; coarse but stable enough for a 1.5x bound.
    (void)FitSmfl(s.input, s.observed, 2, o);
    const double start = thread_cpu_seconds();
    auto model = FitSmfl(s.input, s.observed, 2, o);
    SMFL_CHECK(model.ok());
    return thread_cpu_seconds() - start;
  };
  const double smf_seconds = time_fit(false);
  const double smfl_seconds = time_fit(true);
  EXPECT_LT(smfl_seconds, smf_seconds * 1.5)
      << "SMFL " << smfl_seconds << "s vs SMF " << smf_seconds << "s";
}

TEST(LandmarkEdgeTest, SingleLandmark) {
  auto dataset = data::MakeLakeLike(50, 25);
  Matrix si = dataset->table.SpatialInfo();
  auto landmarks = GenerateLandmarks(si, 1);
  ASSERT_TRUE(landmarks.ok());
  // One cluster: its center is the centroid.
  la::Vector mean = la::ColMeans(si);
  EXPECT_NEAR((*landmarks)(0, 0), mean[0], 1e-9);
  EXPECT_NEAR((*landmarks)(0, 1), mean[1], 1e-9);
}

TEST(LandmarkEdgeTest, DeterministicAcrossCalls) {
  auto dataset = data::MakeLakeLike(200, 27);
  Matrix si = dataset->table.SpatialInfo();
  auto a = GenerateLandmarks(si, 6);
  auto b = GenerateLandmarks(si, 6);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(*a, *b), 0.0);
}

}  // namespace
}  // namespace smfl::core
