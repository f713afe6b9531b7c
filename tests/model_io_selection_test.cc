#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/common/durable_io.h"
#include "src/core/fold_in.h"
#include "src/core/model_io.h"
#include "src/core/model_selection.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/impute/eracer.h"
#include "src/impute/registry.h"
#include "src/la/ops.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Scenario {
  Matrix truth;
  Mask observed;
  Matrix input;
};

Scenario MakeScenario(Index rows, uint64_t seed) {
  auto dataset = data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Scenario s;
  s.truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.1;
  inject.seed = seed + 1;
  auto injection = data::InjectMissing(dataset->table, inject);
  SMFL_CHECK(injection.ok());
  s.observed = injection->observed;
  s.input = data::ApplyMask(s.truth, s.observed);
  return s;
}

SmflModel FitSmall(const Scenario& s) {
  SmflOptions options;
  options.rank = 4;
  options.max_iterations = 15;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  SMFL_CHECK(model.ok());
  return std::move(model).value();
}

// --------------------------------------------------------------- model io

TEST(ModelIoTest, SerializeRoundTripIsExact) {
  Scenario s = MakeScenario(60, 3);
  SmflModel model = FitSmall(s);
  model.column_names = {"lat", "lon", "a b", "", "x,y", "t", "z"};
  model.column_names.resize(static_cast<size_t>(model.v.cols()), "c");
  auto restored = DeserializeModel(SerializeModel(model));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Bit-exact: the format writes round-trip precision. The served model
  // carries mean(U) instead of U.
  EXPECT_EQ(restored->u.rows(), 0);
  const la::Vector mean = la::ColMeans(model.u);
  ASSERT_EQ(restored->mean_u.size(), mean.size());
  for (Index c = 0; c < mean.size(); ++c) {
    EXPECT_EQ(restored->mean_u[c], mean[c]) << c;
    EXPECT_EQ(restored->MeanU()[c], model.MeanU()[c]) << c;
  }
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(restored->v, model.v), 0.0);
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(restored->landmarks, model.landmarks), 0.0);
  EXPECT_EQ(restored->column_names, model.column_names);
  EXPECT_EQ(restored->spatial_cols, model.spatial_cols);
  EXPECT_EQ(restored->report.iterations, model.report.iterations);
  EXPECT_EQ(restored->report.converged, model.report.converged);
  ASSERT_EQ(restored->report.objective_trace.size(),
            model.report.objective_trace.size());
  for (size_t i = 0; i < model.report.objective_trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored->report.objective_trace[i],
                     model.report.objective_trace[i]);
  }
  // Re-saving the loaded model writes the same bytes.
  EXPECT_EQ(SerializeModel(*restored), SerializeModel(model));
}

TEST(ModelIoTest, FileRoundTrip) {
  Scenario s = MakeScenario(50, 5);
  SmflModel model = FitSmall(s);
  const std::string path =
      (std::filesystem::temp_directory_path() / "smfl_model_test.txt")
          .string();
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto restored = LoadModel(path);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok());
  // What a serving process computes — fold-in of fresh rows, including
  // the column-mean tier that reads mean(U) — must match exactly.
  Mask observed = s.observed;
  for (Index j = 0; j < observed.cols(); ++j) observed.Set(0, j, false);
  auto served = FoldIn(*restored, s.input, observed);
  auto in_process = FoldIn(model, s.input, observed);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(in_process.ok());
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(*served, *in_process), 0.0);
}

TEST(ModelIoTest, SmfModelWithoutLandmarks) {
  Scenario s = MakeScenario(40, 7);
  SmflOptions options;
  options.rank = 3;
  options.use_landmarks = false;
  options.max_iterations = 10;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok());
  auto restored = DeserializeModel(SerializeModel(*model));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->landmarks.size(), 0);
}

TEST(ModelIoTest, ModelWithoutUServesTheUniformMean) {
  // A hand-built model with neither U nor a stored mean: the column-mean
  // tier serves the uniform 1/K, before and after a save.
  SmflModel model;
  model.v = Matrix(2, 3, 0.5);
  model.spatial_cols = 1;
  auto restored = DeserializeModel(SerializeModel(model));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->mean_u.size(), 2);
  EXPECT_EQ(restored->mean_u[0], 0.5);
  EXPECT_EQ(restored->MeanU()[1], model.MeanU()[1]);
}

TEST(ModelIoTest, RejectsCorruptInput) {
  EXPECT_FALSE(DeserializeModel("").ok());
  EXPECT_FALSE(DeserializeModel("not-a-model 1").ok());
  EXPECT_FALSE(DeserializeModel("smfl-model 999\n").ok());  // bare text
  Scenario s = MakeScenario(30, 9);
  std::string good = SerializeModel(FitSmall(s));
  // Truncation anywhere must be caught by the section framing.
  EXPECT_FALSE(DeserializeModel(good.substr(0, good.size() / 2)).ok());
  // A single flipped byte anywhere in the container is a CRC (or framing)
  // mismatch -> clean DataError, never a silently wrong model.
  std::string flipped = good;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  auto bitrot = DeserializeModel(flipped);
  ASSERT_FALSE(bitrot.ok());
  EXPECT_EQ(bitrot.status().code(), StatusCode::kDataError);
  // Consistent checksums around inconsistent content: a mean(U) of the
  // wrong rank, and an unknown version.
  auto sections = ParseSections(good);
  ASSERT_TRUE(sections.ok());
  SectionWriter wrong_rank, wrong_version;
  for (const Section& sec : *sections) {
    wrong_rank.Add(sec.name, sec.name == "mean_u"
                                 ? "mean_u 1 9\n0 0 0 0 0 0 0 0 0\n"
                                 : sec.payload);
    std::string payload = sec.payload;
    if (sec.name == "meta") payload.replace(0, 12, "smfl-model 5");
    wrong_version.Add(sec.name, payload);
  }
  EXPECT_FALSE(DeserializeModel(wrong_rank.Finish()).ok());
  auto future = DeserializeModel(wrong_version.Finish());
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.status().message().find("unsupported model version 5"),
            std::string::npos)
      << future.status().ToString();
}

TEST(ModelIoTest, V4ContainerShapeHoldsNoU) {
  Scenario s = MakeScenario(40, 13);
  SmflModel model = FitSmall(s);
  const std::string serialized = SerializeModel(model);
  ASSERT_TRUE(LooksLikeDurableContainer(serialized));
  auto sections = ParseSections(serialized);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 7u);
  const char* expected[] = {"meta", "columns", "normalizer", "V",
                            "C",    "mean_u",  "trace"};
  std::string body;
  for (size_t i = 0; i < sections->size(); ++i) {
    EXPECT_EQ((*sections)[i].name, expected[i]);
    body += (*sections)[i].payload;
  }
  EXPECT_EQ(body.rfind("smfl-model 4", 0), 0u);
  // The bare body outside its container (no checksums) is not a model
  // file.
  auto bare = DeserializeModel(body);
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kDataError);
}

TEST(ModelIoTest, LoadMissingFileFails) {
  auto result = LoadModel("/nonexistent/model.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------- model selection

TEST(ModelSelectionTest, PicksAReasonableCandidate) {
  Scenario s = MakeScenario(300, 11);
  SelectionGrid grid;
  grid.lambdas = {0.01, 0.5};
  grid.ranks = {2, 10};
  grid.base.max_iterations = 60;
  auto selection = SelectSmflOptions(s.input, s.observed, 2, grid);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->candidates.size(), 4u);
  // The winner's validation RMS is the minimum of the candidates.
  for (const auto& c : selection->candidates) {
    EXPECT_GE(c.validation_rms, selection->best_validation_rms);
  }
  // The selected options must fit successfully on the full data.
  auto final_model = FitSmfl(s.input, s.observed, 2, selection->best);
  EXPECT_TRUE(final_model.ok());
}

TEST(ModelSelectionTest, SelectionImprovesOverWorstCandidate) {
  Scenario s = MakeScenario(400, 13);
  SelectionGrid grid;
  grid.lambdas = {0.001, 0.5};
  grid.ranks = {2, 10};
  grid.base.max_iterations = 80;
  auto selection = SelectSmflOptions(s.input, s.observed, 2, grid);
  ASSERT_TRUE(selection.ok());
  // Test-set check: the selected config beats the worst grid config when
  // both are refit on the full observed data and scored on ground truth.
  auto score = [&](const SmflOptions& options) {
    auto imputed = SmflImpute(s.input, s.observed, 2, options);
    SMFL_CHECK(imputed.ok());
    return *exp::RmsOverMask(*imputed, s.truth, s.observed.Complement());
  };
  double worst_rms = -1.0;
  SmflOptions worst = grid.base;
  for (const auto& c : selection->candidates) {
    if (c.validation_rms > worst_rms) {
      worst_rms = c.validation_rms;
      worst.lambda = c.lambda;
      worst.rank = c.rank;
      worst.num_neighbors = c.num_neighbors;
    }
  }
  EXPECT_LE(score(selection->best), score(worst) * 1.02);
}

TEST(ModelSelectionTest, Validation) {
  Scenario s = MakeScenario(50, 17);
  SelectionGrid grid;
  grid.lambdas = {};
  EXPECT_FALSE(SelectSmflOptions(s.input, s.observed, 2, grid).ok());
  grid = SelectionGrid{};
  grid.validation_fraction = 0.0;
  EXPECT_FALSE(SelectSmflOptions(s.input, s.observed, 2, grid).ok());
  grid.validation_fraction = 1.5;
  EXPECT_FALSE(SelectSmflOptions(s.input, s.observed, 2, grid).ok());
}

TEST(ModelSelectionTest, InfeasibleCandidatesSkipped) {
  Scenario s = MakeScenario(30, 19);
  SelectionGrid grid;
  grid.ranks = {5, 500};  // 500 > N: infeasible, must be skipped not fatal
  grid.lambdas = {0.1};
  grid.base.max_iterations = 20;
  auto selection = SelectSmflOptions(s.input, s.observed, 2, grid);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->candidates.size(), 1u);
  EXPECT_EQ(selection->best.rank, 5);
}

// --------------------------------------------------------------- ERACER

TEST(EracerTest, RegisteredAndContractHolds) {
  auto imputer = impute::MakeImputer("ERACER");
  ASSERT_TRUE(imputer.ok());
  EXPECT_EQ((*imputer)->name(), "ERACER");
  Scenario s = MakeScenario(150, 21);
  auto imputed = (*imputer)->Impute(s.input, s.observed, 2);
  ASSERT_TRUE(imputed.ok());
  EXPECT_FALSE(imputed->HasNonFinite());
  for (Index i = 0; i < s.input.rows(); ++i) {
    for (Index j = 0; j < s.input.cols(); ++j) {
      if (s.observed.Contains(i, j)) {
        EXPECT_DOUBLE_EQ((*imputed)(i, j), s.input(i, j));
      }
    }
  }
}

TEST(EracerTest, BeatsColumnMeans) {
  Scenario s = MakeScenario(400, 23);
  impute::EracerImputer eracer;
  auto imputed = eracer.Impute(s.input, s.observed, 2);
  ASSERT_TRUE(imputed.ok());
  auto mean_imputer = impute::MakeImputer("Mean");
  auto mean_imputed = (*mean_imputer)->Impute(s.input, s.observed, 2);
  ASSERT_TRUE(mean_imputed.ok());
  const Mask psi = s.observed.Complement();
  EXPECT_LT(*exp::RmsOverMask(*imputed, s.truth, psi),
            *exp::RmsOverMask(*mean_imputed, s.truth, psi));
}

TEST(EracerTest, Validation) {
  impute::EracerImputer eracer;
  EXPECT_FALSE(eracer.Impute(Matrix(), Mask(), 2).ok());
  EXPECT_FALSE(eracer.Impute(Matrix(3, 3, 0.5), Mask(1, 1), 2).ok());
}

}  // namespace
}  // namespace smfl::core
