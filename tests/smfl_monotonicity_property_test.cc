// Executable form of the paper's Propositions 5 and 7: under the
// kMultiplicative update rules the SMFL (landmarks on) and SMF (landmarks
// off) objectives are non-increasing, across many random seeds and several
// (rank, lambda, p) combinations. The TrainingGuard would repair a
// violation by rolling it back, so each fit must also report no rollback.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Combo {
  Index rank;
  double lambda;
  Index num_neighbors;
};

// Relative slack for masked-update floating-point wobble.
constexpr double kSlack = 1e-9;

void ExpectMonotoneTrace(const std::vector<double>& trace,
                         const std::string& label) {
  ASSERT_GE(trace.size(), 2u) << label;
  for (size_t i = 1; i < trace.size(); ++i) {
    ASSERT_TRUE(std::isfinite(trace[i])) << label << " iteration " << i;
    ASSERT_LE(trace[i],
              trace[i - 1] + kSlack * std::max(1.0, std::fabs(trace[i - 1])))
        << label << " increased at iteration " << i << ": " << trace[i - 1]
        << " -> " << trace[i];
  }
}

void RunPropertyFor(bool use_landmarks) {
  const Combo combos[] = {
      {2, 0.0, 2},   // no spatial term at all
      {4, 0.5, 3},   // the repository defaults
      {8, 2.0, 5},   // heavy regularization, wide graph
  };
  int fits = 0;
  for (const Combo& combo : combos) {
    for (uint64_t seed = 0; seed < 7; ++seed) {
      auto dataset = data::MakeVehicleLike(50, 100 + seed);
      ASSERT_TRUE(dataset.ok());
      auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
      Matrix truth = normalizer->Transform(dataset->table.values());
      data::MissingInjectionOptions inject;
      inject.missing_rate = 0.15;
      inject.preserve_complete_rows = 15;
      inject.seed = seed * 13 + 1;
      auto injection = data::InjectMissing(dataset->table, inject);
      ASSERT_TRUE(injection.ok());
      Matrix input = data::ApplyMask(truth, injection->observed);

      SmflOptions options;
      options.rank = combo.rank;
      options.lambda = combo.lambda;
      options.num_neighbors = combo.num_neighbors;
      options.use_landmarks = use_landmarks;
      options.update = UpdateMethod::kMultiplicative;
      options.max_iterations = 30;
      options.tolerance = 0.0;  // full trace, no early stop
      options.seed = seed * 7919 + 3;
      auto model = FitSmfl(input, injection->observed, 2, options);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      EXPECT_EQ(model->report.rollbacks, 0);
      ExpectMonotoneTrace(
          model->report.objective_trace,
          (use_landmarks ? std::string("SMFL") : std::string("SMF")) +
              " K=" + std::to_string(combo.rank) +
              " lambda=" + std::to_string(combo.lambda) +
              " p=" + std::to_string(combo.num_neighbors) +
              " seed=" + std::to_string(seed));
      ++fits;
    }
  }
  // 3 combos x 7 seeds = 21 independent fits per method (>= 20).
  EXPECT_GE(fits, 20);
}

TEST(SmflMonotonicityProperty, SmflObjectiveNonIncreasing) {
  RunPropertyFor(/*use_landmarks=*/true);
}

TEST(SmflMonotonicityProperty, SmfObjectiveNonIncreasing) {
  RunPropertyFor(/*use_landmarks=*/false);
}

}  // namespace
}  // namespace smfl::core
