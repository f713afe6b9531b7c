// Guarded-training and graceful-degradation acceptance tests: fault
// injection drives the TrainingGuard's checkpoint/rollback machinery, the
// RetryPolicy, and the fallback chains end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/common/fault.h"
#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/impute/fallback.h"
#include "src/la/ops.h"
#include "src/la/simd.h"
#include "src/repair/fallback.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Scenario {
  Matrix truth;
  Mask observed;
  Matrix input;
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

bool AllNonnegative(const Matrix& m) {
  for (Index i = 0; i < m.size(); ++i) {
    if (m.data()[i] < 0.0) return false;
  }
  return true;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

// Acceptance criterion 1: a NaN injected mid-training is detected by the
// guard, the fit rolls back to the last checkpoint, recovers, and still
// converges to a finite nonnegative factorization.
TEST_F(RobustnessTest, GuardRecoversFromInjectedNanMidTraining) {
  Scenario s = MakeScenario(80, 0.1, 42);
  FaultSpec spec;
  spec.skip = 7;  // let 7 iterations pass, poison the 8th
  spec.count = 1;
  ScopedFault fault("smfl.update.nan", spec);

  SmflOptions options;
  options.rank = 5;
  options.max_iterations = 120;
  options.guard.checkpoint_interval = 5;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // The fault actually fired and the guard actually rolled back.
  EXPECT_EQ(FaultRegistry::Global().fires("smfl.update.nan"), 1);
  EXPECT_GE(model->report.rollbacks, 1);
  EXPECT_GE(model->report.recovery_attempts, 1);

  // The fit recovered: finite objective, finite nonnegative factors.
  EXPECT_TRUE(std::isfinite(model->report.final_objective()));
  EXPECT_FALSE(model->u.HasNonFinite());
  EXPECT_FALSE(model->v.HasNonFinite());
  EXPECT_TRUE(AllNonnegative(model->u));
  EXPECT_TRUE(AllNonnegative(model->v));
  // The violating objective never entered the trace.
  const auto& trace = model->report.objective_trace;
  for (double obj : trace) EXPECT_TRUE(std::isfinite(obj));
}

// A rollback is as deterministic as the healthy path: the fresh row pass
// on the restored state (under the widened denominator floor) yields the
// same U, V, objective trace and rollback count at threads {1, 4} × SIMD
// {0, 1}.
TEST_F(RobustnessTest, RolledBackFitIsIdenticalAcrossThreadsAndSimd) {
  Scenario s = MakeScenario(150, 0.2, 45);
  SmflOptions options;
  options.rank = 6;
  options.max_iterations = 60;
  options.guard.checkpoint_interval = 5;
  SmflModel reference;
  for (int threads : {1, 4}) {
    for (int simd : {0, 1}) {
      FaultSpec spec;
      spec.skip = 12;  // poison the 13th iteration
      spec.count = 1;
      ScopedFault fault("smfl.update.nan", spec);
      la::simd::ScopedSimd tier(simd);
      options.threads = threads;
      auto model = FitSmfl(s.input, s.observed, 2, options);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      const std::string label = "threads " + std::to_string(threads) +
                                ", simd " + std::to_string(simd);
      ASSERT_EQ(model->report.rollbacks, 1) << label;
      if (threads == 1 && simd == 0) {
        reference = *model;
        continue;
      }
      EXPECT_EQ(model->report.recovery_attempts,
                reference.report.recovery_attempts)
          << label;
      ASSERT_EQ(model->report.objective_trace, reference.report.objective_trace)
          << label;
      ASSERT_EQ(model->u.size(), reference.u.size()) << label;
      for (Index i = 0; i < model->u.size(); ++i) {
        ASSERT_EQ(model->u.data()[i], reference.u.data()[i]) << label;
      }
      ASSERT_EQ(model->v.size(), reference.v.size()) << label;
      for (Index i = 0; i < model->v.size(); ++i) {
        ASSERT_EQ(model->v.data()[i], reference.v.data()[i]) << label;
      }
    }
  }
}

// An objective *increase* (monotonicity-invariant violation, Propositions
// 5/7) triggers the same rollback path even though every value is finite.
TEST_F(RobustnessTest, GuardRollsBackOnObjectiveSpike) {
  Scenario s = MakeScenario(70, 0.1, 43);
  FaultSpec spec;
  spec.skip = 10;
  spec.count = 1;
  ScopedFault fault("smfl.update.spike", spec);

  SmflOptions options;
  options.rank = 4;
  options.max_iterations = 100;
  options.guard.checkpoint_interval = 5;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GE(model->report.rollbacks, 1);
  // Trace stays monotone despite the spike: the guard discarded it.
  const auto& trace = model->report.objective_trace;
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-6) + 1e-9);
  }
}

// Acceptance criterion 2a: a permanent fault exhausts the recovery budget
// and the RetryPolicy, and the final NumericError carries the violation
// iteration and objective context.
TEST_F(RobustnessTest, ExhaustedRetryBudgetSurfacesNumericErrorWithContext) {
  Scenario s = MakeScenario(60, 0.1, 44);
  FaultSpec spec;
  spec.count = -1;  // permanent: every iteration of every attempt poisoned
  ScopedFault fault("smfl.update.nan", spec);

  SmflOptions options;
  options.rank = 4;
  options.max_iterations = 50;
  options.guard.checkpoint_interval = 5;
  options.guard.max_recovery_attempts = 2;
  options.max_numeric_retries = 1;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNumericError);
  const std::string& msg = model.status().message();
  // Context: divergence marker, iteration index, objective, attempts.
  EXPECT_NE(msg.find("diverged"), std::string::npos) << msg;
  EXPECT_NE(msg.find("iteration"), std::string::npos) << msg;
  EXPECT_NE(msg.find("objective"), std::string::npos) << msg;
  EXPECT_NE(msg.find("recovery attempt"), std::string::npos) << msg;
  // The restart loop surfaced the real error, not a generic Internal one.
  EXPECT_NE(msg.find("restart"), std::string::npos) << msg;
}

// The RetryPolicy burns its retry budget on numeric failures.
TEST_F(RobustnessTest, RetryPolicyRetriesNumericFailures) {
  Scenario s = MakeScenario(60, 0.1, 45);
  FaultSpec spec;
  spec.count = 4;  // poison attempt 1's first iterations, then relent
  spec.probability = 1.0;
  ScopedFault fault("smfl.update.nan", spec);

  SmflOptions options;
  options.rank = 4;
  options.max_iterations = 60;
  // No recovery attempts: the first NaN kills an attempt outright, so the
  // retry (not the guard) must save the fit.
  options.guard.max_recovery_attempts = 0;
  options.max_numeric_retries = 8;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GE(model->report.numeric_retries, 1);
  EXPECT_TRUE(std::isfinite(model->report.final_objective()));
}

// With the guard disabled the injected NaN is only caught by the final
// non-finite scan — the fit fails instead of recovering.
TEST_F(RobustnessTest, GuardDisabledFailsClosed) {
  Scenario s = MakeScenario(60, 0.1, 46);
  FaultSpec spec;
  spec.skip = 3;
  spec.count = 1;
  ScopedFault fault("smfl.update.nan", spec);

  SmflOptions options;
  options.rank = 4;
  options.max_iterations = 30;
  options.guard.enabled = false;
  options.max_numeric_retries = 0;
  auto model = FitSmfl(s.input, s.observed, 2, options);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNumericError);
  EXPECT_NE(model.status().message().find("iteration"), std::string::npos);
}

// Unarmed fault points must not change results: the guarded fit with no
// faults is bit-identical to the same fit with the guard disabled.
TEST_F(RobustnessTest, GuardIsTransparentWithoutFaults) {
  Scenario s = MakeScenario(60, 0.1, 47);
  SmflOptions guarded;
  guarded.rank = 4;
  guarded.max_iterations = 40;
  SmflOptions unguarded = guarded;
  unguarded.guard.enabled = false;
  auto a = FitSmfl(s.input, s.observed, 2, guarded);
  auto b = FitSmfl(s.input, s.observed, 2, unguarded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(a->u, b->u), 0.0);
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(a->v, b->v), 0.0);
  EXPECT_EQ(a->report.rollbacks, 0);
}

// Acceptance criterion 2b: when the paper's method is unavailable, the
// degradation chain serves a simpler tier and records it.
TEST_F(RobustnessTest, DegradationChainServesFallbackTier) {
  Scenario s = MakeScenario(60, 0.15, 48);
  FaultSpec spec;
  spec.count = -1;  // the shared SMFL/SMF/NMF loop permanently poisoned
  ScopedFault fault("smfl.update.nan", spec);

  impute::FallbackImputer chain;  // SMFL -> SMF -> NMF -> Mean
  mf::DegradationReport report;
  auto result = chain.ImputeWithReport(s.input, s.observed, 2, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->HasNonFinite());

  // NMF runs the same guarded loop (lambda = 0, no landmarks), so all
  // three MF tiers fail with the numeric error and the mean serves.
  EXPECT_EQ(report.served_by, "Mean");
  EXPECT_TRUE(report.degraded());
  ASSERT_EQ(report.attempts.size(), 4u);
  const char* mf_tiers[] = {"SMFL", "SMF", "NMF"};
  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(report.attempts[t].tier, mf_tiers[t]);
    EXPECT_NE(report.attempts[t].error.find("Numeric error"),
              std::string::npos)
        << mf_tiers[t] << ": " << report.attempts[t].error;
  }
  EXPECT_EQ(report.attempts[3].tier, "Mean");
  EXPECT_TRUE(report.attempts[3].error.empty());
}

TEST_F(RobustnessTest, DegradationChainHealthyPathServesPrimaryTier) {
  Scenario s = MakeScenario(60, 0.15, 49);
  impute::FallbackImputer chain;
  mf::DegradationReport report;
  auto result = chain.ImputeWithReport(s.input, s.observed, 2, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.served_by, "SMFL");
  EXPECT_FALSE(report.degraded());
  ASSERT_EQ(report.attempts.size(), 1u);
}

TEST_F(RobustnessTest, DegradationChainFailsWhenEveryTierFails) {
  Scenario s = MakeScenario(60, 0.15, 50);
  impute::FallbackImputer chain({"NoSuchMethod", "AlsoMissing"});
  mf::DegradationReport report;
  auto result = chain.ImputeWithReport(s.input, s.observed, 2, &report);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("fallback tiers failed"),
            std::string::npos);
  EXPECT_TRUE(report.served_by.empty());
  EXPECT_EQ(report.attempts.size(), 2u);
}

TEST_F(RobustnessTest, RepairDegradationChainServesFallbackTier) {
  Scenario s = MakeScenario(60, 0.0, 51);
  // Flag a handful of cells as dirty.
  Mask dirty(60, s.truth.cols());
  for (Index i = 0; i < 10; ++i) dirty.Set(i, 2);

  FaultSpec spec;
  spec.count = -1;
  ScopedFault fault("smfl.update.nan", spec);

  repair::FallbackRepairer chain;  // SMFL -> SMF -> NMF -> HoloClean
  mf::DegradationReport report;
  auto result = chain.RepairWithReport(s.truth, dirty, 2, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One guarded loop serves all three MF tiers; each records the numeric
  // error and HoloClean serves.
  EXPECT_EQ(report.served_by, "HoloClean");
  EXPECT_TRUE(report.degraded());
  ASSERT_EQ(report.attempts.size(), 4u);
  const char* mf_tiers[] = {"SMFL", "SMF", "NMF"};
  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(report.attempts[t].tier, mf_tiers[t]);
    EXPECT_NE(report.attempts[t].error.find("Numeric error"),
              std::string::npos)
        << mf_tiers[t] << ": " << report.attempts[t].error;
  }
  EXPECT_EQ(report.attempts[3].tier, "HoloClean");
  EXPECT_TRUE(report.attempts[3].error.empty());
}

}  // namespace
}  // namespace smfl::core
