// Bitwise-reproducibility contract of the parallel numeric stack: every
// threaded kernel must produce byte-identical output at any thread count,
// the fused MaskedReconstruct must match the unfused
// ApplyMask(MatMul(u, v)) form bit for bit, and full SMFL / SMF / NMF fits
// must walk identical objective trajectories at 1 vs 4 threads. The
// monotonicity property tests (Props 5/7) rely on these trajectories being
// exact.

#include <gtest/gtest.h>

#include <string>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
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
using data::ObservedIndex;
using la::Index;
using la::Matrix;

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

template <typename Fn>
void ExpectThreadCountInvariant(const Fn& fn, const std::string& label) {
  Matrix at_one;
  {
    parallel::ScopedParallelism scoped(1);
    at_one = fn();
  }
  for (int threads : {2, 4}) {
    parallel::ScopedParallelism scoped(threads);
    Matrix at_n = fn();
    ExpectBitwiseEqual(at_one, at_n,
                       label + " @ " + std::to_string(threads) + " threads");
  }
}

TEST(KernelEquivalenceTest, MatMulBitwiseIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    // Odd sizes exercise ragged chunks; zero_rate exercises the skip path.
    const Matrix a = RandomMatrix(173, 37, seed * 2 + 1, 0.2);
    const Matrix b = RandomMatrix(37, 91, seed * 2 + 2);
    ExpectThreadCountInvariant([&] { return la::MatMul(a, b); },
                               "MatMul seed " + std::to_string(seed));
  }
}

TEST(KernelEquivalenceTest, MatMulAtBBitwiseIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    // 70 output rows forces several kAtBRowGrain = 16 chunks.
    const Matrix a = RandomMatrix(151, 70, seed * 3 + 1, 0.2);
    const Matrix b = RandomMatrix(151, 43, seed * 3 + 2);
    ExpectThreadCountInvariant([&] { return la::MatMulAtB(a, b); },
                               "MatMulAtB seed " + std::to_string(seed));
  }
}

TEST(KernelEquivalenceTest, MatMulABtBitwiseIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Matrix a = RandomMatrix(129, 31, seed * 5 + 1);
    const Matrix b = RandomMatrix(57, 31, seed * 5 + 2);
    ExpectThreadCountInvariant([&] { return la::MatMulABt(a, b); },
                               "MatMulABt seed " + std::to_string(seed));
  }
}

TEST(KernelEquivalenceTest,
     MaskedReconstructBitwiseIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Matrix u = RandomMatrix(101, 12, seed * 7 + 1, 0.15);
    const Matrix v = RandomMatrix(12, 53, seed * 7 + 2);
    // Low and high rates hit both the sparse-dot and dense-row paths.
    for (double rate : {0.1, 0.9}) {
      const ObservedIndex omega =
          ObservedIndex::FromMask(RandomMask(101, 53, seed * 7 + 3, rate));
      ExpectThreadCountInvariant(
          [&] { return data::MaskedReconstruct(u, v, omega); },
          "MaskedReconstruct seed " + std::to_string(seed) + " rate " +
              std::to_string(rate));
    }
  }
}

TEST(KernelEquivalenceTest, MaskedReconstructMatchesUnfusedForm) {
  // The fused kernel must be a drop-in for ApplyMask(MatMul(u, v)) — same
  // ascending-k summation order, same zero-skip — or the objective
  // trajectories (and the Prop 5/7 guards) would shift. The equality must
  // hold under both SIMD tiers (tests/simd_kernel_test.cc covers the
  // tiers against each other; this covers fused-vs-unfused within each).
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Matrix u = RandomMatrix(83, 9, seed * 11 + 1, 0.2);
    const Matrix v = RandomMatrix(9, 61, seed * 11 + 2, 0.2);
    for (double rate : {0.05, 0.5, 1.0}) {
      const Mask mask = RandomMask(83, 61, seed * 11 + 3, rate);
      const ObservedIndex omega = ObservedIndex::FromMask(mask);
      for (int simd_mode : {0, 1}) {
        la::simd::ScopedSimd scoped(simd_mode);
        ExpectBitwiseEqual(data::MaskedReconstruct(u, v, omega),
                           data::ApplyMask(la::MatMul(u, v), mask),
                           "fused vs unfused, seed " + std::to_string(seed) +
                               " rate " + std::to_string(rate) + " simd " +
                               std::to_string(simd_mode));
      }
    }
  }
}

TEST(KernelEquivalenceTest, MaskedSquaredErrorIdenticalAcrossThreadCounts) {
  const Matrix x = RandomMatrix(211, 29, 5);
  const Matrix r = RandomMatrix(211, 29, 6);
  const ObservedIndex omega =
      ObservedIndex::FromMask(RandomMask(211, 29, 7, 0.7), x);
  double at_one;
  {
    parallel::ScopedParallelism scoped(1);
    at_one = data::MaskedSquaredError(x, omega, r);
  }
  for (int threads : {2, 4}) {
    parallel::ScopedParallelism scoped(threads);
    EXPECT_EQ(at_one, data::MaskedSquaredError(x, omega, r))
        << threads << " threads";
  }
}

// Full-fit determinism: identical objective trajectories (and final
// factors) at 1 vs 4 threads, across seeds, for SMFL, SMF and NMF (the
// lambda = 0, no-landmark configuration of the same loop), under both
// update rules.
TEST(KernelEquivalenceTest, SmflTrajectoriesIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto dataset = data::MakeVehicleLike(60, 100 + seed);
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
        options.max_iterations = 40;
        options.tolerance = 0.0;  // full trace, no early stop
        options.seed = seed * 7919 + 3;
        options.use_landmarks = std::string(method) == "SMFL";
        if (std::string(method) == "NMF") options.lambda = 0.0;
        options.update = rule;

        options.threads = 1;
        auto one = core::FitSmfl(x_in, injection->observed, 2, options);
        ASSERT_TRUE(one.ok()) << one.status().ToString();
        options.threads = 4;
        auto four = core::FitSmfl(x_in, injection->observed, 2, options);
        ASSERT_TRUE(four.ok()) << four.status().ToString();

        const std::string label = name + " seed " + std::to_string(seed);
        ASSERT_EQ(one->report.objective_trace.size(),
                  four->report.objective_trace.size())
            << label;
        for (size_t t = 0; t < one->report.objective_trace.size(); ++t) {
          ASSERT_EQ(one->report.objective_trace[t],
                    four->report.objective_trace[t])
              << label << " trace index " << t;
        }
        ExpectBitwiseEqual(one->u, four->u, label + " U");
        ExpectBitwiseEqual(one->v, four->v, label + " V");
      }
    }
  }
}

// Telemetry is purely observational: a fit with collection enabled must
// walk the bit-identical objective trajectory and produce bit-identical
// factors vs the same fit with collection off, at multiple thread counts.
TEST(KernelEquivalenceTest, SmflTrajectoriesIdenticalWithTelemetryOnVsOff) {
  auto dataset = data::MakeVehicleLike(60, 500);
  ASSERT_TRUE(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  ASSERT_TRUE(normalizer.ok());
  const Matrix truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.2;
  inject.seed = 11;
  auto injection = data::InjectMissing(dataset->table, inject);
  ASSERT_TRUE(injection.ok());
  const Matrix x_in = data::ApplyMask(truth, injection->observed);

  core::SmflOptions options;
  options.rank = 4;
  options.max_iterations = 30;
  options.tolerance = 0.0;
  options.seed = 77;

  for (int threads : {1, 4}) {
    options.threads = threads;
    telemetry::SetEnabled(false);
    auto off = core::FitSmfl(x_in, injection->observed, 2, options);
    ASSERT_TRUE(off.ok()) << off.status().ToString();

    telemetry::SetEnabled(true);
    auto on = core::FitSmfl(x_in, injection->observed, 2, options);
    telemetry::SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetForTesting();
    telemetry::TraceRecorder::Global().Clear();
    ASSERT_TRUE(on.ok()) << on.status().ToString();

    const std::string label =
        "telemetry on/off @ " + std::to_string(threads) + " threads";
    ASSERT_EQ(off->report.objective_trace.size(),
              on->report.objective_trace.size())
        << label;
    for (size_t t = 0; t < off->report.objective_trace.size(); ++t) {
      ASSERT_EQ(off->report.objective_trace[t],
                on->report.objective_trace[t])
          << label << " trace index " << t;
    }
    ExpectBitwiseEqual(off->u, on->u, label + " U");
    ExpectBitwiseEqual(off->v, on->v, label + " V");
  }
}

// The row pass's per-row path split (la.simd.dispatch.row_pass_dense /
// row_pass_cells) depends on Ω and the tier's dense_crossover alone, so a
// fit attempt counts it once — every row with an observed cell exactly
// once, however many iterations run.
TEST(KernelEquivalenceTest, RowPassCountersSplitObservedRowsOncePerFit) {
  auto dataset = data::MakeVehicleLike(80, 501);
  ASSERT_TRUE(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  ASSERT_TRUE(normalizer.ok());
  const Matrix truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.6;
  inject.seed = 13;
  auto injection = data::InjectMissing(dataset->table, inject);
  ASSERT_TRUE(injection.ok());
  const Matrix x_in = data::ApplyMask(truth, injection->observed);
  const data::Mask& observed = injection->observed;

  for (int simd : {0, 1}) {
    la::simd::ScopedSimd tier(simd);
    const la::Index crossover = la::simd::Active().dense_crossover;
    int64_t dense = 0, cells = 0;
    for (la::Index i = 0; i < observed.rows(); ++i) {
      la::Index count = 0;
      for (la::Index j = 0; j < observed.cols(); ++j) {
        count += observed.Contains(i, j) ? 1 : 0;
      }
      if (count == 0) continue;
      ++(count * crossover >= observed.cols() ? dense : cells);
    }
    for (int iterations : {3, 20}) {
      core::SmflOptions options;
      options.rank = 4;
      options.max_iterations = iterations;
      options.tolerance = -1.0;
      auto& registry = telemetry::MetricsRegistry::Global();
      registry.ResetForTesting();
      telemetry::SetEnabled(true);
      auto fit = core::FitSmfl(x_in, observed, 2, options);
      telemetry::SetEnabled(false);
      ASSERT_TRUE(fit.ok()) << fit.status().ToString();
      const std::string label = "simd " + std::to_string(simd) + ", " +
                                std::to_string(iterations) + " iterations";
      EXPECT_EQ(registry.GetCounter("la.simd.dispatch.row_pass_dense").value(),
                dense)
          << label;
      EXPECT_EQ(registry.GetCounter("la.simd.dispatch.row_pass_cells").value(),
                cells)
          << label;
      registry.ResetForTesting();
      telemetry::TraceRecorder::Global().Clear();
    }
    EXPECT_GT(dense + cells, 0);
  }
}

}  // namespace
}  // namespace smfl
