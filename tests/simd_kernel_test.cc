// Bitwise-equivalence contract of the SIMD dispatch layer (src/la/simd.*):
// every dispatched microkernel and every op built on them must produce
// byte-identical results with vector kernels forced on vs pinned to the
// scalar tier, at any thread count — including remainder lanes (n % 4,
// n % 8), empty inputs, and 1x1 shapes. Full SMFL/SMF/NMF fits, under
// both update rules, must serialize to byte-identical model files under
// SMFL_SIMD=0/1 x threads {1, 4} x multiple seeds (the acceptance bar of
// the dispatch layer). On hosts
// whose probe resolves to the scalar tier these tests still run — both
// sides execute the same table, so they degrade to self-consistency.

#include <gtest/gtest.h>

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

TEST(SimdDispatchTest, EnvValueParsing) {
  EXPECT_TRUE(simd::SimdEnvValueEnabled(nullptr));
  EXPECT_TRUE(simd::SimdEnvValueEnabled(""));
  EXPECT_TRUE(simd::SimdEnvValueEnabled("1"));
  EXPECT_TRUE(simd::SimdEnvValueEnabled("on"));
  EXPECT_FALSE(simd::SimdEnvValueEnabled("0"));
  EXPECT_FALSE(simd::SimdEnvValueEnabled("off"));
  EXPECT_FALSE(simd::SimdEnvValueEnabled("OFF"));
  EXPECT_FALSE(simd::SimdEnvValueEnabled("false"));
  EXPECT_FALSE(simd::SimdEnvValueEnabled("FALSE"));
}

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

TEST(SimdDispatchTest, InheritModeIsANoOp) {
  const simd::Tier ambient = simd::ActiveTier();
  simd::ScopedSimd inherit(-1);
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

// The index-list dot_panel: vector tier vs scalar tier over panels with
// fewer and more rows than kPanelWidth, ragged lane counts, and column
// lists from empty to every row; and both tiers vs dot_panel over the
// zero-filled dense row (the Ω-sparse U update's bitwise claim).
TEST(SimdKernelTest, DotPanelColsMatchesScalarTier) {
  for (const Index m : {Index{1}, Index{5}, Index{7}, simd::kPanelWidth,
                        Index{9}, Index{20}, Index{33}}) {
    for (const Index lanes :
         {Index{1}, Index{2}, Index{3}, Index{5}, simd::kPanelWidth}) {
      for (const double rate : {0.0, 0.3, 1.0}) {
        const Matrix b = RandomMatrix(lanes, m, 41);
        std::vector<double> panel(static_cast<size_t>(simd::kPanelWidth * m));
        simd::PackRowPanel(b.data(), m, lanes, m, panel.data());
        Rng rng(42 + static_cast<uint64_t>(m));
        std::vector<Index> cols;
        std::vector<double> a;
        std::vector<double> dense(static_cast<size_t>(m), 0.0);
        for (Index j = 0; j < m; ++j) {
          if (rng.Uniform() >= rate) continue;
          cols.push_back(j);
          a.push_back(rng.Uniform(-1.0, 1.0));
          dense[static_cast<size_t>(j)] = a.back();
        }
        const auto n = static_cast<Index>(cols.size());
        std::vector<double> out_vec(static_cast<size_t>(lanes), -1.0);
        std::vector<double> out_sca(static_cast<size_t>(lanes), -2.0);
        std::vector<double> out_dense(static_cast<size_t>(lanes), -3.0);
        {
          simd::ScopedSimd on(1);
          simd::Active().dot_panel_cols(n, a.data(), cols.data(),
                                        panel.data(), lanes, out_vec.data());
        }
        {
          simd::ScopedSimd off(0);
          simd::Active().dot_panel_cols(n, a.data(), cols.data(),
                                        panel.data(), lanes, out_sca.data());
          simd::Active().dot_panel(m, dense.data(), panel.data(), lanes,
                                   out_dense.data());
        }
        for (Index l = 0; l < lanes; ++l) {
          const auto sl = static_cast<size_t>(l);
          const std::string label = "dot_panel_cols m=" + std::to_string(m) +
                                    " lanes=" + std::to_string(lanes) +
                                    " n=" + std::to_string(n) + " lane " +
                                    std::to_string(l);
          ASSERT_EQ(out_vec[sl], out_sca[sl]) << label;
          ASSERT_EQ(out_sca[sl], out_dense[sl]) << label << " vs dense";
        }
      }
    }
  }
}

TEST(SimdKernelTest, MaskedDotColsMatchesScalarTier) {
  for (const Index k : {Index{0}, Index{1}, Index{7}, Index{16}}) {
    for (const Index m : {Index{1}, Index{5}, Index{33}}) {
      const Matrix u = RandomMatrix(1, std::max<Index>(k, 1), 31, 0.3);
      const Matrix v =
          RandomMatrix(std::max<Index>(k, 1), m, 32);
      // Every subset size of observed columns, including sizes that leave
      // a remainder for the 4-wide gather loop.
      Rng rng(33);
      std::vector<Index> cols;
      for (Index j = 0; j < m; ++j) {
        if (rng.Uniform() < 0.6) cols.push_back(j);
      }
      std::vector<double> o_vec(static_cast<size_t>(m), 0.0);
      std::vector<double> o_sca(static_cast<size_t>(m), 0.0);
      {
        simd::ScopedSimd on(1);
        simd::Active().masked_dot_cols(k, m, u.data(), v.data(), cols.data(),
                                       static_cast<Index>(cols.size()),
                                       o_vec.data());
      }
      {
        simd::ScopedSimd off(0);
        simd::Active().masked_dot_cols(k, m, u.data(), v.data(), cols.data(),
                                       static_cast<Index>(cols.size()),
                                       o_sca.data());
      }
      for (Index j = 0; j < m; ++j) {
        ASSERT_EQ(o_vec[static_cast<size_t>(j)], o_sca[static_cast<size_t>(j)])
            << "masked_dot_cols k=" << k << " m=" << m << " col " << j;
      }
    }
  }
}

TEST(SimdKernelTest, SqDiffMatchesScalarTier) {
  for (const Index n : kEdgeSizes) {
    const Matrix x = RandomMatrix(1, std::max<Index>(n, 1), 41);
    const Matrix r = RandomMatrix(1, std::max<Index>(n, 1), 42);
    std::vector<double> out_vec(static_cast<size_t>(std::max<Index>(n, 1)));
    std::vector<double> out_sca(static_cast<size_t>(std::max<Index>(n, 1)));
    {
      simd::ScopedSimd on(1);
      simd::Active().sq_diff(n, x.data(), r.data(), out_vec.data());
    }
    {
      simd::ScopedSimd off(0);
      simd::Active().sq_diff(n, x.data(), r.data(), out_sca.data());
    }
    for (Index j = 0; j < n; ++j) {
      ASSERT_EQ(out_vec[static_cast<size_t>(j)],
                out_sca[static_cast<size_t>(j)])
          << "sq_diff n=" << n << " index " << j;
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
// files, at 1 and 4 threads, across seeds.

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

        std::string reference;
        for (int threads : {1, 4}) {
          options.threads = threads;
          options.simd = 1;
          auto on = core::FitSmfl(x_in, injection->observed, 2, options);
          ASSERT_TRUE(on.ok()) << on.status().ToString();
          options.simd = 0;
          auto off = core::FitSmfl(x_in, injection->observed, 2, options);
          ASSERT_TRUE(off.ok()) << off.status().ToString();

          const std::string serialized_on = core::SerializeModel(*on);
          const std::string serialized_off = core::SerializeModel(*off);
          const std::string label = name + " seed " + std::to_string(seed) +
                                    " @ " + std::to_string(threads) +
                                    " threads";
          ASSERT_EQ(serialized_on, serialized_off) << label;
          // And across thread counts too: one model per (seed, method).
          if (reference.empty()) {
            reference = serialized_on;
          } else {
            ASSERT_EQ(serialized_on, reference) << label << " vs 1 thread";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace smfl
