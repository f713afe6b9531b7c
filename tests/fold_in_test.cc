#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/core/fold_in.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/la/ops.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Fitted {
  Matrix truth;        // normalized ground truth (all rows)
  SmflModel model;     // fit on the first `train_rows` rows
  Index train_rows = 0;
};

Fitted TrainOnPrefix(Index total_rows, Index train_rows, uint64_t seed) {
  auto dataset = data::MakeVehicleLike(total_rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Fitted f;
  f.truth = normalizer->Transform(dataset->table.values());
  f.train_rows = train_rows;
  Matrix train = f.truth.Block(0, 0, train_rows, f.truth.cols());
  SmflOptions options;
  options.rank = 8;
  options.max_iterations = 150;
  auto model =
      FitSmfl(train, Mask::AllSet(train_rows, train.cols()), 2, options);
  SMFL_CHECK(model.ok());
  f.model = std::move(model).value();
  return f;
}

TEST(FoldInTest, Validation) {
  Fitted f = TrainOnPrefix(200, 150, 3);
  la::Vector row(f.truth.cols(), 0.5);
  std::vector<bool> none(static_cast<size_t>(f.truth.cols()), false);
  EXPECT_FALSE(FoldInRow(f.model, row, none).ok());  // nothing observed
  std::vector<bool> wrong_width(3, true);
  EXPECT_FALSE(FoldInRow(f.model, row, wrong_width).ok());
  la::Vector short_row(2, 0.5);
  std::vector<bool> all(static_cast<size_t>(f.truth.cols()), true);
  EXPECT_FALSE(FoldInRow(f.model, short_row, all).ok());
  // Negative observed value rejected (model space is nonnegative).
  la::Vector negative(f.truth.cols(), -1.0);
  EXPECT_FALSE(FoldInRow(f.model, negative, all).ok());
  // Empty model rejected.
  SmflModel empty;
  EXPECT_FALSE(FoldInRow(empty, row, all).ok());
  // Options no solve can honour are refused by name, by both entry points:
  // a NaN tolerance (no stop test would ever pass, so every row would run
  // silently to the cap), a negative one, and a negative update cap.
  const Matrix batch(2, f.truth.cols(), 0.5);
  const Mask batch_observed = Mask::AllSet(2, f.truth.cols());
  struct BadOptions {
    FoldInOptions options;
    const char* field;
  };
  for (const BadOptions& bad :
       {BadOptions{{200, std::nan("")}, "tolerance"},
        BadOptions{{200, -1e-8}, "tolerance"},
        BadOptions{{-1, 1e-8}, "max_iterations"}}) {
    auto single = FoldInRow(f.model, row, all, bad.options);
    ASSERT_FALSE(single.ok()) << bad.field;
    EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(single.status().message().find(bad.field), std::string::npos)
        << single.status().message();
    auto folded = FoldIn(f.model, batch, batch_observed, bad.options);
    ASSERT_FALSE(folded.ok()) << bad.field;
    EXPECT_EQ(folded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(folded.status().message().find(bad.field), std::string::npos)
        << folded.status().message();
  }
  // No updates is a valid request: the start is served.
  EXPECT_TRUE(FoldInRow(f.model, row, all, FoldInOptions{0, 1e-8}).ok());
}

TEST(FoldInTest, PreservesObservedEntries) {
  Fitted f = TrainOnPrefix(200, 150, 5);
  la::Vector row(f.truth.cols());
  std::vector<bool> observed(static_cast<size_t>(f.truth.cols()), true);
  for (Index j = 0; j < f.truth.cols(); ++j) row[j] = f.truth(160, j);
  observed[4] = false;  // hide one attribute
  auto completed = FoldInRow(f.model, row, observed);
  ASSERT_TRUE(completed.ok());
  for (Index j = 0; j < f.truth.cols(); ++j) {
    if (observed[static_cast<size_t>(j)]) {
      EXPECT_DOUBLE_EQ((*completed)[j], row[j]);
    }
  }
}

TEST(FoldInTest, BeatsColumnMeanOnHeldOutRows) {
  // Fold fresh rows (not seen in training) into the fitted model and
  // compare against mean imputation computed from the training block.
  Fitted f = TrainOnPrefix(600, 450, 7);
  const Index fresh = f.truth.rows() - f.train_rows;
  Matrix x(fresh, f.truth.cols());
  Mask observed(fresh, f.truth.cols());
  Mask psi(fresh, f.truth.cols());

  for (Index i = 0; i < fresh; ++i) {
    for (Index j = 0; j < f.truth.cols(); ++j) {
      x(i, j) = f.truth(f.train_rows + i, j);
      // Hide two attribute columns per row.
      const bool hide = (j == 3 || j == 5);
      observed.Set(i, j, !hide);
      if (hide) {
        psi.Set(i, j);
        x(i, j) = 0.0;  // scrubbed
      }
    }
  }
  auto folded = FoldIn(f.model, x, observed);
  ASSERT_TRUE(folded.ok());
  Matrix truth_block =
      f.truth.Block(f.train_rows, 0, fresh, f.truth.cols());
  auto rms_fold = exp::RmsOverMask(*folded, truth_block, psi);
  ASSERT_TRUE(rms_fold.ok());

  // Column-mean baseline from the training block.
  Matrix mean_filled = x;
  for (Index j = 0; j < f.truth.cols(); ++j) {
    double mean = 0.0;
    for (Index i = 0; i < f.train_rows; ++i) mean += f.truth(i, j);
    mean /= static_cast<double>(f.train_rows);
    for (Index i = 0; i < fresh; ++i) {
      if (!observed.Contains(i, j)) mean_filled(i, j) = mean;
    }
  }
  auto rms_mean = exp::RmsOverMask(mean_filled, truth_block, psi);
  ASSERT_TRUE(rms_mean.ok());
  EXPECT_LT(*rms_fold, *rms_mean);
}

TEST(FoldInTest, DeterministicAndFinite) {
  Fitted f = TrainOnPrefix(200, 150, 11);
  la::Vector row(f.truth.cols());
  std::vector<bool> observed(static_cast<size_t>(f.truth.cols()), true);
  for (Index j = 0; j < f.truth.cols(); ++j) row[j] = f.truth(190, j);
  observed[3] = false;
  auto a = FoldInRow(f.model, row, observed);
  auto b = FoldInRow(f.model, row, observed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (Index j = 0; j < f.truth.cols(); ++j) {
    EXPECT_DOUBLE_EQ((*a)[j], (*b)[j]);
    EXPECT_TRUE(std::isfinite((*a)[j]));
  }
}

TEST(FoldInTest, CoordinatesOnlyRowGetsPlausibleAttributes) {
  // A brand-new row with ONLY coordinates observed: fold-in must produce
  // finite attribute predictions inside (a loose envelope of) the
  // normalized range.
  Fitted f = TrainOnPrefix(400, 350, 13);
  la::Vector row(f.truth.cols());
  std::vector<bool> observed(static_cast<size_t>(f.truth.cols()), false);
  row[0] = f.truth(380, 0);
  row[1] = f.truth(380, 1);
  observed[0] = observed[1] = true;
  auto completed = FoldInRow(f.model, row, observed);
  ASSERT_TRUE(completed.ok());
  for (Index j = 2; j < f.truth.cols(); ++j) {
    EXPECT_GE((*completed)[j], -0.5);
    EXPECT_LE((*completed)[j], 1.5);
  }
}

}  // namespace
}  // namespace smfl::core
