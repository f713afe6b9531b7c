#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/data/stats.h"
#include "src/repair/detector.h"

namespace smfl {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

// ---------------------------------------------------------------- stats

TEST(StatsTest, KnownColumn) {
  Matrix x{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  auto stats = data::ComputeColumnStats(x, Mask::AllSet(4, 2), 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 4);
  EXPECT_DOUBLE_EQ(stats->min, 1.0);
  EXPECT_DOUBLE_EQ(stats->max, 4.0);
  EXPECT_DOUBLE_EQ(stats->mean, 2.5);
  EXPECT_DOUBLE_EQ(stats->median, 2.5);
  EXPECT_NEAR(stats->stddev, std::sqrt(1.25), 1e-12);
}

TEST(StatsTest, MaskAware) {
  Matrix x{{1, 0}, {100, 0}, {3, 0}};
  Mask observed = Mask::AllSet(3, 2);
  observed.Set(1, 0, false);  // hide the 100
  auto stats = data::ComputeColumnStats(x, observed, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 2);
  EXPECT_DOUBLE_EQ(stats->max, 3.0);
  EXPECT_DOUBLE_EQ(stats->median, 2.0);
}

TEST(StatsTest, Validation) {
  Matrix x{{1, 2}};
  EXPECT_FALSE(data::ComputeColumnStats(x, Mask::AllSet(1, 2), 5).ok());
  Mask none(1, 2);
  EXPECT_FALSE(data::ComputeColumnStats(x, none, 0).ok());
  EXPECT_FALSE(data::ComputeColumnStats(x, Mask(2, 2), 0).ok());
}

TEST(StatsTest, AllColumnsAndFormat) {
  Matrix x{{1, 5}, {3, 7}};
  auto stats = data::ComputeAllColumnStats(x);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 2u);
  EXPECT_DOUBLE_EQ((*stats)[1].mean, 6.0);
  const std::string table = data::FormatStatsTable({"a", "b"}, *stats);
  EXPECT_NE(table.find("a"), std::string::npos);
  EXPECT_NE(table.find("6.0000"), std::string::npos);
}

TEST(StatsTest, CorrelationSignAndRange) {
  Matrix x(50, 2);
  for (Index i = 0; i < 50; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = -2.0 * static_cast<double>(i) + 3.0;
  }
  auto corr = data::ColumnCorrelation(x, Mask::AllSet(50, 2), 0, 1);
  ASSERT_TRUE(corr.ok());
  EXPECT_NEAR(*corr, -1.0, 1e-12);
}

TEST(StatsTest, CorrelationValidation) {
  Matrix x{{1, 2}};
  EXPECT_FALSE(
      data::ColumnCorrelation(x, Mask::AllSet(1, 2), 0, 1).ok());  // n < 2
  Matrix constant(5, 2, 1.0);
  EXPECT_FALSE(
      data::ColumnCorrelation(constant, Mask::AllSet(5, 2), 0, 1).ok());
}

// -------------------------------------------------------------- detector

struct DetectorScenario {
  Matrix dirty;
  Mask truth;
};

DetectorScenario MakeScenario(Index rows, double error_rate, uint64_t seed) {
  auto dataset = data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Matrix truth = normalizer->Transform(dataset->table.values());
  std::vector<std::string> names;
  for (Index j = 0; j < truth.cols(); ++j) {
    names.push_back("c" + std::to_string(j));
  }
  auto table = data::Table::Create(names, truth, 2);
  SMFL_CHECK(table.ok());
  data::ErrorInjectionOptions inject;
  inject.error_rate = error_rate;
  inject.seed = seed + 7;
  auto injection = data::InjectErrors(*table, inject);
  SMFL_CHECK(injection.ok());
  return {injection->dirty, injection->dirty_cells};
}

TEST(DetectorTest, Validation) {
  EXPECT_FALSE(repair::DetectErrors(Matrix(), 2).ok());
  Matrix x(3, 3, 0.5);
  EXPECT_FALSE(repair::DetectErrors(x, 5).ok());
  repair::DetectorOptions options;
  options.min_votes = 0;
  EXPECT_FALSE(repair::DetectErrors(x, 2, options).ok());
}

TEST(DetectorTest, CleanDataMostlyUnflagged) {
  DetectorScenario s = MakeScenario(400, /*error_rate=*/0.0, 3);
  auto detection = repair::DetectErrors(s.dirty, 2);
  ASSERT_TRUE(detection.ok());
  // A few false positives from heavy noise tails are fine; mass flagging
  // is not.
  const double flag_rate =
      static_cast<double>(detection->flagged.Count()) /
      static_cast<double>(s.dirty.size());
  EXPECT_LT(flag_rate, 0.05);
}

// Below 4 * bins^2 rows a column pair's joint bins hold too few rows for a
// low count to be rare: the pairwise-surprise signal abstains instead of
// flagging clean cells (at 120 rows it used to flag 132 of 840).
TEST(DetectorTest, SurpriseSignalAbstainsOnSmallTables) {
  for (const Index rows : {120, 200}) {
    DetectorScenario s = MakeScenario(rows, /*error_rate=*/0.0, 13);
    auto detection = repair::DetectErrors(s.dirty, 2);
    ASSERT_TRUE(detection.ok());
    EXPECT_EQ(detection->surprise_flags, 0) << rows << " rows";
  }
  // From 4 * bins^2 rows on, the signal votes again.
  repair::DetectorOptions coarse;
  coarse.bins = 4;
  DetectorScenario s = MakeScenario(200, /*error_rate=*/0.1, 13);
  auto detection = repair::DetectErrors(s.dirty, 2, coarse);
  ASSERT_TRUE(detection.ok());
  EXPECT_GT(detection->surprise_flags, 0);
}

TEST(DetectorTest, FindsInjectedErrorsBetterThanChance) {
  DetectorScenario s = MakeScenario(500, 0.1, 5);
  auto detection = repair::DetectErrors(s.dirty, 2);
  ASSERT_TRUE(detection.ok());
  auto quality = repair::EvaluateDetection(detection->flagged, s.truth);
  // Random flagging at the same budget would have precision ~= 0.1.
  EXPECT_GT(quality.precision, 0.3);
  EXPECT_GT(quality.recall, 0.1);
}

TEST(DetectorTest, SingleVoteFlagsMoreThanTwoVotes) {
  DetectorScenario s = MakeScenario(300, 0.1, 9);
  repair::DetectorOptions lenient;
  lenient.min_votes = 1;
  repair::DetectorOptions strict;
  strict.min_votes = 2;
  auto a = repair::DetectErrors(s.dirty, 2, lenient);
  auto b = repair::DetectErrors(s.dirty, 2, strict);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a->flagged.Count(), b->flagged.Count());
  // Strict detection is a subset of lenient detection.
  EXPECT_TRUE(b->flagged.And(a->flagged) == b->flagged);
}

TEST(DetectorTest, ObviousOutlierCaught) {
  DetectorScenario s = MakeScenario(300, 0.0, 11);
  // Plant a gross outlier (normalized data lives in [0, 1]).
  s.dirty(10, 3) = 25.0;
  auto detection = repair::DetectErrors(s.dirty, 2);
  ASSERT_TRUE(detection.ok());
  EXPECT_TRUE(detection->flagged.Contains(10, 3));
}

TEST(DetectorTest, EvaluateDetectionKnownCounts) {
  Mask truth(2, 2), flagged(2, 2);
  truth.Set(0, 0);
  truth.Set(0, 1);
  flagged.Set(0, 0);   // true positive
  flagged.Set(1, 1);   // false positive
  auto q = repair::EvaluateDetection(flagged, truth);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.f1, 0.5);
}

}  // namespace
}  // namespace smfl
