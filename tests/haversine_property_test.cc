// Randomized property ("fuzz") sweeps over the data-layer invariants that
// every pipeline leans on: mask algebra, combine/apply identities, the
// min-max normalizer round trip and the CSV round trip.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/data/csv.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/la/ops.h"

namespace smfl {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

// ------------------------------------------------- randomized properties

Matrix RandomTable(Rng& rng, Index rows, Index cols) {
  Matrix x(rows, cols);
  for (Index i = 0; i < x.size(); ++i) {
    x.data()[i] = rng.Uniform(-100.0, 100.0);
  }
  return x;
}

Mask RandomMask(Rng& rng, Index rows, Index cols, double density) {
  Mask mask(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (rng.Bernoulli(density)) mask.Set(i, j);
    }
  }
  return mask;
}

class RandomizedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedPropertyTest, MaskAlgebraLaws) {
  Rng rng(1000 + GetParam());
  const Index rows = 1 + static_cast<Index>(rng.UniformInt(20));
  const Index cols = 1 + static_cast<Index>(rng.UniformInt(10));
  Mask a = RandomMask(rng, rows, cols, 0.4);
  Mask b = RandomMask(rng, rows, cols, 0.6);
  // De Morgan: ~(a & b) == ~a | ~b.
  EXPECT_TRUE(a.And(b).Complement() == a.Complement().Or(b.Complement()));
  // Involution and partition.
  EXPECT_TRUE(a.Complement().Complement() == a);
  EXPECT_EQ(a.Count() + a.Complement().Count(), rows * cols);
  // Entries() agrees with Count().
  EXPECT_EQ(static_cast<Index>(a.Entries().size()), a.Count());
}

TEST_P(RandomizedPropertyTest, CombineApplyIdentities) {
  Rng rng(2000 + GetParam());
  const Index rows = 1 + static_cast<Index>(rng.UniformInt(15));
  const Index cols = 1 + static_cast<Index>(rng.UniformInt(8));
  Matrix x = RandomTable(rng, rows, cols);
  Matrix y = RandomTable(rng, rows, cols);
  Mask mask = RandomMask(rng, rows, cols, 0.5);
  // Combine(x, x) == x.
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(data::CombineByMask(x, x, mask), x), 0.0);
  // Combine respects the partition: masked cells from x, rest from y.
  Matrix combined = data::CombineByMask(x, y, mask);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      EXPECT_DOUBLE_EQ(combined(i, j),
                       mask.Contains(i, j) ? x(i, j) : y(i, j));
    }
  }
  // ApplyMask(x, all) == x; ApplyMask(x, none) == 0.
  EXPECT_DOUBLE_EQ(
      la::MaxAbsDiff(data::ApplyMask(x, Mask::AllSet(rows, cols)), x), 0.0);
  EXPECT_DOUBLE_EQ(la::FrobeniusNorm(data::ApplyMask(x, Mask(rows, cols))),
                   0.0);
}

TEST_P(RandomizedPropertyTest, NormalizerRoundTripOnRandomTables) {
  Rng rng(3000 + GetParam());
  const Index rows = 2 + static_cast<Index>(rng.UniformInt(30));
  const Index cols = 1 + static_cast<Index>(rng.UniformInt(10));
  Matrix x = RandomTable(rng, rows, cols);
  auto normalizer = data::MinMaxNormalizer::Fit(x);
  ASSERT_TRUE(normalizer.ok());
  Matrix y = normalizer->Transform(x);
  for (Index i = 0; i < y.size(); ++i) {
    EXPECT_GE(y.data()[i], -1e-12);
    EXPECT_LE(y.data()[i], 1.0 + 1e-12);
  }
  EXPECT_LT(la::MaxAbsDiff(normalizer->InverseTransform(y), x), 1e-9);
}

TEST_P(RandomizedPropertyTest, CsvRoundTripOnRandomTables) {
  Rng rng(4000 + GetParam());
  const Index rows = 1 + static_cast<Index>(rng.UniformInt(12));
  const Index cols = 2 + static_cast<Index>(rng.UniformInt(6));
  Matrix x = RandomTable(rng, rows, cols);
  Mask observed = RandomMask(rng, rows, cols, 0.8);
  std::vector<std::string> names;
  for (Index j = 0; j < cols; ++j) names.push_back("c" + std::to_string(j));
  auto table = data::Table::Create(names, x, std::min<Index>(2, cols));
  ASSERT_TRUE(table.ok());
  // Serialize through a string (WriteCsv writes files; ParseCsv is the
  // inverse of the same format).
  std::string csv_text = "c0";
  for (Index j = 1; j < cols; ++j) csv_text += ",c" + std::to_string(j);
  csv_text += "\n";
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (j > 0) csv_text += ",";
      if (observed.Contains(i, j)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", x(i, j));
        csv_text += buf;
      }
    }
    csv_text += "\n";
  }
  data::CsvReadOptions options;
  options.spatial_cols = std::min<Index>(2, cols);
  auto parsed = data::ParseCsv(csv_text, options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->observed == observed);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (observed.Contains(i, j)) {
        EXPECT_DOUBLE_EQ(parsed->table.values()(i, j), x(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace smfl
