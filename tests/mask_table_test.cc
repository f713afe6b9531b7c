#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/data/csv.h"
#include "src/data/mask.h"
#include "src/data/normalize.h"
#include "src/data/observed_index.h"
#include "src/data/table.h"

namespace smfl::data {
namespace {

// ---------------------------------------------------------------- Mask

TEST(MaskTest, DefaultUnsetAndAllSet) {
  Mask m(2, 3);
  EXPECT_EQ(m.Count(), 0);
  EXPECT_FALSE(m.Contains(1, 2));
  Mask all = Mask::AllSet(2, 3);
  EXPECT_EQ(all.Count(), 6);
  EXPECT_TRUE(all.Contains(0, 0));
}

TEST(MaskTest, SetAndComplement) {
  Mask m(2, 2);
  m.Set(0, 1);
  m.Set(1, 0);
  EXPECT_EQ(m.Count(), 2);
  Mask c = m.Complement();
  EXPECT_EQ(c.Count(), 2);
  EXPECT_TRUE(c.Contains(0, 0));
  EXPECT_FALSE(c.Contains(0, 1));
  // Complement twice is identity.
  EXPECT_TRUE(c.Complement() == m);
}

TEST(MaskTest, EntriesRowMajor) {
  Mask m(2, 2);
  m.Set(1, 1);
  m.Set(0, 1);
  auto entries = m.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (Entry{0, 1}));
  EXPECT_EQ(entries[1], (Entry{1, 1}));
}

TEST(MaskTest, RowPredicates) {
  Mask m(3, 2);
  m.Set(0, 0);
  m.Set(0, 1);
  m.Set(2, 0);
  EXPECT_TRUE(m.RowFullySet(0));
  EXPECT_FALSE(m.RowFullySet(1));
  EXPECT_FALSE(m.RowFullySet(2));
  auto rows = m.FullySetRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0);
}

TEST(MaskTest, AndOr) {
  Mask a(1, 3), b(1, 3);
  a.Set(0, 0);
  a.Set(0, 1);
  b.Set(0, 1);
  b.Set(0, 2);
  Mask both = a.And(b);
  EXPECT_EQ(both.Count(), 1);
  EXPECT_TRUE(both.Contains(0, 1));
  Mask either = a.Or(b);
  EXPECT_EQ(either.Count(), 3);
}

TEST(MaskTest, ApplyMaskZeroesUnobserved) {
  Matrix x{{1, 2}, {3, 4}};
  Mask omega(2, 2);
  omega.Set(0, 0);
  omega.Set(1, 1);
  Matrix masked = ApplyMask(x, omega);
  EXPECT_DOUBLE_EQ(masked(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(masked(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(masked(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(masked(1, 1), 4.0);
}

TEST(MaskTest, CombineByMaskImplementsFormula8) {
  Matrix x{{1, 2}, {3, 4}};
  Matrix x_star{{10, 20}, {30, 40}};
  Mask omega(2, 2);
  omega.Set(0, 0);
  Matrix combined = CombineByMask(x, x_star, omega);
  EXPECT_DOUBLE_EQ(combined(0, 0), 1.0);   // observed: from x
  EXPECT_DOUBLE_EQ(combined(0, 1), 20.0);  // unobserved: from x*
  EXPECT_DOUBLE_EQ(combined(1, 1), 40.0);
}

TEST(MaskTest, EdgeShapesZeroByZero) {
  Mask m(0, 0);
  EXPECT_EQ(m.Count(), 0);
  EXPECT_TRUE(m.Entries().empty());
  EXPECT_TRUE(m.FullySetRows().empty());
  EXPECT_TRUE(m.Complement() == m);
  // The masked kernels must survive degenerate shapes, not just never see
  // them: an empty reconstruction of an empty product.
  const ObservedIndex omega = ObservedIndex::FromMask(m);
  Matrix u(0, 3), v(3, 0);
  Matrix r = MaskedReconstruct(u, v, omega);
  EXPECT_EQ(r.rows(), 0);
  EXPECT_EQ(r.cols(), 0);
  EXPECT_EQ(MaskedSquaredError(Matrix(0, 0), omega, r), 0.0);
}

TEST(MaskTest, EdgeShapesZeroColumns) {
  Mask m(4, 0);
  EXPECT_EQ(m.Count(), 0);
  EXPECT_TRUE(m.Entries().empty());
  // Every row is vacuously fully set.
  EXPECT_TRUE(m.RowFullySet(0));
  EXPECT_EQ(m.FullySetRows().size(), 4u);
  const ObservedIndex omega = ObservedIndex::FromMask(m);
  Matrix u(4, 2), v(2, 0);
  Matrix r = MaskedReconstruct(u, v, omega);
  EXPECT_EQ(r.rows(), 4);
  EXPECT_EQ(r.cols(), 0);
  EXPECT_EQ(MaskedSquaredError(Matrix(4, 0), omega, r), 0.0);
}

TEST(MaskTest, EdgeShapesAllUnobservedRows) {
  Mask m(3, 4);  // nothing set
  EXPECT_EQ(m.Count(), 0);
  for (Index i = 0; i < 3; ++i) EXPECT_EQ(m.RowCount(i), 0);
  Matrix u{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix v{{1.0, 0.0, 2.0, 0.0}, {0.0, 1.0, 0.0, 2.0}};
  const ObservedIndex omega = ObservedIndex::FromMask(m);
  Matrix r = MaskedReconstruct(u, v, omega);
  ASSERT_EQ(r.rows(), 3);
  ASSERT_EQ(r.cols(), 4);
  for (Index i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.data()[i], 0.0) << "flat index " << i;
  }
  Matrix x{{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}};
  EXPECT_EQ(MaskedSquaredError(x, omega, r), 0.0);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, CreateAndAccess) {
  auto t = Table::Create({"lat", "lon", "speed"}, Matrix{{1, 2, 3}, {4, 5, 6}},
                         2);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->NumCols(), 3);
  EXPECT_EQ(t->SpatialCols(), 2);
  EXPECT_EQ(*t->ColumnIndex("speed"), 2);
  EXPECT_FALSE(t->ColumnIndex("missing").ok());
}

TEST(TableTest, RejectsBadInputs) {
  EXPECT_FALSE(Table::Create({"a"}, Matrix{{1, 2}}, 1).ok());  // name count
  EXPECT_FALSE(Table::Create({"a", "b"}, Matrix{{1, 2}}, 3).ok());  // L > M
  EXPECT_FALSE(Table::Create({"a", "a"}, Matrix{{1, 2}}, 1).ok());  // dup
}

TEST(TableTest, SpatialAndAttributeBlocks) {
  auto t = Table::Create({"lat", "lon", "v"}, Matrix{{1, 2, 3}, {4, 5, 6}}, 2);
  ASSERT_TRUE(t.ok());
  Matrix si = t->SpatialInfo();
  EXPECT_EQ(si.cols(), 2);
  EXPECT_DOUBLE_EQ(si(1, 1), 5.0);
  Matrix attrs = t->AttributeBlock();
  EXPECT_EQ(attrs.cols(), 1);
  EXPECT_DOUBLE_EQ(attrs(0, 0), 3.0);
}

TEST(TableTest, SelectRowsAndHead) {
  auto t = Table::Create({"a", "b"}, Matrix{{1, 2}, {3, 4}, {5, 6}}, 1);
  ASSERT_TRUE(t.ok());
  Table sub = t->SelectRows({2, 0});
  EXPECT_EQ(sub.NumRows(), 2);
  EXPECT_DOUBLE_EQ(sub.values()(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sub.values()(1, 0), 1.0);
  Table head = t->Head(2);
  EXPECT_EQ(head.NumRows(), 2);
  EXPECT_DOUBLE_EQ(head.values()(1, 1), 4.0);
  EXPECT_EQ(t->Head(100).NumRows(), 3);
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, ParseWithHeaderAndHoles) {
  const std::string content =
      "lat,lon,speed\n"
      "1.0,2.0,3.0\n"
      "4.0,,6.0\n";
  auto csv = ParseCsv(content);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->table.NumRows(), 2);
  EXPECT_EQ(csv->table.NumCols(), 3);
  EXPECT_EQ(csv->table.column_names()[2], "speed");
  EXPECT_TRUE(csv->observed.Contains(0, 1));
  EXPECT_FALSE(csv->observed.Contains(1, 1));
  EXPECT_DOUBLE_EQ(csv->table.values()(1, 2), 6.0);
}

TEST(CsvTest, ParseWithoutHeader) {
  CsvReadOptions options;
  options.has_header = false;
  auto csv = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->table.NumRows(), 2);
  EXPECT_EQ(csv->table.column_names()[0], "col0");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2\n3\n").ok());
}

TEST(CsvTest, RejectsNonNumericCell) {
  auto result = ParseCsv("a,b\n1,hello\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataError);
}

TEST(CsvTest, HandlesCrlf) {
  auto csv = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(csv.ok());
  EXPECT_DOUBLE_EQ(csv->table.values()(0, 1), 2.0);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto result = ReadCsv("/nonexistent/path.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "smfl_csv_test.csv").string();
  auto t = Table::Create({"lat", "lon", "v"},
                         Matrix{{1.5, 2.5, 3.5}, {4.5, 5.5, 6.5}}, 2);
  ASSERT_TRUE(t.ok());
  Mask observed = Mask::AllSet(2, 3);
  observed.Set(1, 2, false);
  ASSERT_TRUE(WriteCsv(path, *t, observed).ok());
  CsvReadOptions options;
  options.spatial_cols = 2;
  auto back = ReadCsv(path, options);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table.NumRows(), 2);
  EXPECT_DOUBLE_EQ(back->table.values()(0, 0), 1.5);
  EXPECT_FALSE(back->observed.Contains(1, 2));
  EXPECT_TRUE(back->observed.Contains(1, 1));
  std::remove(path.c_str());
}

// The writer renders cells at %.12g; it must emit exactly the bytes an
// ostream at precision(12) does on the values where formatting is delicate:
// signed zeros, subnormals, the extremes, round-half cases, non-finite
// values, and random bit patterns; and at the edges of the formatter's
// integer path: exact twelve-digit ties, the doubles next to powers of ten
// and of two, values that round up to 1e12 or to 1e-4, and cells that
// carry trailing zeros.
TEST(CsvTest, WriterBytesMatchOstreamPrecision12) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 123456789012.0,
      1234567890123.0, 999999999999.5, 0.5e-4, 1e-5, 1e15, 1e16,
      1e300, -1e300, 1e-300, -1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      // Exact ties: n + 1/2 in the last of the twelve digits.
      100000000000.5, 100000000001.5, -274877906944.5, 4097.0 / 4096.0,
      4099.0 / 4096.0, 7.0 / 65536.0, 0.1234567890125,
      // Rounding up into the next decade, 1e12 and 1e-4 among them.
      999999999999.5, 999999999999.75, 999999999998.5, 9.99999999999995,
      99999999999.99995, 9.99999999999995e-5, 9.999999999995e-5, 1e-4,
      0.00010000000000000001, 1e12, 1e11, 99999999999.9,
      // Trailing zeros to drop, a bare point to drop.
      40.237965, 40.5, 120.0, 0.25, 0.000125, 123.456, -55.0};
  for (int e = -6; e <= 13; ++e) {
    const double ten = std::pow(10.0, e);
    values.push_back(std::nextafter(ten, 0.0));
    values.push_back(std::nextafter(ten, 1e300));
  }
  for (int e = -20; e <= 45; e += 5) {
    const double two = std::ldexp(1.0, e);
    values.push_back(two);
    values.push_back(std::nextafter(two, 0.0));
    values.push_back(std::nextafter(two, 1e300));
  }
  Rng rng(77);
  while (values.size() < 900) {
    const uint64_t bits = rng.NextU64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
  }
  const Index cols = 3;
  const Index rows = static_cast<Index>(values.size()) / cols;
  Matrix m(rows, cols);
  for (Index i = 0; i < m.size(); ++i) {
    m.data()[i] = values[static_cast<size_t>(i)];
  }
  auto t = Table::Create({"lat", "lon", "v"}, m, 2);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Mask observed = Mask::AllSet(rows, cols);
  observed.Set(1, 1, false);

  std::ostringstream expected;
  expected << "lat;lon;v\n";
  expected.precision(12);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (j > 0) expected << ';';
      if (observed.Contains(i, j)) expected << m(i, j);
    }
    expected << "\n";
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "smfl_csv_bytes_test.csv")
          .string();
  ASSERT_TRUE(WriteCsv(path, *t, observed, ';').ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(written.str(), expected.str());
}

// ---------------------------------------------------------------- normalize

TEST(NormalizeTest, MapsToUnitInterval) {
  Matrix x{{0, 10}, {5, 20}, {10, 30}};
  auto n = MinMaxNormalizer::Fit(x);
  ASSERT_TRUE(n.ok());
  Matrix y = n->Transform(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 0.5);
}

TEST(NormalizeTest, InverseRoundTrip) {
  Matrix x{{-3, 100}, {7, 250}, {1, 175}};
  auto n = MinMaxNormalizer::Fit(x);
  ASSERT_TRUE(n.ok());
  Matrix round = n->InverseTransform(n->Transform(x));
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_NEAR(round(i, j), x(i, j), 1e-10);
    }
  }
}

TEST(NormalizeTest, MaskAwareFitIgnoresUnobserved) {
  Matrix x{{0, 0}, {10, 999}};
  Mask observed = Mask::AllSet(2, 2);
  observed.Set(1, 1, false);  // the 999 outlier is unobserved
  auto n = MinMaxNormalizer::Fit(x, observed);
  ASSERT_TRUE(n.ok());
  // Column 1 sees only the value 0 -> constant column rule: max = min + 1.
  EXPECT_DOUBLE_EQ(n->ColMin(1), 0.0);
  EXPECT_DOUBLE_EQ(n->ColMax(1), 1.0);
}

TEST(NormalizeTest, ConstantColumnMapsToZero) {
  Matrix x{{5, 1}, {5, 2}};
  auto n = MinMaxNormalizer::Fit(x);
  ASSERT_TRUE(n.ok());
  Matrix y = n->Transform(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 0.0);
  EXPECT_FALSE(y.HasNonFinite());
}

TEST(NormalizeTest, RejectsNonFinite) {
  Matrix x(2, 2, 0.0);
  x(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(MinMaxNormalizer::Fit(x).ok());
}

// Finite values whose span overflows (max - min = inf) must fail as a
// DataError naming the column, not surface later as a NaN/Inf fit input.
TEST(NormalizeTest, RejectsOverflowingRangeNamingColumn) {
  Matrix x{{0.5, 1.7e308}, {0.25, -1.7e308}};
  auto n = MinMaxNormalizer::Fit(x);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kDataError);
  EXPECT_NE(n.status().message().find("column 1"), std::string::npos)
      << n.status().message();
  // A wide but representable span still fits.
  EXPECT_TRUE(MinMaxNormalizer::Fit(Matrix{{1e300}, {-1e300}}).ok());
}

TEST(NormalizeTest, FromBoundsRejectsOverflowingRange) {
  auto n = MinMaxNormalizer::FromBounds({0.0, -1.7e308}, {1.0, 1.7e308});
  ASSERT_FALSE(n.ok());
  EXPECT_NE(n.status().message().find("column 1"), std::string::npos)
      << n.status().message();
  EXPECT_TRUE(MinMaxNormalizer::FromBounds({0.0, -1e300}, {1.0, 1e300}).ok());
}

TEST(NormalizeTest, FillWithColumnMeans) {
  Matrix x{{1, 10}, {3, 0}};
  Mask observed = Mask::AllSet(2, 2);
  observed.Set(1, 1, false);
  Matrix filled = FillWithColumnMeans(x, observed);
  EXPECT_DOUBLE_EQ(filled(1, 1), 10.0);  // mean of the one observed value
  EXPECT_DOUBLE_EQ(filled(0, 0), 1.0);   // observed entries untouched
}

TEST(NormalizeTest, FillFullyUnobservedColumn) {
  Matrix x{{1, 7}, {3, 9}};
  Mask observed = Mask::AllSet(2, 2);
  observed.Set(0, 1, false);
  observed.Set(1, 1, false);
  Matrix filled = FillWithColumnMeans(x, observed);
  EXPECT_DOUBLE_EQ(filled(0, 1), 0.5);  // normalized-midpoint fallback
  EXPECT_DOUBLE_EQ(filled(1, 1), 0.5);
}

}  // namespace
}  // namespace smfl::data
