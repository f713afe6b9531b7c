// Reference oracle for CSV ingest (data::ParseCsv, data::ReadCsv), for
// ParseDouble, and for the cell text of the writers (data::WriteCsv,
// data::WriteCompletedCsv, FormatDoubleG12).
//
// The ingest reference below is the line-at-a-time parser the one-pass
// reader replaced, kept verbatim in spirit: std::getline over the whole text,
// strip one trailing '\r', skip whitespace-only lines, Split every line on
// the delimiter into strings, parse each trimmed cell with strtod (ERANGE
// and a partial parse are errors), collect vector<vector<...>> rows, then
// copy them into the Matrix and the Mask. Both readers must agree on every
// input: the status code and message, the values bit for bit, the mask,
// the column names and the quarantined rows, in strict and lenient mode,
// and on the order in which the `csv.row.corrupt` fault point is consulted.
// Inputs: seeded random tables, seeded byte flips, inserts and deletes of
// valid files, a fixed list of delicate cells and structural edge cases,
// and files larger than the streaming reader's chunk (one of them with a
// single line longer than a chunk).
//
// The writer reference is the cell rule the integer formatter replaced:
// std::to_chars in general format at precision 12 (printf's %.12g); for a
// kept cell, std::from_chars of that text, and when it does not read back
// as the same double, std::to_chars without a precision (the shortest
// round-trip form). Written bytes must match it on random and mutated
// tables with kept masks, and the formatter must match it on a seeded
// sweep of the values where decimal rounding is delicate.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/data/csv.h"

namespace smfl::data {
namespace {

// ------------------------------------------------------------ reference

Result<double> RefParseDouble(std::string_view s) {
  std::string_view t = Trim(s);
  if (t.empty()) return Status::DataError("empty numeric field");
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::DataError("numeric value out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::DataError("invalid numeric value: '" + buf + "'");
  }
  return v;
}

struct NumberedLine {
  size_t line_no;
  std::string text;
};

Status RefParseRow(const std::string& text, char delimiter, size_t n_cols,
                   Index spatial_cols, std::vector<double>* row,
                   std::vector<bool>* row_observed) {
  auto fields = Split(text, delimiter);
  if (fields.size() != n_cols) {
    return Status::DataError(StrFormat("row has %zu fields, expected %zu",
                                       fields.size(), n_cols));
  }
  row->assign(n_cols, 0.0);
  row_observed->assign(n_cols, false);
  for (size_t j = 0; j < n_cols; ++j) {
    std::string_view cell = Trim(fields[j]);
    if (cell.empty()) continue;
    auto parsed = RefParseDouble(cell);
    if (!parsed.ok()) {
      Status st = parsed.status();
      return st.WithContext(StrFormat("column %zu", j));
    }
    if (!std::isfinite(*parsed)) {
      return Status::DataError(StrFormat(
          static_cast<size_t>(spatial_cols) > j
              ? "non-finite spatial coordinate in column %zu"
              : "non-finite value in column %zu",
          j));
    }
    (*row)[j] = *parsed;
    (*row_observed)[j] = true;
  }
  return Status::OK();
}

Result<CsvTable> RefParseCsv(const std::string& content,
                             const CsvReadOptions& options) {
  std::vector<NumberedLine> lines;
  std::istringstream is(content);
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!Trim(line).empty()) lines.push_back(NumberedLine{line_no, line});
  }
  size_t first_data = 0;
  std::vector<std::string> names;
  if (options.has_header) {
    if (lines.empty()) return Status::DataError("CSV has no header row");
    for (auto& f : Split(lines[0].text, options.delimiter)) {
      names.emplace_back(Trim(f));
    }
    first_data = 1;
  } else if (lines.empty()) {
    return Status::DataError("CSV has no rows");
  }
  const bool lenient = options.mode == CsvMode::kLenient;
  size_t n_cols = names.size();
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<bool>> rows_observed;
  std::vector<CsvRowError> row_errors;
  std::vector<double> row;
  std::vector<bool> row_observed;
  for (size_t r = first_data; r < lines.size(); ++r) {
    if (n_cols == 0) n_cols = Split(lines[r].text, options.delimiter).size();
    Status st = RefParseRow(lines[r].text, options.delimiter, n_cols,
                            options.spatial_cols, &row, &row_observed);
    if (st.ok() && SMFL_FAULT_FIRED("csv.row.corrupt")) {
      st = Status::DataError("injected row corruption");
    }
    if (!st.ok()) {
      if (!lenient) {
        return st.WithContext(StrFormat("CSV line %zu", lines[r].line_no));
      }
      row_errors.push_back(CsvRowError{lines[r].line_no, st.message()});
      continue;
    }
    rows.push_back(row);
    rows_observed.push_back(row_observed);
  }
  if (rows.empty()) {
    return Status::DataError(
        row_errors.empty()
            ? std::string("CSV has no data rows")
            : StrFormat("CSV has no valid data rows (%zu quarantined)",
                        row_errors.size()));
  }
  if (!options.has_header) {
    for (size_t j = 0; j < n_cols; ++j) {
      names.push_back(StrFormat("col%zu", j));
    }
  }
  Matrix values(static_cast<Index>(rows.size()), static_cast<Index>(n_cols));
  Mask observed(static_cast<Index>(rows.size()), static_cast<Index>(n_cols));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < n_cols; ++j) {
      values(static_cast<Index>(i), static_cast<Index>(j)) = rows[i][j];
      if (rows_observed[i][j]) {
        observed.Set(static_cast<Index>(i), static_cast<Index>(j));
      }
    }
  }
  ASSIGN_OR_RETURN(
      Table table,
      Table::Create(std::move(names), std::move(values), options.spatial_cols));
  return CsvTable{std::move(table), std::move(observed),
                  std::move(row_errors)};
}

// ------------------------------------------------------------ comparison

void ExpectSame(const Result<CsvTable>& got, const Result<CsvTable>& want,
                const std::string& label) {
  ASSERT_EQ(got.ok(), want.ok())
      << label << ": got " << (got.ok() ? "OK" : got.status().ToString())
      << ", want " << (want.ok() ? "OK" : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << label;
    EXPECT_EQ(got.status().message(), want.status().message()) << label;
    return;
  }
  EXPECT_EQ(got->table.column_names(), want->table.column_names()) << label;
  EXPECT_EQ(got->table.SpatialCols(), want->table.SpatialCols()) << label;
  const Matrix& gv = got->table.values();
  const Matrix& wv = want->table.values();
  ASSERT_EQ(gv.rows(), wv.rows()) << label;
  ASSERT_EQ(gv.cols(), wv.cols()) << label;
  EXPECT_EQ(std::memcmp(gv.data(), wv.data(),
                        static_cast<size_t>(wv.size()) * sizeof(double)),
            0)
      << label;
  EXPECT_TRUE(got->observed == want->observed) << label;
  ASSERT_EQ(got->row_errors.size(), want->row_errors.size()) << label;
  for (size_t e = 0; e < want->row_errors.size(); ++e) {
    EXPECT_EQ(got->row_errors[e].line, want->row_errors[e].line) << label;
    EXPECT_EQ(got->row_errors[e].message, want->row_errors[e].message)
        << label;
  }
}

std::string TempPath() {
  return (std::filesystem::temp_directory_path() /
          ("smfl_csv_oracle_" + std::to_string(::getpid()) + ".csv"))
      .string();
}

// Both readers (in-memory and streamed from a file) against the reference,
// in strict and lenient mode, with and without a header.
void CheckAllModes(const std::string& content, const std::string& label,
                   char delimiter = ',', Index spatial_cols = 2) {
  const std::string path = TempPath();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  for (const CsvMode mode : {CsvMode::kStrict, CsvMode::kLenient}) {
    for (const bool header : {true, false}) {
      CsvReadOptions options;
      options.delimiter = delimiter;
      options.has_header = header;
      options.spatial_cols = spatial_cols;
      options.mode = mode;
      const std::string where =
          label + (mode == CsvMode::kStrict ? " strict" : " lenient") +
          (header ? " header" : " no-header");
      const Result<CsvTable> want = RefParseCsv(content, options);
      ExpectSame(ParseCsv(content, options), want, where + " ParseCsv");
      Result<CsvTable> want_file = RefParseCsv(content, options);
      if (!want_file.ok()) {
        Status st = want_file.status();
        want_file = st.WithContext("while reading '" + path + "'");
      }
      ExpectSame(ReadCsv(path, options), want_file, where + " ReadCsv");
    }
  }
  std::remove(path.c_str());
}

// The cells whose parse is delicate: strtod accepts what from_chars does
// not (a leading '+', hex, inf/nan), strtod reports ERANGE on what
// from_chars accepts (subnormal results), and partial parses.
const std::vector<std::string>& DelicateCells() {
  static const std::vector<std::string> cells = {
      "+1.5",   "0x1p3",  "1e400", "1e-400", "4e-320",
      "2.225073858507201e-308", "2.2250738585072014e-308", "-0",
      "0e999",  "0e-999", ".5",    "5.",     "1e",   "inf",  "-nan",
      "nan",    "Infinity", "1e+",   "0x",     ".",    "-",    "1.5e+3",
      "-1e-400", "1.7976931348623157e308", "1.7976931348623159e308",
      "2.4703282292062328e-324", "1e-320", "00012.50", "  7  ", "1 2",
      "12abc",  "0.1",    "3.141592653589793238462643383279",
      "123456789012345678901234567890", "9007199254740993", "1E5"};
  return cells;
}

// A random table: width 1–40, up to 60 rows, 0–95% empty cells, numbers
// in several spellings, optional padding around cells.
std::string RandomTable(Rng& rng, char delimiter) {
  const auto width = static_cast<Index>(1 + rng.UniformInt(40));
  const auto rows = static_cast<Index>(rng.UniformInt(61));
  const double empty = rng.Uniform(0.0, 0.95);
  const bool pad = rng.Bernoulli(0.3);
  std::string out;
  for (Index j = 0; j < width; ++j) {
    if (j > 0) out += delimiter;
    out += StrFormat("c%lld", static_cast<long long>(j));
  }
  out += '\n';
  char cell[64];
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < width; ++j) {
      if (j > 0) out += delimiter;
      if (rng.Uniform() < empty) {
        if (pad && rng.Bernoulli(0.5)) out += "  ";
        continue;
      }
      const double v = rng.Uniform(-1e3, 1e3) *
                       std::pow(10.0, static_cast<double>(rng.UniformInt(21)) - 10);
      switch (rng.UniformInt(6)) {
        case 0: std::snprintf(cell, sizeof(cell), "%.17g", v); break;
        case 1: std::snprintf(cell, sizeof(cell), "%.6f", v); break;
        case 2: std::snprintf(cell, sizeof(cell), "%g", v); break;
        case 3: std::snprintf(cell, sizeof(cell), "%.3e", v); break;
        case 4:
          std::snprintf(cell, sizeof(cell), "%lld",
                        static_cast<long long>(v));
          break;
        default: {
          const auto& d = DelicateCells();
          std::snprintf(cell, sizeof(cell), "%s",
                        d[rng.UniformInt(d.size())].c_str());
        }
      }
      if (pad) out += ' ';
      out += cell;
      if (pad) out += '\t';
    }
    out += rng.Bernoulli(0.1) ? "\r\n" : "\n";
  }
  return out;
}

TEST(CsvOracleTest, ParseDoubleMatchesStrtodOnDelicateCells) {
  for (const std::string& cell : DelicateCells()) {
    const Result<double> got = ParseDouble(cell);
    const Result<double> want = RefParseDouble(cell);
    ASSERT_EQ(got.ok(), want.ok()) << "'" << cell << "'";
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << cell;
      EXPECT_EQ(got.status().message(), want.status().message()) << cell;
      continue;
    }
    EXPECT_EQ(std::memcmp(&*got, &*want, sizeof(double)), 0) << cell;
  }
}

TEST(CsvOracleTest, DelicateCellsInEveryPosition) {
  for (const std::string& cell : DelicateCells()) {
    CheckAllModes("lat,lon,v\n" + cell + ",1,2\n0.5,0.5,0.5\n",
                  "spatial '" + cell + "'");
    CheckAllModes("lat,lon,v\n0.5,0.5," + cell + "\n1,2,3\n",
                  "attribute '" + cell + "'");
    CheckAllModes("lat,lon,v\n0.5,0.5,0.5\n1,2," + cell,
                  "last line '" + cell + "'");
  }
}

TEST(CsvOracleTest, StructuralEdgeCases) {
  const std::vector<std::string> cases = {
      "",
      "\n",
      "\n\n  \n",
      "a,b,c\n",
      "a,b,c",
      "a,b,c\n1,2,3",
      "a,b,c\n1,2,3\n",
      "a,b,c\r\n1,2,3\r\n4,5,6\r\n",
      "a,b,c\r\n1,2,3\r",
      "a,b,c\n1,2,3,\n4,5,6\n",
      "a,b,c,\n1,2,3,\n",
      "a,b,c\n1,2\n4,5,6\n7,8,9,10\n",
      "a,b,c\n\n1,2,3\n   \n\t\n4,5,6\n",
      "  a , b ,c  \n 1 , 2 , 3 \n",
      "a,b,c\n , , \n1,,3\n",
      "a,b,a\n1,2,3\n",
      "a\n1\n2\n",
      "a,b,c\n1,2,3\r\r\n",
      "a,b,c\n1,2,nan\n4,5,inf\n7,8,9\n",
      "a,b,c\n1,2,x\n4,5,y\n",
      std::string("a,b,c\n1,2,3\0\n4,5,6\n", 20),
      std::string("a,b,c\n1,\0,3\n", 12),
      "a;b;c\n1;2;3\n",
      "\xef\xbb\xbf" "a,b,c\n1,2,3\n",
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    CheckAllModes(cases[c], "case " + std::to_string(c));
    CheckAllModes(cases[c], "case " + std::to_string(c) + " ;", ';');
    CheckAllModes(cases[c], "case " + std::to_string(c) + " spatial 0", ',',
                  0);
    CheckAllModes(cases[c], "case " + std::to_string(c) + " spatial 5", ',',
                  5);
  }
}

TEST(CsvOracleTest, RandomTables) {
  Rng rng(20261018);
  for (int trial = 0; trial < 150; ++trial) {
    const char delimiter = trial % 5 == 4 ? '\t' : ',';
    CheckAllModes(RandomTable(rng, delimiter),
                  "random table " + std::to_string(trial), delimiter);
  }
}

TEST(CsvOracleTest, MutatedTables) {
  Rng rng(77);
  // Bytes an insert draws from, a NUL among them.
  const std::string alphabet("0123456789,.-+eEx \t\r\nnaif\0", 26);
  for (int trial = 0; trial < 300; ++trial) {
    std::string content = RandomTable(rng, ',');
    const auto edits = static_cast<int>(1 + rng.UniformInt(4));
    for (int e = 0; e < edits && !content.empty(); ++e) {
      const size_t at = rng.UniformInt(content.size());
      switch (rng.UniformInt(3)) {
        case 0:  // flip
          content[at] = static_cast<char>(rng.UniformInt(256));
          break;
        case 1:  // insert
          content.insert(content.begin() + static_cast<std::ptrdiff_t>(at),
                         alphabet[rng.UniformInt(alphabet.size())]);
          break;
        default:  // delete
          content.erase(at, 1);
      }
    }
    CheckAllModes(content, "mutated table " + std::to_string(trial));
  }
}

// Larger than the streaming reader's chunk: lines straddle chunk
// boundaries, and one line alone is longer than a chunk.
TEST(CsvOracleTest, FilesLargerThanOneChunk) {
  Rng rng(5);
  std::string big = "lat,lon,a,b,c\n";
  for (int i = 0; i < 6000; ++i) {
    big += StrFormat("%.9f,%.9f,%.17g,,%d\n", rng.Uniform(), rng.Uniform(),
                     rng.Uniform(-5.0, 5.0), i);
  }
  CheckAllModes(big, "big table");
  CheckAllModes(big.substr(0, big.size() - 1), "big table, no last newline");
  std::string long_line = "lat,lon,a\n1,2,3\n" + std::string(70000, ' ') +
                          "4 ,5,6\n7,8,9\n";
  CheckAllModes(long_line, "line longer than a chunk");
  std::string long_bad = big + std::string(70000, '7') + ",1,2,3,4\n";
  CheckAllModes(long_bad, "long malformed last line");
}

// The `csv.row.corrupt` fault point is consulted once per clean row, in
// file order, by both readers.
TEST(CsvOracleTest, FaultPointOrderMatches) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string content = RandomTable(rng, ',');
    for (const CsvMode mode : {CsvMode::kStrict, CsvMode::kLenient}) {
      CsvReadOptions options;
      options.mode = mode;
      FaultSpec spec;
      spec.count = -1;
      spec.probability = 0.3;
      FaultRegistry::Global().SeedRng(static_cast<uint64_t>(trial));
      Result<CsvTable> want = Status::Internal("unset");
      int want_hits = 0;
      {
        ScopedFault fault("csv.row.corrupt", spec);
        want = RefParseCsv(content, options);
        want_hits = FaultRegistry::Global().hits("csv.row.corrupt");
      }
      FaultRegistry::Global().SeedRng(static_cast<uint64_t>(trial));
      ScopedFault fault("csv.row.corrupt", spec);
      ExpectSame(ParseCsv(content, options), want,
                 "fault trial " + std::to_string(trial));
      EXPECT_EQ(FaultRegistry::Global().hits("csv.row.corrupt"), want_hits);
    }
  }
}

// ------------------------------------------------------------ writer

// The cell rule FormatDoubleG12 replaced.
std::string RefCell(double v, bool kept) {
  char cell[kFormatDoubleBytes];
  std::to_chars_result r = std::to_chars(cell, cell + sizeof(cell), v,
                                         std::chars_format::general, 12);
  if (kept) {
    double back = 0.0;
    const std::from_chars_result parsed = std::from_chars(cell, r.ptr, back);
    if (parsed.ec != std::errc() ||
        std::bit_cast<uint64_t>(back) != std::bit_cast<uint64_t>(v)) {
      r = std::to_chars(cell, cell + sizeof(cell), v);
    }
  }
  return std::string(cell, r.ptr);
}

std::string Cell(double v, bool round_trip) {
  char cell[kFormatDoubleBytes];
  return std::string(cell, FormatDoubleG12(cell, v, round_trip));
}

// Checks FormatDoubleG12 against the reference with and without the
// read-back, counting mismatches and reporting the first few.
class FormatSweep {
 public:
  void Check(double v) {
    for (const bool round_trip : {false, true}) {
      ++checked_;
      const std::string want = RefCell(v, round_trip);
      const std::string got = Cell(v, round_trip);
      if (got == want) continue;
      if (++mismatches_ <= 10) {
        ADD_FAILURE() << "value " << std::hexfloat << v << std::defaultfloat
                      << (round_trip ? " (kept)" : "") << ": got '" << got
                      << "', want '" << want << "'";
      }
    }
  }
  // v and `ulps` doubles on each side of it, both signs.
  void CheckAround(double v, int ulps) {
    double below = v, above = v;
    Check(v);
    Check(-v);
    for (int u = 0; u < ulps; ++u) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
      for (const double w : {below, above}) {
        Check(w);
        Check(-w);
      }
    }
  }
  long checked() const { return checked_; }
  long mismatches() const { return mismatches_; }

 private:
  long checked_ = 0;
  long mismatches_ = 0;
};

double ParseText(const char* text) { return std::strtod(text, nullptr); }

TEST(CsvOracleTest, FormatDoubleG12MatchesTheReferenceOnASweep) {
  FormatSweep sweep;
  Rng rng(20261019);
  char text[64];
  // Random bit patterns: every class of double, mostly outside the
  // integer path's range.
  for (int i = 0; i < 20000; ++i) {
    sweep.Check(std::bit_cast<double>(rng.NextU64()));
  }
  // Log-uniform magnitudes over [1e-6, 1e14), and the same values as cells
  // written at %.6f, %.3f, %.11e and %.15g read them back.
  for (int i = 0; i < 20000; ++i) {
    const double v = (rng.Bernoulli(0.5) ? -1.0 : 1.0) *
                     std::pow(10.0, rng.Uniform(-6.0, 14.0));
    sweep.Check(v);
    for (const char* format : {"%.6f", "%.3f", "%.11e", "%.15g"}) {
      std::snprintf(text, sizeof(text), format, v);
      sweep.Check(ParseText(text));
    }
  }
  // Every power of ten from 1e-6 to 1e13: the decade boundaries.
  for (int e = -6; e <= 13; ++e) {
    std::snprintf(text, sizeof(text), "1e%d", e);
    sweep.CheckAround(ParseText(text), 300);
  }
  // Twelve-digit halfway points n.5 10^(X-11) in every decade of the
  // range: the rounding ties and their neighbors.
  for (int x = -4; x <= 11; ++x) {
    for (int i = 0; i < 8; ++i) {
      const auto n = 100000000000ull + rng.UniformInt(900000000000ull);
      std::snprintf(text, sizeof(text), "%llu5e%d",
                    static_cast<unsigned long long>(n), x - 12);
      sweep.CheckAround(ParseText(text), 300);
    }
  }
  // Exact ties: odd j / 2^(12-X) in decade X is a 12-digit significand
  // plus one half.
  for (int x = -4; x <= 11; ++x) {
    for (int i = 0; i < 400; ++i) {
      const double j = static_cast<double>(2 * rng.UniformInt(1u << 20) + 1);
      const double v = std::ldexp(j, x - 12) *
                       std::ldexp(1.0, static_cast<int>(rng.UniformInt(40)));
      sweep.Check(v);
    }
    for (uint64_t j = 1; j < 4000; j += 2) {
      sweep.Check(std::ldexp(static_cast<double>(j), x - 12));
    }
  }
  // Powers of two, whose lower neighbor is half as far as the upper one.
  for (int e = -20; e <= 45; ++e) sweep.CheckAround(std::ldexp(1.0, e), 50);
  // Values that round up to 1e12 (%g's exponent form) and up to 1e-4 (the
  // fixed form of a value below the range): the last few thousand doubles
  // under each.
  sweep.CheckAround(1e12, 4500);
  sweep.CheckAround(1e-4, 4500);
  sweep.Check(999999999999.5);
  sweep.Check(999999999998.5);
  sweep.Check(9.99999999999995e-5);
  sweep.Check(9.999999999995e-5);
  // Zeros, subnormals, the extremes and the non-finite values.
  for (const double v :
       {0.0, std::numeric_limits<double>::denorm_min(), 4e-320,
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    sweep.Check(v);
    sweep.Check(-v);
  }
  EXPECT_EQ(sweep.mismatches(), 0) << "of " << sweep.checked() << " checks";
  EXPECT_GT(sweep.checked(), 400000);
}

// Every power of two in the integer path's range has at most 12
// significant digits, so its %.12g text is exact (the formatter's read-back
// test relies on it).
TEST(CsvOracleTest, PowersOfTwoInRangeFormatExactly) {
  for (int e = -13; e <= 39; ++e) {
    const double v = std::ldexp(1.0, e);
    ASSERT_GE(v, 1e-4);
    ASSERT_LT(v, 1e12);
    const std::string text = Cell(v, false);
    EXPECT_EQ(ParseText(text.c_str()), v) << text;
    EXPECT_EQ(Cell(v, true), text);
  }
}

// The reference writer: the header, then each row's cells by the old rule.
std::string RefWrite(const Table& table, const Mask& emitted, const Mask* kept,
                     char delimiter) {
  std::string out = Join(table.column_names(), std::string(1, delimiter));
  out += '\n';
  for (Index i = 0; i < table.NumRows(); ++i) {
    for (Index j = 0; j < table.NumCols(); ++j) {
      if (j > 0) out += delimiter;
      if (!emitted.Contains(i, j)) continue;
      out += RefCell(table.values()(i, j),
                     kept != nullptr && kept->Contains(i, j));
    }
    out += '\n';
  }
  return out;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// WriteCsv (the cells of `mask`) and WriteCompletedCsv (every cell, those of
// `mask` kept) against the reference writer.
void CheckWriters(const Table& table, const Mask& mask, char delimiter,
                  const std::string& label) {
  const std::string path = TempPath();
  ASSERT_TRUE(WriteCsv(path, table, mask, delimiter).ok()) << label;
  EXPECT_EQ(ReadBytes(path), RefWrite(table, mask, nullptr, delimiter))
      << label << " WriteCsv";
  ASSERT_TRUE(WriteCompletedCsv(path, table, mask, delimiter).ok()) << label;
  EXPECT_EQ(ReadBytes(path),
            RefWrite(table, Mask::AllSet(table.NumRows(), table.NumCols()),
                     &mask, delimiter))
      << label << " WriteCompletedCsv";
  std::remove(path.c_str());
}

// A random value of one of the shapes a table holds: a parsed text cell,
// full precision, a small integer, or a random bit pattern.
double RandomCellValue(Rng& rng) {
  const double v = rng.Uniform(-1e3, 1e3) *
                   std::pow(10.0, static_cast<double>(rng.UniformInt(21)) - 10);
  char text[64];
  switch (rng.UniformInt(6)) {
    case 0: return v;
    case 1: std::snprintf(text, sizeof(text), "%.6f", v); break;
    case 2: std::snprintf(text, sizeof(text), "%.3e", v); break;
    case 3: std::snprintf(text, sizeof(text), "%.12g", v); break;
    case 4: return std::round(v);
    default: return std::bit_cast<double>(rng.NextU64());
  }
  return ParseText(text);
}

TEST(CsvOracleTest, WritersMatchTheReferenceOnRandomTables) {
  Rng rng(20261020);
  for (int trial = 0; trial < 120; ++trial) {
    const auto rows = static_cast<Index>(1 + rng.UniformInt(60));
    const auto cols = static_cast<Index>(1 + rng.UniformInt(30));
    Matrix values(rows, cols);
    Mask mask(rows, cols);
    const double share = rng.Uniform();
    for (Index i = 0; i < rows; ++i) {
      for (Index j = 0; j < cols; ++j) {
        values(i, j) = RandomCellValue(rng);
        if (rng.Uniform() < share) mask.Set(i, j);
      }
    }
    std::vector<std::string> names;
    for (Index j = 0; j < cols; ++j) {
      names.push_back(StrFormat("c%lld", static_cast<long long>(j)));
    }
    auto table = Table::Create(names, values, std::min<Index>(cols, 2));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    CheckWriters(*table, mask, trial % 4 == 3 ? ';' : ',',
                 "random table " + std::to_string(trial));
  }
}

// Tables read from random CSV text, then changed bit by bit: flipped
// significand, exponent and sign bits.
TEST(CsvOracleTest, WritersMatchTheReferenceOnMutatedTables) {
  Rng rng(20261021);
  int written = 0;
  for (int trial = 0; trial < 200; ++trial) {
    CsvReadOptions options;
    options.mode = CsvMode::kLenient;
    Result<CsvTable> parsed = ParseCsv(RandomTable(rng, ','), options);
    if (!parsed.ok()) continue;
    Matrix values = parsed->table.values();
    const auto flips = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(values.size()) + 1));
    for (int f = 0; f < flips; ++f) {
      double& cell = values.data()[rng.UniformInt(
          static_cast<uint64_t>(values.size()))];
      cell = std::bit_cast<double>(std::bit_cast<uint64_t>(cell) ^
                                   (uint64_t{1} << rng.UniformInt(64)));
    }
    auto table = Table::Create(parsed->table.column_names(), values,
                               parsed->table.SpatialCols());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    CheckWriters(*table, parsed->observed, ',',
                 "mutated table " + std::to_string(trial));
    ++written;
  }
  EXPECT_GT(written, 100);
}

}  // namespace
}  // namespace smfl::data
