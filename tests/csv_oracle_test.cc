// Reference oracle for CSV ingest (data::ParseCsv, data::ReadCsv) and for
// ParseDouble.
//
// The reference below is the line-at-a-time parser the one-pass reader
// replaced, kept verbatim in spirit: std::getline over the whole text,
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

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
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

}  // namespace
}  // namespace smfl::data
