#include "src/data/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/durable_io.h"
#include "src/common/fault.h"
#include "src/common/strings.h"

namespace smfl::data {

namespace {

// A data line with its 1-based position in the original file.
struct NumberedLine {
  size_t line_no;
  std::string text;
};

// Parses one data row into `row` / `row_observed`. Returns a row-local
// error (no file context) when the row is malformed.
Status ParseRow(const std::string& text, char delimiter, size_t n_cols,
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
    if (cell.empty()) continue;  // unobserved
    auto parsed = ParseDouble(cell);
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

Result<CsvTable> ParseLines(const std::vector<NumberedLine>& lines,
                            const CsvReadOptions& options) {
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
  rows.reserve(lines.size() - first_data);
  std::vector<double> row;
  std::vector<bool> row_observed;
  for (size_t r = first_data; r < lines.size(); ++r) {
    if (n_cols == 0) {
      n_cols = Split(lines[r].text, options.delimiter).size();
    }
    Status st = ParseRow(lines[r].text, options.delimiter, n_cols,
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

}  // namespace

Result<CsvTable> ParseCsv(const std::string& content,
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
  return ParseLines(lines, options);
}

Result<CsvTable> ReadCsv(const std::string& path,
                         const CsvReadOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = ParseCsv(buf.str(), options);
  if (!result.ok()) {
    Status st = result.status();
    return st.WithContext("while reading '" + path + "'");
  }
  return result;
}

Status WriteCsv(const std::string& path, const Table& table,
                const Mask& observed, char delimiter) {
  if (observed.rows() != table.NumRows() ||
      observed.cols() != table.NumCols()) {
    return Status::InvalidArgument("WriteCsv: mask shape mismatch");
  }
  if (SMFL_FAULT_FIRED("io.write.fail")) {
    return Status::IoError("injected write failure for '" + path + "'");
  }
  // Rendered in memory, then atomically replaced on disk (temp + fsync +
  // rename): a crash mid-write can never leave a truncated CSV behind.
  // Cells go through std::to_chars in general format at precision 12,
  // which the standard defines as printf's %.12g: the same bytes an
  // ostream at precision(12) writes, without its per-cell overhead.
  std::string out;
  const auto& names = table.column_names();
  for (size_t j = 0; j < names.size(); ++j) {
    if (j > 0) out += delimiter;
    out += names[j];
  }
  out += '\n';
  // %.12g needs at most 19 bytes ("-1.23456789012e-308"), plus a delimiter.
  out.reserve(out.size() + static_cast<size_t>(table.NumRows()) *
                               (static_cast<size_t>(table.NumCols()) * 20 + 1));
  char cell[32];
  for (Index i = 0; i < table.NumRows(); ++i) {
    for (Index j = 0; j < table.NumCols(); ++j) {
      if (j > 0) out += delimiter;
      if (!observed.Contains(i, j)) continue;
      const std::to_chars_result r =
          std::to_chars(cell, cell + sizeof(cell), table.values()(i, j),
                        std::chars_format::general, 12);
      out.append(cell, r.ptr);
    }
    out += '\n';
  }
  return WriteFileDurable(path, out);
}

Status WriteCsv(const std::string& path, const Table& table, char delimiter) {
  return WriteCsv(path, table,
                  Mask::AllSet(table.NumRows(), table.NumCols()), delimiter);
}

std::string FormatRowErrors(const std::vector<CsvRowError>& errors) {
  std::string out;
  for (const CsvRowError& e : errors) {
    out += StrFormat("line %zu: %s\n", e.line, e.message.c_str());
  }
  return out;
}

}  // namespace smfl::data
