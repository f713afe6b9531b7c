#include "src/data/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "src/common/durable_io.h"
#include "src/common/fault.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"

namespace smfl::data {

namespace {

// Parses a CsvTable one line at a time, straight into the final row-major
// value buffer and the mask bytes: no per-line strings, no field vectors,
// no per-row containers. A row is appended (zero-filled) before its cells
// are parsed in place, and truncated away again when it is malformed.
class CsvParser {
 public:
  explicit CsvParser(const CsvReadOptions& options) : options_(options) {}

  // One line of the file, its '\n' excluded, with its 1-based number.
  // Returns the error that ends a strict read; lenient reads quarantine.
  Status AddLine(std::string_view line, size_t line_no) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (Trim(line).empty()) return Status::OK();
    if (!seen_first_) {
      seen_first_ = true;
      if (options_.has_header) {
        ForEachField(line, [&](std::string_view f) {
          names_.emplace_back(Trim(f));
        });
        n_cols_ = names_.size();
        return Status::OK();
      }
    }
    if (n_cols_ == 0) n_cols_ = FieldCount(line);
    Status st = ParseRow(line);
    if (st.ok()) {
      ++rows_;
      return st;
    }
    if (options_.mode != CsvMode::kLenient) {
      return st.WithContext(StrFormat("CSV line %zu", line_no));
    }
    row_errors_.push_back(CsvRowError{line_no, st.message()});
    return Status::OK();
  }

  Result<CsvTable> Finish() {
    if (!seen_first_) {
      return Status::DataError(options_.has_header ? "CSV has no header row"
                                                   : "CSV has no rows");
    }
    if (rows_ == 0) {
      return Status::DataError(
          row_errors_.empty()
              ? std::string("CSV has no data rows")
              : StrFormat("CSV has no valid data rows (%zu quarantined)",
                          row_errors_.size()));
    }
    if (!options_.has_header) {
      for (size_t j = 0; j < n_cols_; ++j) {
        names_.push_back(StrFormat("col%zu", j));
      }
    }
    const auto rows = static_cast<Index>(rows_);
    const auto cols = static_cast<Index>(n_cols_);
    Mask observed = Mask::FromRowMajorBytes(rows, cols, std::move(observed_));
    ASSIGN_OR_RETURN(
        Table table,
        Table::Create(std::move(names_),
                      Matrix::FromRowMajor(rows, cols, std::move(values_)),
                      options_.spatial_cols));
    return CsvTable{std::move(table), std::move(observed),
                    std::move(row_errors_)};
  }

 private:
  // Calls fn on each delimiter-separated field of `line`, in order (one
  // more field than delimiters, as Split cuts them).
  template <typename Fn>
  void ForEachField(std::string_view line, Fn&& fn) const {
    size_t start = 0;
    while (true) {
      const size_t pos = line.find(options_.delimiter, start);
      if (pos == std::string_view::npos) {
        fn(line.substr(start));
        return;
      }
      fn(line.substr(start, pos - start));
      start = pos + 1;
    }
  }

  size_t FieldCount(std::string_view line) const {
    return static_cast<size_t>(
               std::count(line.begin(), line.end(), options_.delimiter)) +
           1;
  }

  // Parses one data row into a new last row of the buffers. Returns a
  // row-local error (no file context), with the row removed again, when
  // the row is malformed: a wrong field count first, else the first bad
  // cell, else an injected `csv.row.corrupt` fault.
  Status ParseRow(std::string_view line) {
    const size_t base = values_.size();
    values_.resize(base + n_cols_, 0.0);
    observed_.resize(base + n_cols_, 0);
    Status st;
    size_t fields = 0;
    ForEachField(line, [&](std::string_view field) {
      const size_t col = fields++;
      if (col >= n_cols_ || !st.ok()) return;
      const std::string_view cell = Trim(field);
      if (cell.empty()) return;  // unobserved
      double value = 0.0;
      if (!ParseDoubleFast(cell, &value)) {
        Result<double> parsed = ParseDouble(cell);
        if (!parsed.ok()) {
          st = parsed.status();
          st.WithContext(StrFormat("column %zu", col));
          return;
        }
        value = *parsed;
      }
      if (!std::isfinite(value)) {
        st = Status::DataError(StrFormat(
            static_cast<size_t>(options_.spatial_cols) > col
                ? "non-finite spatial coordinate in column %zu"
                : "non-finite value in column %zu",
            col));
        return;
      }
      values_[base + col] = value;
      observed_[base + col] = 1;
    });
    if (fields != n_cols_) {
      st = Status::DataError(
          StrFormat("row has %zu fields, expected %zu", fields, n_cols_));
    }
    if (st.ok() && SMFL_FAULT_FIRED("csv.row.corrupt")) {
      st = Status::DataError("injected row corruption");
    }
    if (!st.ok()) {
      values_.resize(base);
      observed_.resize(base);
    }
    return st;
  }

  const CsvReadOptions& options_;
  bool seen_first_ = false;
  std::vector<std::string> names_;
  size_t n_cols_ = 0;
  size_t rows_ = 0;
  std::vector<double> values_;
  std::vector<uint8_t> observed_;
  std::vector<CsvRowError> row_errors_;
};

// Feeds the lines of `text` to the parser as std::getline cuts them: at
// every '\n', with a last line after the final '\n' only when it is not
// empty. Without `last`, the text after the final '\n' is left unconsumed
// (the next chunk of a streamed file continues it). Sets `consumed` to the
// bytes fed; stops at the parser's first error.
Status FeedLines(std::string_view text, bool last, CsvParser& parser,
                 size_t& line_no, size_t& consumed) {
  consumed = 0;
  while (consumed < text.size()) {
    const size_t nl = text.find('\n', consumed);
    if (nl == std::string_view::npos && !last) break;
    const size_t end = nl == std::string_view::npos ? text.size() : nl;
    RETURN_NOT_OK(
        parser.AddLine(text.substr(consumed, end - consumed), ++line_no));
    consumed = nl == std::string_view::npos ? text.size() : nl + 1;
  }
  return Status::OK();
}

}  // namespace

Result<CsvTable> ParseCsv(const std::string& content,
                          const CsvReadOptions& options) {
  CsvParser parser(options);
  size_t line_no = 0, consumed = 0;
  RETURN_NOT_OK(FeedLines(content, true, parser, line_no, consumed));
  return parser.Finish();
}

Result<CsvTable> ReadCsv(const std::string& path,
                         const CsvReadOptions& options) {
  SMFL_TRACE_SPAN("data.read_csv");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  // The file is streamed through one chunk buffer, never held whole: the
  // parsed rows are the only copy of the table in memory.
  constexpr size_t kChunkBytes = size_t{1} << 16;
  CsvParser parser(options);
  std::string chunk;
  size_t line_no = 0, pending = 0;
  Status st;
  while (st.ok()) {
    // Keep the unfinished last line, then top the buffer up.
    if (chunk.size() < pending + kChunkBytes) {
      chunk.resize(pending + kChunkBytes);
    }
    in.read(chunk.data() + pending, static_cast<std::streamsize>(kChunkBytes));
    const auto got = static_cast<size_t>(in.gcount());
    const bool last = got < kChunkBytes;
    const std::string_view text(chunk.data(), pending + got);
    size_t consumed = 0;
    st = FeedLines(text, last, parser, line_no, consumed);
    if (last) break;
    pending = text.size() - consumed;
    std::memmove(chunk.data(), chunk.data() + consumed, pending);
  }
  Result<CsvTable> result =
      st.ok() ? parser.Finish() : Result<CsvTable>(std::move(st));
  if (!result.ok()) {
    Status error = result.status();
    return error.WithContext("while reading '" + path + "'");
  }
  return result;
}

namespace {

// Writes the cells in `emitted` (the rest as empty cells), each through
// FormatDoubleG12: at %.12g, the bytes an ostream at precision(12) writes,
// without its per-cell overhead. A cell in `kept` whose %.12g text would
// read back as another double is written in the shortest form that reads
// back as its own instead.
Status WriteCells(const std::string& path, const Table& table,
                  const Mask& emitted, const Mask* kept, char delimiter) {
  SMFL_TRACE_SPAN("data.write_csv");
  if (emitted.rows() != table.NumRows() ||
      emitted.cols() != table.NumCols() ||
      (kept != nullptr && !kept->SameShape(emitted))) {
    return Status::InvalidArgument("WriteCsv: mask shape mismatch");
  }
  if (SMFL_FAULT_FIRED("io.write.fail")) {
    return Status::IoError("injected write failure for '" + path + "'");
  }
  // Rendered in memory, then atomically replaced on disk (temp + fsync +
  // rename): a crash mid-write can never leave a truncated CSV behind.
  std::string out;
  const auto& names = table.column_names();
  for (size_t j = 0; j < names.size(); ++j) {
    if (j > 0) out += delimiter;
    out += names[j];
  }
  out += '\n';
  // A %.12g cell takes at most 19 bytes ("-1.23456789012e-308"), plus a
  // delimiter; each row is formatted in place into room for its widest.
  const auto cols = static_cast<size_t>(table.NumCols());
  const size_t row_room = cols * (kFormatDoubleBytes + 1) + 1;
  out.reserve(out.size() + static_cast<size_t>(table.NumRows()) *
                               (cols * 20 + 1) + row_room);
  for (Index i = 0; i < table.NumRows(); ++i) {
    const size_t row_start = out.size();
    out.resize(row_start + row_room);
    char* p = out.data() + row_start;
    for (Index j = 0; j < table.NumCols(); ++j) {
      if (j > 0) *p++ = delimiter;
      if (!emitted.Contains(i, j)) continue;
      p = FormatDoubleG12(p, table.values()(i, j),
                          kept != nullptr && kept->Contains(i, j));
    }
    *p++ = '\n';
    out.resize(static_cast<size_t>(p - out.data()));
  }
  return WriteFileDurable(path, out);
}

}  // namespace

Status WriteCsv(const std::string& path, const Table& table,
                const Mask& observed, char delimiter) {
  return WriteCells(path, table, observed, nullptr, delimiter);
}

Status WriteCsv(const std::string& path, const Table& table, char delimiter) {
  return WriteCsv(path, table,
                  Mask::AllSet(table.NumRows(), table.NumCols()), delimiter);
}

Status WriteCompletedCsv(const std::string& path, const Table& table,
                         const Mask& kept, char delimiter) {
  return WriteCells(path, table,
                    Mask::AllSet(table.NumRows(), table.NumCols()), &kept,
                    delimiter);
}

std::string FormatRowErrors(const std::vector<CsvRowError>& errors) {
  std::string out;
  for (const CsvRowError& e : errors) {
    out += StrFormat("line %zu: %s\n", e.line, e.message.c_str());
  }
  return out;
}

}  // namespace smfl::data
