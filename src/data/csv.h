// CSV I/O for Tables. Empty cells are legal and come back as unobserved
// entries (value 0 in the matrix, false in the returned observation mask).
//
// Two ingestion modes (CsvReadOptions::mode):
//  * kStrict (default)  — any malformed row (wrong arity, non-numeric cell,
//    non-finite value) fails the whole file with kDataError.
//  * kLenient           — malformed rows are quarantined into
//    CsvTable::row_errors and parsing continues; the returned table holds
//    only the clean rows. The file still fails when nothing clean remains.

#ifndef SMFL_DATA_CSV_H_
#define SMFL_DATA_CSV_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/mask.h"
#include "src/data/table.h"

namespace smfl::data {

// One quarantined input row (lenient mode only).
struct CsvRowError {
  // 1-based line number in the original file (header included in the count).
  size_t line = 0;
  std::string message;
};

struct CsvTable {
  Table table;
  // Observation mask Ω: true where the cell held a value.
  Mask observed;
  // Rows dropped by lenient ingestion, in file order. Empty in strict mode
  // (strict fails instead of quarantining).
  std::vector<CsvRowError> row_errors;
};

enum class CsvMode {
  kStrict,
  kLenient,
};

struct CsvReadOptions {
  char delimiter = ',';
  bool has_header = true;
  // How many leading columns are spatial information (the paper's L).
  Index spatial_cols = 2;
  CsvMode mode = CsvMode::kStrict;
};

// Reads a numeric CSV file. Strict mode fails with DataError on ragged
// rows, non-numeric non-empty cells, or non-finite values (a NaN spatial
// coordinate is malformed input, not a missing value); lenient mode
// quarantines such rows into `row_errors`. IoError if the file cannot be
// opened.
Result<CsvTable> ReadCsv(const std::string& path,
                         const CsvReadOptions& options = {});

// Parses CSV from an in-memory string (same semantics as ReadCsv).
Result<CsvTable> ParseCsv(const std::string& content,
                          const CsvReadOptions& options = {});

// Writes a table at %.12g per cell; entries not in `observed` are emitted
// as empty cells.
Status WriteCsv(const std::string& path, const Table& table,
                const Mask& observed, char delimiter = ',');

// Convenience overload: all entries observed.
Status WriteCsv(const std::string& path, const Table& table,
                char delimiter = ',');

// Writes every cell of a completed table — the output of a command that
// fills cells in. The cells in `kept`, carried over from its input, read
// back as the identical double: at %.12g when that text does, else in the
// shortest form that does. The filled-in cells are written at %.12g.
Status WriteCompletedCsv(const std::string& path, const Table& table,
                         const Mask& kept, char delimiter = ',');

// One line per quarantined row: "line 7: row has 3 fields, expected 4".
std::string FormatRowErrors(const std::vector<CsvRowError>& errors);

}  // namespace smfl::data

#endif  // SMFL_DATA_CSV_H_
