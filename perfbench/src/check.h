// Per-request output check and the nrmse scorer, both independent of the
// library: the output CSV is parsed here, not with data::ReadCsv.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>

#include "perfbench/src/workload.h"

namespace perfbench {

// FNV-1a 64 over the bytes.
uint64_t Fnv1a64(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL);

struct OutputCheck {
  bool ok = false;
  std::string error;     // first violation when !ok
  uint64_t hash = 0;     // of the output bytes
  // Hidden cells' squared error, each divided by its column's truth range.
  double scaled_sq_error = 0.0;
  int64_t hidden_cells = 0;
};

// Checks one completed CSV against the table it was made from: the shape
// and header match, no cell is empty or non-finite, and every cell that
// was observed comes back as exactly the same double.
OutputCheck CheckOutput(const SpatialTable& input, const std::string& csv);

// Root mean square of the range-scaled errors; 0 without hidden cells.
double Nrmse(double scaled_sq_error, int64_t hidden_cells);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
