#include "perfbench/src/check.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

uint64_t Fnv1a64(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

OutputCheck Fail(OutputCheck c, const std::string& error) {
  c.ok = false;
  c.error = error;
  return c;
}

std::string At(int64_t row, int64_t col) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "row %lld col %lld",
                static_cast<long long>(row), static_cast<long long>(col));
  return buf;
}

}  // namespace

OutputCheck CheckOutput(const SpatialTable& in, const std::string& csv) {
  OutputCheck c;
  c.hash = Fnv1a64(csv);
  const std::string header = CsvHeader(in);
  if (csv.compare(0, header.size() + 1, header + "\n") != 0) {
    return Fail(c, "header differs from the input's");
  }
  std::vector<double> lo(static_cast<size_t>(in.cols), INFINITY);
  std::vector<double> hi(static_cast<size_t>(in.cols), -INFINITY);
  for (int64_t i = 0; i < in.rows; ++i) {
    for (int64_t j = 0; j < in.cols; ++j) {
      lo[static_cast<size_t>(j)] = std::min(lo[static_cast<size_t>(j)], in.Truth(i, j));
      hi[static_cast<size_t>(j)] = std::max(hi[static_cast<size_t>(j)], in.Truth(i, j));
    }
  }
  size_t pos = header.size() + 1;
  for (int64_t i = 0; i < in.rows; ++i) {
    for (int64_t j = 0; j < in.cols; ++j) {
      const char want = j + 1 < in.cols ? ',' : '\n';
      const size_t end = csv.find(want, pos);
      if (end == std::string::npos) return Fail(c, At(i, j) + ": missing");
      if (end == pos) return Fail(c, At(i, j) + ": empty cell");
      const std::string cell = csv.substr(pos, end - pos);
      if (cell.find_first_of(",\n") != std::string::npos) {
        return Fail(c, At(i, j) + ": wrong number of cells");
      }
      errno = 0;
      char* parse_end = nullptr;
      const double v = std::strtod(cell.c_str(), &parse_end);
      if (parse_end != cell.c_str() + cell.size() || errno == ERANGE ||
          !std::isfinite(v)) {
        return Fail(c, At(i, j) + ": not a finite number: '" + cell + "'");
      }
      const double truth = in.Truth(i, j);
      if (in.Observed(i, j)) {
        if (v != truth) {
          return Fail(c, At(i, j) + ": observed cell changed to '" + cell + "'");
        }
      } else {
        const double range = hi[static_cast<size_t>(j)] - lo[static_cast<size_t>(j)];
        const double scaled = (v - truth) / (range > 0.0 ? range : 1.0);
        c.scaled_sq_error += scaled * scaled;
        ++c.hidden_cells;
      }
      pos = end + 1;
    }
  }
  if (pos != csv.size()) return Fail(c, "extra content after the last row");
  c.ok = true;
  return c;
}

double Nrmse(double scaled_sq_error, int64_t hidden_cells) {
  if (hidden_cells == 0) return 0.0;
  return std::sqrt(scaled_sq_error / static_cast<double>(hidden_cells));
}

}  // namespace perfbench
