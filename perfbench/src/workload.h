// The benchmark's own input generator and workload definitions.
//
// Inputs come only from the workload seed and this file, never from the
// library's generators (src/data/generators.cc), so a change to the
// library cannot change what the benchmark feeds it.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  // Uniform in [0, 1) from the top 53 bits.
  double Uniform();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  // Standard normal (Box-Muller).
  double Normal();
  // Uniform integer in [0, n).
  int64_t Below(int64_t n);

 private:
  uint64_t s_[4];
};

// Seed of an independent stream `stream` derived from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// A spatial table: the generator's truth for every cell and which cells
// are written to the input CSV. The first `spatial` columns are the
// coordinates (lat, lon); every value has six decimals, so the CSV text
// holds it exactly.
struct SpatialTable {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t spatial = 2;
  std::vector<double> truth;       // row-major
  std::vector<uint8_t> observed;   // row-major; 1 = written to the CSV

  double Truth(int64_t r, int64_t c) const {
    return truth[static_cast<size_t>(r * cols + c)];
  }
  bool Observed(int64_t r, int64_t c) const {
    return observed[static_cast<size_t>(r * cols + c)] != 0;
  }
  int64_t ObservedCount() const;
};

// Smooth nonnegative spatial fields plus a low-rank loading of them into
// the attribute columns. Rows sampled from one field share its structure,
// so a model fit on one sample serves another.
struct SpatialField {
  static constexpr int kLatent = 4;
  static constexpr int kBumps = 3;
  int64_t cols = 0;
  int64_t spatial = 2;
  // Per latent field: Gaussian bumps (cx, cy, width, amplitude) and one
  // plane wave (fx, fy, phase).
  double bumps[kLatent][kBumps][4];
  double wave[kLatent][3];
  std::vector<double> loading;  // kLatent x attribute columns
  std::vector<double> offset;   // per attribute column
  std::vector<double> scale;    // per attribute column
};

// The field is part of a workload's definition, not of its seed: every
// seed then poses a problem of the same difficulty (nrmse and iteration
// counts stay comparable across seeds), while the seed draws the
// locations, the noise and the masks.
SpatialField MakeField(int64_t cols);

// `rows` fresh locations drawn from the field, every cell observed.
SpatialTable SampleRows(const SpatialField& field, Rng& rng, int64_t rows);

// Hides each attribute cell independently with probability `share`; the
// coordinates stay observed.
void HideCells(SpatialTable& table, Rng& rng, double share);

// Serving batches: `pattern_share` of the rows lose one of `patterns`
// column-outage patterns (each hides `outage_cols` attribute columns);
// the remaining rows lose each attribute cell independently with
// probability `cell_share`.
void HideOutages(SpatialTable& table, Rng& rng, int patterns,
                 int64_t outage_cols, double pattern_share,
                 double cell_share);

// "lat,lon,a01,...": the header line, without its newline.
std::string CsvHeader(const SpatialTable& table);

// Header plus one line per row; hidden cells are empty.
std::string ToCsv(const SpatialTable& table);

// Writes `content` to `path`; false on any I/O error.
bool WriteTextFile(const std::string& path, const std::string& content);
bool ReadTextFile(const std::string& path, std::string* content);

// One benchmark workload. See README.md for why each exists.
struct WorkloadSpec {
  const char* name;
  // --threads of every request and of the serving model's fit.
  int threads;
  // Imputation table (impute) or serving-model training table (apply).
  int64_t rows;
  int64_t cols;
  double hidden_share;
  // Serving workload: `smfl fit` in set-up, `smfl apply` per request over
  // a pool of batches, each a fresh sample of the same field.
  bool apply;
  int64_t batch_rows;
  int batch_pool;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
