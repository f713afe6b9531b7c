#include "perfbench/src/workload.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kPi = 3.14159265358979323846;

// Rounds to the six decimals the CSV carries, so the truth is exactly the
// value the program reads.
double SixDecimals(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return std::strtod(buf, nullptr);
}

double FieldValue(const SpatialField& f, int latent, double x, double y) {
  double v = 0.0;
  for (const auto& b : f.bumps[latent]) {
    const double dx = x - b[0], dy = y - b[1];
    v += b[3] * std::exp(-(dx * dx + dy * dy) / (2.0 * b[2] * b[2]));
  }
  const auto& w = f.wave[latent];
  v += 0.3 * (1.0 + std::sin(2.0 * kPi * (w[0] * x + w[1] * y) + w[2]));
  return v;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix64(seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
}

int64_t Rng::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  return SplitMix64(x);
}

int64_t SpatialTable::ObservedCount() const {
  int64_t n = 0;
  for (uint8_t o : observed) n += o;
  return n;
}

SpatialField MakeField(int64_t cols) {
  Rng rng(0x5eed0f1e1dULL);
  SpatialField f;
  f.cols = cols;
  for (int k = 0; k < SpatialField::kLatent; ++k) {
    for (auto& b : f.bumps[k]) {
      b[0] = rng.Uniform();
      b[1] = rng.Uniform();
      b[2] = rng.Uniform(0.08, 0.3);
      b[3] = rng.Uniform(0.5, 1.5);
    }
    f.wave[k][0] = rng.Uniform(0.5, 2.0);
    f.wave[k][1] = rng.Uniform(0.5, 2.0);
    f.wave[k][2] = rng.Uniform(0.0, 2.0 * kPi);
  }
  const int64_t attrs = cols - f.spatial;
  f.loading.resize(static_cast<size_t>(SpatialField::kLatent * attrs));
  for (double& w : f.loading) w = rng.Uniform();
  for (int64_t j = 0; j < attrs; ++j) {
    f.offset.push_back(rng.Uniform(0.0, 50.0));
    f.scale.push_back(rng.Uniform(1.0, 100.0));
  }
  return f;
}

SpatialTable SampleRows(const SpatialField& field, Rng& rng, int64_t rows) {
  SpatialTable t;
  t.rows = rows;
  t.cols = field.cols;
  t.spatial = field.spatial;
  t.truth.resize(static_cast<size_t>(rows * t.cols));
  t.observed.assign(t.truth.size(), 1);
  const int64_t attrs = t.cols - t.spatial;
  for (int64_t i = 0; i < rows; ++i) {
    double* row = &t.truth[static_cast<size_t>(i * t.cols)];
    const double x = rng.Uniform(), y = rng.Uniform();
    row[0] = SixDecimals(30.0 + 10.0 * x);
    row[1] = SixDecimals(100.0 + 20.0 * y);
    double latent[SpatialField::kLatent];
    for (int k = 0; k < SpatialField::kLatent; ++k) {
      latent[k] = FieldValue(field, k, x, y);
    }
    for (int64_t j = 0; j < attrs; ++j) {
      double v = 0.0;
      for (int k = 0; k < SpatialField::kLatent; ++k) {
        v += latent[k] * field.loading[static_cast<size_t>(k * attrs + j)];
      }
      v = v / SpatialField::kLatent + 0.02 * rng.Normal();
      row[t.spatial + j] = SixDecimals(field.offset[static_cast<size_t>(j)] +
                                       field.scale[static_cast<size_t>(j)] * v);
    }
  }
  return t;
}

void HideCells(SpatialTable& t, Rng& rng, double share) {
  for (int64_t i = 0; i < t.rows; ++i) {
    for (int64_t j = t.spatial; j < t.cols; ++j) {
      if (rng.Uniform() < share) t.observed[static_cast<size_t>(i * t.cols + j)] = 0;
    }
  }
}

void HideOutages(SpatialTable& t, Rng& rng, int patterns, int64_t outage_cols,
                 double pattern_share, double cell_share) {
  const int64_t attrs = t.cols - t.spatial;
  std::vector<std::vector<int64_t>> outage(static_cast<size_t>(patterns));
  for (auto& cols : outage) {
    std::vector<int64_t> order(static_cast<size_t>(attrs));
    for (int64_t j = 0; j < attrs; ++j) order[static_cast<size_t>(j)] = j;
    for (int64_t j = attrs - 1; j > 0; --j) {
      std::swap(order[static_cast<size_t>(j)],
                order[static_cast<size_t>(rng.Below(j + 1))]);
    }
    cols.assign(order.begin(), order.begin() + outage_cols);
  }
  for (int64_t i = 0; i < t.rows; ++i) {
    uint8_t* row = &t.observed[static_cast<size_t>(i * t.cols)];
    if (rng.Uniform() < pattern_share) {
      for (int64_t j : outage[static_cast<size_t>(rng.Below(patterns))]) {
        row[t.spatial + j] = 0;
      }
    } else {
      for (int64_t j = t.spatial; j < t.cols; ++j) {
        if (rng.Uniform() < cell_share) row[j] = 0;
      }
    }
  }
}

std::string CsvHeader(const SpatialTable& t) {
  std::string out = "lat,lon";
  for (int64_t j = t.spatial; j < t.cols; ++j) {
    char name[32];
    std::snprintf(name, sizeof(name), ",a%02lld",
                  static_cast<long long>(j - t.spatial + 1));
    out += name;
  }
  return out;
}

std::string ToCsv(const SpatialTable& t) {
  std::string out = CsvHeader(t) + "\n";
  char cell[64];
  for (int64_t i = 0; i < t.rows; ++i) {
    for (int64_t j = 0; j < t.cols; ++j) {
      if (j > 0) out += ',';
      if (!t.Observed(i, j)) continue;
      std::snprintf(cell, sizeof(cell), "%.6f", t.Truth(i, j));
      out += cell;
    }
    out += '\n';
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  return static_cast<bool>(out);
}

bool ReadTextFile(const std::string& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  content->assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  return !in.bad();
}

namespace {

// 4000 x 20 spatial tables (2 coordinate + 18 attribute columns), rank-10
// SMFL, one thread: on a shared host a second thread's wall time spreads
// 12-44% from run to run, one thread's about 8%. See README.md for the
// measurements and the reasons behind each choice.
constexpr WorkloadSpec kWorkloads[] = {
    {"impute-sparse", 1, 4000, 20, 0.90, false, 0, 0},
    {"impute-dense", 1, 4000, 20, 0.10, false, 0, 0},
    {"apply-batches", 1, 4000, 20, 0.10, true, 1000, 8},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

}  // namespace perfbench
