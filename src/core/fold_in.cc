#include "src/core/fold_in.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/common/fit_progress.h"
#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/la/simd.h"
#include "src/mf/factorization.h"

namespace smfl::core {

namespace {

// Grain of the per-row solve loop. Each row runs up to max_iterations
// multiplicative updates, so chunks stay coarse enough that scheduling
// overhead is noise while the static partition keeps results independent
// of the thread count (see common/parallel.h).
constexpr Index kRowGrain = 4;

// Landmark-kernel initialization of u over the row's observed spatial
// coordinates. Returns false when the kernel does not apply (no landmark
// columns, or every coordinate is missing), leaving u untouched.
bool InitFromLandmarks(const SmflModel& model, const double* row,
                       const uint8_t* usable, double sigma2, double* u) {
  const Index k = model.v.rows();
  const Index l = std::min(model.spatial_cols, model.landmarks.cols());
  if (model.landmarks.size() == 0 || l <= 0) return false;
  const auto observed_si = static_cast<Index>(std::count_if(
      usable, usable + l, [](uint8_t b) { return b != 0; }));
  if (observed_si == 0) return false;
  double sum = 0.0;
  for (Index c = 0; c < k; ++c) {
    double d2 = 0.0;
    for (Index j = 0; j < l; ++j) {
      if (!usable[j]) continue;
      const double diff = row[j] - model.landmarks(c, j);
      d2 += diff * diff;
    }
    // Missing coordinates scale the partial distance up to the full-SI
    // magnitude so the kernel width stays comparable.
    d2 *= static_cast<double>(l) / static_cast<double>(observed_si);
    u[c] = std::exp(-d2 / (2.0 * sigma2)) + 1e-4;
    sum += u[c];
  }
  for (Index c = 0; c < k; ++c) u[c] /= sum;
  return true;
}

// V transposed and packed for la::simd (m × PaddedWidth(K),
// PackTransposed): row j holds V's column j, the layout every per-row loop
// below and the kernel's per-row start read contiguously.
std::vector<double> PackedVt(const Matrix& v) {
  std::vector<double> vt(
      static_cast<size_t>(v.cols() * la::simd::PaddedWidth(v.rows())));
  la::simd::PackTransposed(v.data(), v.rows(), v.cols(), vt.data());
  return vt;
}

// Completed row: usable observed cells copied, everything else u·V (each
// cell the ascending-c chain from +0.0), V given as PackedVt.
void ReconstructRow(const double* vt, Index k, Index m, const double* u,
                    const double* row, const uint8_t* usable, double* out) {
  const Index kp = la::simd::PaddedWidth(k);
  for (Index j = 0; j < m; ++j) {
    if (usable[j]) {
      out[j] = row[j];
      continue;
    }
    const double* vj = vt + j * kp;
    double acc = 0.0;
    for (Index c = 0; c < k; ++c) acc += u[c] * vj[c];
    out[j] = acc;
  }
}

// The Gram matrix of V's columns `cols`, G = V_obs V_obsᵀ (K × K,
// row-major), V given as PackedVt: G_cc' = Σ_t v_c,cols[t] · v_c',cols[t],
// ascending t from +0.0, for c ≤ c' — four c' per pass over the columns,
// their chains side by side (the plain one-chain-at-a-time loop waits on
// each add; docs/performance.md "Fold-in on the Gram matrix" has the
// set-up times) — mirrored below the diagonal. Products commute, so the
// mirror is exact and G is symmetric bit for bit.
void GramOf(const double* vt, Index k, std::span<const Index> cols,
            double* g) {
  const Index kp = la::simd::PaddedWidth(k);
  for (Index c = 0; c < k; ++c) {
    Index c2 = c;
    for (; c2 + 4 <= k; c2 += 4) {
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (const Index j : cols) {
        const double* vj = vt + j * kp;
        a0 += vj[c] * vj[c2];
        a1 += vj[c] * vj[c2 + 1];
        a2 += vj[c] * vj[c2 + 2];
        a3 += vj[c] * vj[c2 + 3];
      }
      double* gc = g + c * k + c2;
      gc[0] = a0;
      gc[1] = a1;
      gc[2] = a2;
      gc[3] = a3;
    }
    for (; c2 < k; ++c2) {
      double acc = 0.0;
      for (const Index j : cols) acc += vt[j * kp + c] * vt[j * kp + c2];
      g[c * k + c2] = acc;
    }
  }
  for (Index c = 0; c < k; ++c) {
    for (Index c2 = c + 1; c2 < k; ++c2) g[c2 * k + c] = g[c * k + c2];
  }
}

la::simd::FoldInRow SolveRow(std::span<const Index> cols, const double* gram,
                             const double* x, double* u) {
  la::simd::FoldInRow row;
  row.nt = static_cast<Index>(cols.size());
  row.cols = cols.data();
  row.x = x;
  row.gram = gram;
  row.u = u;
  return row;
}

// A usable-column pattern as a hash key, viewed in place in the usable
// index, so grouping allocates nothing per row.
struct PatternHash {
  size_t operator()(std::span<const Index> cols) const {
    uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the column indices
    for (const Index j : cols) {
      h = (h ^ static_cast<uint64_t>(j)) * 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

struct PatternEq {
  bool operator()(std::span<const Index> a, std::span<const Index> b) const {
    return std::ranges::equal(a, b);
  }
};

// The calling thread's scratch for one solve chunk — the chunk's start
// vectors, then the kernel's work space — grown on demand and kept, so a
// chunk allocates nothing once the thread has served the model's rank.
double* ChunkScratch(Index n) {
  thread_local std::vector<double> scratch;
  if (static_cast<Index>(scratch.size()) < n) {
    scratch.resize(static_cast<size_t>(n));
  }
  return scratch.data();
}

// A solved row that ran every update without meeting the tolerance.
bool RanToCap(const FoldInRowOutcome& outcome, int max_iterations) {
  return outcome.served_by != FoldInTier::kColumnMean &&
         outcome.iterations == max_iterations;
}

// Refuses the options no solve can honour, naming the field: a negative
// update cap, and a NaN or negative tolerance (prev − err < NaN is never
// true, so every row would run silently to the cap).
Status ValidateOptions(const FoldInOptions& options, const char* where) {
  if (options.max_iterations < 0) {
    return Status::InvalidArgument(
        StrFormat("%s: FoldInOptions::max_iterations must be >= 0, got %d",
                  where, options.max_iterations));
  }
  if (!(options.tolerance >= 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "%s: FoldInOptions::tolerance must be a nonnegative number, got %g",
        where, options.tolerance));
  }
  return Status::OK();
}

la::simd::FoldInSolve SolveOptions(Index k, const std::vector<double>& vt,
                                   const FoldInOptions& options) {
  la::simd::FoldInSolve solve;
  solve.k = k;
  solve.vt = vt.data();
  solve.max_iterations = options.max_iterations;
  solve.tolerance = options.tolerance;
  solve.div_eps = mf::kDivEps;
  return solve;
}

}  // namespace

const char* FoldInTierName(FoldInTier tier) {
  switch (tier) {
    case FoldInTier::kLandmarkKernel:
      return "landmark-kernel";
    case FoldInTier::kUniformU:
      return "uniform-u";
    case FoldInTier::kColumnMean:
      return "column-mean";
  }
  return "unknown";
}

Index FoldInReport::CountTier(FoldInTier tier) const {
  Index count = 0;
  for (const FoldInRowOutcome& outcome : rows) {
    if (outcome.served_by == tier) ++count;
  }
  return count;
}

Index FoldInReport::CountAtCap(int max_iterations) const {
  Index count = 0;
  for (const FoldInRowOutcome& outcome : rows) {
    if (RanToCap(outcome, max_iterations)) ++count;
  }
  return count;
}

Index FoldInReport::DegradedCount() const {
  Index count = 0;
  for (const FoldInRowOutcome& outcome : rows) {
    if (!outcome.status.ok()) ++count;
  }
  return count;
}

std::string FoldInReport::ToString() const {
  std::string s = std::to_string(rows.size()) + " rows: ";
  s += std::to_string(CountTier(FoldInTier::kLandmarkKernel)) +
       " landmark-kernel, ";
  s += std::to_string(CountTier(FoldInTier::kUniformU)) + " uniform-u, ";
  s += std::to_string(CountTier(FoldInTier::kColumnMean)) + " column-mean (" +
       std::to_string(DegradedCount()) + " degraded)";
  return s;
}

double FoldInKernelWidth(const Matrix& landmarks) {
  const Index k = landmarks.rows();
  const Index l = landmarks.cols();
  double sum = 0.0;
  Index finite = 0;
  for (Index c = 0; c < k; ++c) {
    double best = std::numeric_limits<double>::infinity();
    for (Index c2 = 0; c2 < k; ++c2) {
      if (c2 == c) continue;
      best = std::min(best, la::SquaredDistance(landmarks.Row(c),
                                                landmarks.Row(c2)));
    }
    if (std::isfinite(best)) {
      sum += best;
      ++finite;
    }
  }
  if (finite == 0 || sum <= 0.0) {
    // K = 1 (or coincident landmarks): no pairwise spread to measure.
    // Landmarks live in normalized [0,1]^L, where the mean squared
    // distance between uniform points is L/6 — a usable spatial scale,
    // unlike the 1e-8 the degenerate average would produce.
    return std::max(static_cast<double>(l) / 6.0, 1e-2);
  }
  return std::max(sum / static_cast<double>(k), 1e-8);
}

Result<la::Vector> FoldInRow(const SmflModel& model, const la::Vector& row,
                             const std::vector<bool>& observed_row,
                             const FoldInOptions& options) {
  const Index m = model.v.cols();
  const Index k = model.v.rows();
  if (k == 0 || m == 0) {
    return Status::FailedPrecondition("FoldInRow: empty model");
  }
  if (row.size() != m ||
      static_cast<Index>(observed_row.size()) != m) {
    return Status::InvalidArgument("FoldInRow: row width mismatch");
  }
  if (Status valid = ValidateOptions(options, "FoldInRow"); !valid.ok()) {
    return valid;
  }
  std::vector<Index> obs;
  std::vector<uint8_t> usable(static_cast<size_t>(m), 0);
  for (Index j = 0; j < m; ++j) {
    if (observed_row[static_cast<size_t>(j)]) {
      if (row[j] < 0.0) {
        return Status::InvalidArgument(
            "FoldInRow: observed entries must be nonnegative");
      }
      if (!std::isfinite(row[j])) {
        return Status::NumericError("FoldInRow: non-finite observed entry");
      }
      obs.push_back(j);
      usable[static_cast<size_t>(j)] = 1;
    }
  }
  if (obs.empty()) {
    return Status::InvalidArgument("FoldInRow: no observed entries");
  }

  SMFL_COUNTER_INC("foldin.single_row_calls");

  // Same kernel as the batch path, on a group of one row, so the two entry
  // points are bitwise identical for valid rows.
  const std::vector<double> vt = PackedVt(model.v);
  std::vector<double> gram(static_cast<size_t>(k * k));
  GramOf(vt.data(), k, obs, gram.data());
  std::vector<double> u(static_cast<size_t>(k), 1.0 / static_cast<double>(k));
  if (model.landmarks.size() > 0) {
    const double sigma2 = FoldInKernelWidth(model.landmarks);
    InitFromLandmarks(model, row.data(), usable.data(), sigma2, u.data());
  }
  std::vector<double> work(static_cast<size_t>(la::simd::FoldInWorkSize(k)));
  la::simd::FoldInRow solve = SolveRow(obs, gram.data(), row.data(), u.data());
  la::simd::Active().fold_in_rows(SolveOptions(k, vt, options), &solve, 1,
                                  work.data());

  la::Vector completed(m);
  ReconstructRow(vt.data(), k, m, u.data(), row.data(), usable.data(),
                 completed.data());
  return completed;
}

Result<Matrix> FoldIn(const SmflModel& model, const Matrix& x,
                      const Mask& observed, const FoldInOptions& options,
                      FoldInReport* report) {
  const Index n = x.rows();
  const Index m = x.cols();
  const Index k = model.v.rows();
  if (k == 0 || model.v.cols() == 0) {
    return Status::FailedPrecondition("FoldIn: empty model");
  }
  if (observed.rows() != n || observed.cols() != m) {
    return Status::InvalidArgument("FoldIn: mask shape mismatch");
  }
  if (m != model.v.cols()) {
    return Status::InvalidArgument("FoldIn: column count mismatch");
  }
  if (Status valid = ValidateOptions(options, "FoldIn"); !valid.ok()) {
    return valid;
  }
  Matrix out(n, m);
  std::vector<FoldInRowOutcome> outcomes(static_cast<size_t>(n));
  if (n == 0) {
    if (report) report->rows.clear();
    return out;
  }
  SMFL_TRACE_SPAN("foldin.batch");
  const bool batch_telemetry = telemetry::Enabled();
  const int64_t batch_t0 = batch_telemetry ? telemetry::NowMicros() : 0;

  // Per-row validation. Non-finite or negative observed cells are dropped
  // from that row's solve (and replaced by the reconstruction in the
  // output) instead of aborting the whole batch; the fault is recorded.
  std::vector<uint8_t> usable(static_cast<size_t>(n * m), 0);
  for (Index i = 0; i < n; ++i) {
    FoldInRowOutcome& outcome = outcomes[static_cast<size_t>(i)];
    outcome.row = i;
    Index observed_count = 0, dropped = 0, kept = 0;
    for (Index j = 0; j < m; ++j) {
      if (!observed.Contains(i, j)) continue;
      ++observed_count;
      const double v = x(i, j);
      if (!std::isfinite(v) || v < 0.0) {
        ++dropped;
        continue;
      }
      usable[static_cast<size_t>(i * m + j)] = 1;
      ++kept;
    }
    if (kept == 0) {
      outcome.served_by = FoldInTier::kColumnMean;
      outcome.status = Status::InvalidArgument(
          observed_count == 0
              ? "no observed entries; served by column-mean fallback"
              : "all observed entries non-finite or negative; served by "
                "column-mean fallback");
    } else if (dropped > 0) {
      outcome.status = Status::DataError(
          std::to_string(dropped) +
          " non-finite/negative observed cell(s) dropped from the solve");
    }
  }

  // Group solvable rows by usable-column pattern. The CSR index over the
  // usable cells serves both the grouping key (a row's observed-column
  // span, viewed in place) and each group's column list — no per-row
  // rescans of the byte grid and no per-row key copies.
  const data::ObservedIndex usable_index =
      data::ObservedIndex::FromRowMajorBytes(n, m, usable.data());
  constexpr size_t kColumnMeanGroup = static_cast<size_t>(-1);
  std::unordered_map<std::span<const Index>, size_t, PatternHash, PatternEq>
      group_of_pattern;
  std::vector<std::span<const Index>> group_cols;  // ascending, per pattern
  std::vector<size_t> row_group(static_cast<size_t>(n), kColumnMeanGroup);
  std::vector<Index> solved;
  solved.reserve(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    if (outcomes[static_cast<size_t>(i)].served_by ==
        FoldInTier::kColumnMean) {
      continue;
    }
    const std::span<const Index> row_cols = usable_index.RowCols(i);
    const auto [it, inserted] =
        group_of_pattern.try_emplace(row_cols, group_cols.size());
    if (inserted) group_cols.push_back(row_cols);
    row_group[static_cast<size_t>(i)] = it->second;
    solved.push_back(i);
  }
  // Each pattern's Gram matrix, once, into one exactly sized array.
  const std::vector<double> vt = PackedVt(model.v);
  std::vector<double> grams(group_cols.size() * static_cast<size_t>(k * k));
  for (size_t g = 0; g < group_cols.size(); ++g) {
    GramOf(vt.data(), k, group_cols[g], &grams[g * static_cast<size_t>(k * k)]);
  }

  // Model-level precomputations shared by every row.
  const double sigma2 =
      model.landmarks.size() > 0 ? FoldInKernelWidth(model.landmarks) : 0.0;
  const la::Vector mean_u = model.MeanU();
  const la::simd::Kernels& kernels = la::simd::Active();
  const la::simd::FoldInSolve solve_options = SolveOptions(k, vt, options);
  // Per chunk: u of each row (k doubles), then the kernel's work space.
  const Index work_offset = kRowGrain * k;
  const Index scratch_size = work_offset + la::simd::FoldInWorkSize(k);

  // Column-mean tier: the model's average row, mean(U)·V.
  for (Index i = 0; i < n; ++i) {
    if (row_group[static_cast<size_t>(i)] != kColumnMeanGroup) continue;
    double* orow = out.Row(i).data();
    for (Index j = 0; j < m; ++j) {
      double acc = 0.0;
      for (Index c = 0; c < k; ++c) acc += mean_u[c] * model.v(c, j);
      orow[j] = acc;
    }
  }

  // Per-chunk solves of the other rows, in row order: independent rows,
  // disjoint output regions, static partition — bitwise identical at any
  // thread count. A chunk's rows go to the kernel together; a row's result
  // does not depend on which rows share its chunk.
  const auto n_solved = static_cast<Index>(solved.size());
  parallel::ParallelFor(0, n_solved, kRowGrain, [&](Index p0, Index p1) {
    // One enabled-check and at most two clock reads per chunk, so the
    // disabled serving path stays clock-free.
    const bool chunk_telemetry = telemetry::Enabled();
    const int64_t chunk_t0 = chunk_telemetry ? telemetry::NowMicros() : 0;
    double* scratch = ChunkScratch(scratch_size);
    std::array<la::simd::FoldInRow, kRowGrain> solves;
    const Index count = p1 - p0;
    for (Index q = 0; q < count; ++q) {
      const Index i = solved[static_cast<size_t>(p0 + q)];
      const uint8_t* urow = &usable[static_cast<size_t>(i * m)];
      const double* xrow = x.Row(i).data();
      double* u = scratch + q * k;
      std::fill(u, u + k, 1.0 / static_cast<double>(k));
      const bool kernel_init =
          sigma2 > 0.0 && InitFromLandmarks(model, xrow, urow, sigma2, u);
      outcomes[static_cast<size_t>(i)].served_by =
          kernel_init ? FoldInTier::kLandmarkKernel : FoldInTier::kUniformU;
      const size_t g = row_group[static_cast<size_t>(i)];
      solves[static_cast<size_t>(q)] =
          SolveRow(group_cols[g], &grams[g * static_cast<size_t>(k * k)],
                   xrow, u);
    }
    kernels.fold_in_rows(solve_options, solves.data(), count,
                         scratch + work_offset);
    for (Index q = 0; q < count; ++q) {
      const Index i = solved[static_cast<size_t>(p0 + q)];
      const la::simd::FoldInRow& row = solves[static_cast<size_t>(q)];
      FoldInRowOutcome& outcome = outcomes[static_cast<size_t>(i)];
      outcome.iterations = row.iterations;
      ReconstructRow(vt.data(), k, m, row.u, x.Row(i).data(),
                     &usable[static_cast<size_t>(i * m)], out.Row(i).data());
      if (chunk_telemetry) {
        SMFL_HISTOGRAM_RECORD("foldin.row_iterations",
                              static_cast<double>(outcome.iterations));
      }
    }
    if (chunk_telemetry) {
      SMFL_HISTOGRAM_RECORD(
          "foldin.chunk_solve_us",
          static_cast<double>(telemetry::NowMicros() - chunk_t0));
    }
  });

  // Serving-side counters mirroring FoldInReport, so a metrics snapshot
  // answers "which tier served the traffic" without the in-process report.
  if (batch_telemetry) {
    Index landmark = 0, uniform = 0, column_mean = 0, degraded = 0;
    Index at_cap = 0;
    for (const FoldInRowOutcome& outcome : outcomes) {
      if (RanToCap(outcome, options.max_iterations)) ++at_cap;
      switch (outcome.served_by) {
        case FoldInTier::kLandmarkKernel:
          ++landmark;
          break;
        case FoldInTier::kUniformU:
          ++uniform;
          break;
        case FoldInTier::kColumnMean:
          ++column_mean;
          break;
      }
      if (!outcome.status.ok()) ++degraded;
    }
    SMFL_COUNTER_INC("foldin.batches");
    SMFL_COUNTER_ADD("foldin.rows", n);
    // Serving-side /statusz progress (src/obs): always on, relaxed, never
    // read by numeric code.
    GlobalFitProgress().foldin_batches.fetch_add(1, std::memory_order_relaxed);
    GlobalFitProgress().foldin_rows.fetch_add(static_cast<int64_t>(n),
                                              std::memory_order_relaxed);
    GlobalFitProgress().updates.fetch_add(1, std::memory_order_relaxed);
    SMFL_COUNTER_ADD("foldin.tier.landmark_kernel", landmark);
    SMFL_COUNTER_ADD("foldin.tier.uniform_u", uniform);
    SMFL_COUNTER_ADD("foldin.tier.column_mean", column_mean);
    SMFL_COUNTER_ADD("foldin.degraded_rows", degraded);
    SMFL_COUNTER_ADD("foldin.rows_at_cap", at_cap);
    const int64_t elapsed_us = telemetry::NowMicros() - batch_t0;
    if (elapsed_us > 0) {
      SMFL_GAUGE_SET("foldin.rows_per_sec",
                     static_cast<double>(n) * 1e6 /
                         static_cast<double>(elapsed_us));
    }
  }

  if (report) report->rows = std::move(outcomes);
  return out;
}

}  // namespace smfl::core
