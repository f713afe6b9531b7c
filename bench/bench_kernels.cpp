// Kernel-level microbenchmarks for the parallel execution + SIMD layers.
// Every benchmark compared across SIMD tiers takes the tier as its LAST
// argument (0 = scalar pinned, 1 = the dispatched tier) and pins it with
// la::simd::ScopedSimd inside the body, so one process runs both tiers:
// tools/run_bench.sh interleaves their repetitions at random
// (--benchmark_enable_random_interleaving) and reads scalar-vs-SIMD
// ratios, valid on any host, from per-repetition pairs.
//
//   * MatMul / MatMulAtB / MatMulABt at --threads-controlled parallelism
//     (set SMFL_THREADS before launching; results are bitwise identical at
//     any setting, so only wall clock varies).
//   * MaskedReconstructIndexed (fused R_Ω(UV) over a prebuilt
//     data::ObservedIndex, the kernel the fit loop runs) against the
//     unfused ApplyMask(MatMul(u, v)) it replaced, across observed rates
//     down to 1%. The fused kernel computes only the Ω entries, so its
//     advantage grows as the mask gets sparser — the regime of the paper's
//     Table VII high-missing-rate experiments.
//   * MaskedSquaredError over the same index at the same observed rates
//     (perfbench's ledger replays it as the objective's squared error; it
//     runs no SIMD kernel, so it takes no tier argument).
//   * SmflFit: a whole 20-iteration SMFL fit at observed rates 10/30/90%,
//     the end-to-end view of the Ω-sparse iteration (its time falls with
//     |Ω|).
//   * FitRowPass / FitVStep: the fit loop's two passes one at a time at
//     perfbench's impute shape (4000 × 20, rank 10, p = 3) at 10% and 90%
//     observed attribute cells, at one thread (the row pass also at 7
//     columns), and LaplacianQuadraticForm over the same graph.
//   * Batched fold-in serving throughput (rows/sec) against a frozen model
//     at the process thread count: per-pattern packing of V plus the
//     threaded per-row multiplicative solves of core::FoldIn.
//   * FoldInSolve: one core::FoldIn batch at perfbench's apply-batches
//     shape on each tier at one thread (the fold_in_rows kernel's
//     end-to-end view), and FoldInSetup: the same batch with no updates
//     (everything of a FoldIn call but the solve).
//   * ParseCsv / WriteCsv: CSV ingest and the completed-table write at
//     perfbench's apply-batch and impute-sparse table shapes.
//
// tools/run_bench.sh aggregates this into BENCH_KERNELS.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/core/fold_in.h"
#include "src/core/smfl.h"
#include "src/data/csv.h"
#include "src/data/mask.h"
#include "src/data/observed_index.h"
#include "src/data/table.h"
#include "src/la/ops.h"
#include "src/la/simd.h"
#include "src/spatial/graph.h"

using namespace smfl;
using data::Mask;
using la::Index;
using la::Matrix;

namespace {

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(0.01, 1.0);
  return m;
}

Mask RandomMask(Index rows, Index cols, uint64_t seed, double set_rate) {
  Rng rng(seed);
  Mask mask(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) mask.Set(i, j, rng.Bernoulli(set_rate));
  }
  return mask;
}

void BM_MatMul(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  const Index n = state.range(0);
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    Matrix c = la::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMul)->ArgsProduct({{128, 256, 512}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_MatMulAtB(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  const Index n = state.range(0);
  const Matrix a = RandomMatrix(n, 64, 1);
  const Matrix b = RandomMatrix(n, 64, 2);
  for (auto _ : state) {
    Matrix c = la::MatMulAtB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMulAtB)->ArgsProduct({{1000, 4000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_MatMulABt(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  const Index n = state.range(0);
  const Matrix a = RandomMatrix(n, 64, 1);
  const Matrix b = RandomMatrix(256, 64, 2);
  for (auto _ : state) {
    Matrix c = la::MatMulABt(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMulABt)->ArgsProduct({{1000, 4000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The fit-loop hot pair: R_Ω(UV) for an N x M data matrix at rank K = 16.
// Args: the observed percentage of the mask, tier.
constexpr Index kReconN = 2000, kReconM = 64, kReconK = 16;

// The fused kernel fed a prebuilt CSR index (built once per fit, so its
// O(n·m) construction is amortized away from the per-iteration cost being
// measured here).
void BM_MaskedReconstructIndexed(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  const Matrix u = RandomMatrix(kReconN, kReconK, 3);
  const Matrix v = RandomMatrix(kReconK, kReconM, 4);
  const Mask mask = RandomMask(kReconN, kReconM, 5, rate);
  const data::ObservedIndex omega = data::ObservedIndex::FromMask(mask);
  for (auto _ : state) {
    Matrix r = data::MaskedReconstruct(u, v, omega);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_MaskedReconstructIndexed)
    ->ArgsProduct({{90, 50, 10, 5, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_MaskedReconstructUnfused(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  const Matrix u = RandomMatrix(kReconN, kReconK, 3);
  const Matrix v = RandomMatrix(kReconK, kReconM, 4);
  const Mask mask = RandomMask(kReconN, kReconM, 5, rate);
  for (auto _ : state) {
    Matrix r = data::ApplyMask(la::MatMul(u, v), mask);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_MaskedReconstructUnfused)
    ->ArgsProduct({{90, 50, 10, 5, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The objective evaluation paired with every reconstruction: sum of
// squared residuals over Ω.
void BM_MaskedSquaredError(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  const Matrix u = RandomMatrix(kReconN, kReconK, 3);
  const Matrix v = RandomMatrix(kReconK, kReconM, 4);
  const Matrix x = RandomMatrix(kReconN, kReconM, 6);
  // Built as the fit builds it: observed values packed alongside.
  const data::ObservedIndex omega = data::ObservedIndex::FromMask(
      RandomMask(kReconN, kReconM, 5, rate), x);
  const Matrix r = data::MaskedReconstruct(u, v, omega);
  for (auto _ : state) {
    double err = data::MaskedSquaredError(x, omega, r);
    benchmark::DoNotOptimize(err);
  }
}
BENCHMARK(BM_MaskedSquaredError)->ArgsProduct({{90, 50, 10, 5, 1}})
    ->Unit(benchmark::kMicrosecond);

// A whole SMFL fit at 1 thread: 4000 x 20 (2 always-observed spatial
// columns), rank 10, 20 iterations with the early stop disabled, over a
// prebuilt p-NN graph. Args: the observed percentage of the attribute
// cells, tier. The fit loop walks only Ω, so its time should fall with the
// observed rate; tools/run_bench.sh --gate checks the /90 over /10 ratio.
void BM_SmflFit(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  constexpr Index kN = 4000, kM = 20, kSpatial = 2;
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  const Matrix x = RandomMatrix(kN, kM, 21);
  Mask observed = RandomMask(kN, kM, 22, rate);
  for (Index i = 0; i < kN; ++i) {
    for (Index j = 0; j < kSpatial; ++j) observed.Set(i, j, true);
  }
  auto graph =
      spatial::NeighborGraph::Build(x.Block(0, 0, kN, kSpatial), 3);
  SMFL_CHECK(graph.ok());
  core::SmflOptions options;
  options.rank = 10;
  options.max_iterations = 20;
  options.tolerance = -std::numeric_limits<double>::infinity();
  options.threads = 1;
  for (auto _ : state) {
    auto model =
        core::FitSmflWithGraph(x, observed, kSpatial, *graph, options);
    SMFL_CHECK(model.ok());
    benchmark::DoNotOptimize(model->u.data());
  }
}
BENCHMARK(BM_SmflFit)->ArgsProduct({{10, 30, 90}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The fit loop's inputs at perfbench's impute shape: 4000 × m (20 unless
// given) with the 2 spatial columns always observed and each attribute
// cell observed at `percent`, rank 10, the p = 3 graph over the spatial
// columns, and V packed in the two layouts one iteration reads (Vᵀ
// K-padded, V with zero padding columns).
struct FitPassInputs {
  static constexpr Index kN = 4000, kM = 20, kSpatial = 2, kRank = 10;

  explicit FitPassInputs(int64_t percent, Index m = kM)
      : x(RandomMatrix(kN, m, 21)),
        u(RandomMatrix(kN, kRank, 23)),
        v(RandomMatrix(kRank, m, 24)),
        u_next(kN, kRank),
        vt(static_cast<size_t>(m * la::simd::PaddedWidth(kRank))),
        vp(static_cast<size_t>(kRank * la::simd::PaddedWidth(m))) {
    Mask observed =
        RandomMask(kN, m, 22, static_cast<double>(percent) / 100.0);
    for (Index i = 0; i < kN; ++i) {
      for (Index j = 0; j < kSpatial; ++j) observed.Set(i, j, true);
    }
    omega = data::ObservedIndex::FromMask(observed, x);
    omega.BuildColumns(kSpatial);
    auto built = spatial::NeighborGraph::Build(x.Block(0, 0, kN, kSpatial), 3);
    SMFL_CHECK(built.ok());
    graph = std::move(built).value();
    la::simd::PackTransposed(v.data(), kRank, m, vt.data());
    la::simd::PackRowsPadded(v.data(), kRank, m, vp.data());
  }

  Matrix x, u, v, u_next;
  data::ObservedIndex omega;
  spatial::NeighborGraph graph;
  std::vector<double> vt, vp;
};

// One row pass (the observed cells of U V, their squared error, and the
// Formula 13 step at λ = 0.5) over every row, as the fit runs it: 64-row
// chunks through ParallelReduce, pinned to one thread. Args: observed
// percent, columns (20, perfbench's width, or 7, the width of the paper's
// Lake and Vehicle data), tier.
void BM_FitRowPass(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(2)));
  const parallel::ScopedParallelism threads(1);
  FitPassInputs in(state.range(0), state.range(1));
  la::simd::UStep step;
  step.k = FitPassInputs::kRank;
  step.m = state.range(1);
  step.vt = in.vt.data();
  step.vp = in.vp.data();
  step.row_ptr = in.omega.CsrRowPtr().data();
  step.cols = in.omega.CsrColIdx().data();
  step.x = in.omega.CsrValues().data();
  step.u = in.u.data();
  step.nbr_ptr = in.graph.Offsets().data();
  step.nbr = in.graph.Targets().data();
  step.nbr_w = in.graph.Weights().data();
  step.degree = in.graph.Degrees().data();
  step.lambda = 0.5;
  step.div_eps = 1e-12;
  step.u_next = in.u_next.data();
  const la::simd::Kernels& ker = la::simd::Active();
  for (auto _ : state) {
    const double err = parallel::ParallelReduce(
        0, FitPassInputs::kN, 64,
        [&](Index r0, Index r1) { return ker.u_step_rows(step, r0, r1); });
    benchmark::DoNotOptimize(err);
    benchmark::DoNotOptimize(in.u_next.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FitRowPass)->ArgsProduct({{10, 90}, {20, 7}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// One V step (Formula 14) over the free columns. It reads V from the
// packed Vᵀ and writes V, so every iteration repeats the same step.
void BM_FitVStep(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(1)));
  FitPassInputs in(state.range(0));
  la::simd::VStep step;
  step.k = FitPassInputs::kRank;
  step.m = FitPassInputs::kM;
  step.u = in.u.data();
  step.vt = in.vt.data();
  step.col_begin = in.omega.ColumnsBegin();
  step.col_ptr = in.omega.CscColPtr().data();
  step.rows = in.omega.CscRowIdx().data();
  step.x = in.omega.CscValues().data();
  step.div_eps = 1e-12;
  step.v = in.v.data();
  const la::simd::Kernels& ker = la::simd::Active();
  for (auto _ : state) {
    ker.v_step_cols(step, FitPassInputs::kSpatial, FitPassInputs::kM);
    benchmark::DoNotOptimize(in.v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FitVStep)->ArgsProduct({{10, 90}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Tr(UᵀLU) over the p = 3 graph of the same shape (the observed rate does
// not enter): 64-vertex chunks of the laplacian_edges kernel through
// ParallelReduce, pinned to one thread. Arg: tier.
void BM_LaplacianQuadraticForm(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(0)));
  const parallel::ScopedParallelism threads(1);
  FitPassInputs in(10);
  for (auto _ : state) {
    const double lqf = in.graph.LaplacianQuadraticForm(in.u);
    benchmark::DoNotOptimize(lqf);
  }
}
BENCHMARK(BM_LaplacianQuadraticForm)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Batched fold-in serving: Arg(0) fresh rows against a synthetic frozen
// model (rank 12, 16 columns, 2 spatial). ~80% observed with coordinates
// always present, so most rows take the landmark-kernel tier. Throughput
// is reported as rows/sec via SetItemsProcessed.
void BM_FoldInBatch(benchmark::State& state) {
  const Index rows = state.range(0);
  constexpr Index kRank = 12, kCols = 16, kSpatial = 2;
  core::SmflModel model;
  model.v = RandomMatrix(kRank, kCols, 11);
  model.u = RandomMatrix(512, kRank, 12);
  model.landmarks = RandomMatrix(kRank, kSpatial, 13);
  model.spatial_cols = kSpatial;
  const Matrix x = RandomMatrix(rows, kCols, 14);
  Mask observed = RandomMask(rows, kCols, 15, 0.8);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < kSpatial; ++j) observed.Set(i, j, true);
  }
  for (auto _ : state) {
    auto folded = core::FoldIn(model, x, observed);
    SMFL_CHECK(folded.ok());
    benchmark::DoNotOptimize(folded->data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_FoldInBatch)->Arg(64)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// A serving batch at perfbench's apply-batches shape: 1000 rows of 20
// columns (2 coordinates) against a rank-10 model, with that workload's
// outage patterns — 60% of rows lose one of 4 fixed sets of 6 attribute
// columns, the rest lose each attribute cell with probability 0.2.
struct ApplyBatch {
  core::SmflModel model;
  Matrix x;
  Mask observed;
};

ApplyBatch MakeApplyBatch() {
  constexpr Index kRows = 1000, kCols = 20, kSpatial = 2, kRank = 10;
  constexpr size_t kPatterns = 4, kOutageCols = 6;
  ApplyBatch b;
  b.model.v = RandomMatrix(kRank, kCols, 31);
  b.model.landmarks = b.model.v.Block(0, 0, kRank, kSpatial);
  b.model.u = RandomMatrix(4000, kRank, 32);
  b.model.spatial_cols = kSpatial;
  b.x = RandomMatrix(kRows, kCols, 33);
  Rng rng(34);
  std::vector<std::vector<size_t>> outage(kPatterns);
  for (auto& cols : outage) {
    cols = rng.SampleWithoutReplacement(kCols - kSpatial, kOutageCols);
  }
  b.observed = Mask(kRows, kCols, true);
  for (Index i = 0; i < kRows; ++i) {
    if (rng.Uniform() < 0.6) {
      for (size_t j : outage[rng.UniformInt(kPatterns)]) {
        b.observed.Set(i, kSpatial + static_cast<Index>(j), false);
      }
    } else {
      for (Index j = kSpatial; j < kCols; ++j) {
        if (rng.Uniform() < 0.2) b.observed.Set(i, j, false);
      }
    }
  }
  return b;
}

// The serving solve of one apply batch (MakeApplyBatch). Nearly every row
// runs the full 200 iterations. Pinned to one thread, perfbench's serving
// shape, as BM_FitRowPass is. Arg: tier.
void BM_FoldInSolve(benchmark::State& state) {
  const la::simd::ScopedSimd tier(static_cast<int>(state.range(0)));
  const parallel::ScopedParallelism threads(1);
  const ApplyBatch b = MakeApplyBatch();
  for (auto _ : state) {
    auto folded = core::FoldIn(b.model, b.x, b.observed);
    SMFL_CHECK(folded.ok());
    benchmark::DoNotOptimize(folded->data());
  }
  state.SetItemsProcessed(state.iterations() * b.x.rows());
}
BENCHMARK(BM_FoldInSolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Everything of BM_FoldInSolve's batch but the updates (max_iterations =
// 0): validation, pattern grouping, the start vectors, the kernel's
// per-row start and the completed rows. Dispatched tier, one thread.
void BM_FoldInSetup(benchmark::State& state) {
  const parallel::ScopedParallelism threads(1);
  const ApplyBatch b = MakeApplyBatch();
  core::FoldInOptions options;
  options.max_iterations = 0;
  for (auto _ : state) {
    auto folded = core::FoldIn(b.model, b.x, b.observed, options);
    SMFL_CHECK(folded.ok());
    benchmark::DoNotOptimize(folded->data());
  }
  state.SetItemsProcessed(state.iterations() * b.x.rows());
}
BENCHMARK(BM_FoldInSetup)->Unit(benchmark::kMicrosecond);

// CSV ingest (data::ParseCsv from memory) at perfbench's two table shapes,
// cells written "%.6f" as perfbench writes them: Arg(0) an apply batch —
// 1000 x 20 with BM_FoldInSolve's outage patterns — and Arg(1) the
// impute-sparse table, 4000 x 20 with 90% of the attribute cells empty.
// A table of perfbench's serving shapes, values in [0, 100) written at
// %.6f and read back where observed: the apply batch (1000 x 20; 60% of
// rows lose one of four outage patterns of 6 attribute columns, the rest
// each attribute cell with probability 0.2) or impute-sparse's (4000 x 20,
// 10% of attribute cells observed).
struct ServingTable {
  Matrix values;
  Mask observed;
};

ServingTable MakeServingTable(bool sparse, Rng& rng) {
  const Index rows = sparse ? 4000 : 1000;
  constexpr Index kCols = 20, kSpatial = 2;
  std::vector<std::vector<size_t>> outage(4);
  for (auto& cols : outage) {
    cols = rng.SampleWithoutReplacement(kCols - kSpatial, 6);
  }
  ServingTable t{Matrix(rows, kCols), Mask(rows, kCols)};
  std::vector<bool> seen(static_cast<size_t>(kCols));
  char cell[32];
  for (Index i = 0; i < rows; ++i) {
    std::fill(seen.begin(), seen.end(), true);
    if (sparse) {
      for (Index j = kSpatial; j < kCols; ++j) {
        seen[static_cast<size_t>(j)] = rng.Uniform() >= 0.9;
      }
    } else if (rng.Uniform() < 0.6) {
      for (size_t j : outage[rng.UniformInt(outage.size())]) {
        seen[kSpatial + j] = false;
      }
    } else {
      for (Index j = kSpatial; j < kCols; ++j) {
        seen[static_cast<size_t>(j)] = rng.Uniform() >= 0.2;
      }
    }
    for (Index j = 0; j < kCols; ++j) {
      if (!seen[static_cast<size_t>(j)]) continue;
      std::snprintf(cell, sizeof(cell), "%.6f", rng.Uniform(0.0, 100.0));
      t.values(i, j) = std::strtod(cell, nullptr);
      t.observed.Set(i, j);
    }
  }
  return t;
}

std::vector<std::string> ServingHeader(Index cols) {
  std::vector<std::string> names = {"lat", "lon"};
  for (Index j = 2; j < cols; ++j) names.push_back("a" + std::to_string(j - 1));
  return names;
}

void BM_ParseCsv(benchmark::State& state) {
  Rng rng(41);
  const ServingTable t = MakeServingTable(state.range(0) == 1, rng);
  std::string csv = Join(ServingHeader(t.values.cols()), ",") + "\n";
  char cell[32];
  for (Index i = 0; i < t.values.rows(); ++i) {
    for (Index j = 0; j < t.values.cols(); ++j) {
      if (j > 0) csv += ',';
      if (!t.observed.Contains(i, j)) continue;
      std::snprintf(cell, sizeof(cell), "%.6f", t.values(i, j));
      csv += cell;
    }
    csv += '\n';
  }
  for (auto _ : state) {
    auto parsed = data::ParseCsv(csv);
    SMFL_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed->table.values().data());
  }
  state.SetItemsProcessed(state.iterations() * t.values.rows());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_ParseCsv)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The completed-table write of `smfl apply` (Arg 0) and `smfl impute`
// (Arg 1) at perfbench's shapes: data::WriteCompletedCsv to a file in the
// temp directory, the durable write (fsync, rename) included. Kept cells
// are the %.6f inputs, which read back at %.12g; filled cells are full
// precision. Single-threaded code; ungated.
void BM_WriteCsv(benchmark::State& state) {
  Rng rng(41);
  ServingTable t = MakeServingTable(state.range(0) == 1, rng);
  for (Index i = 0; i < t.values.rows(); ++i) {
    for (Index j = 0; j < t.values.cols(); ++j) {
      if (!t.observed.Contains(i, j)) t.values(i, j) = rng.Uniform(0.0, 100.0);
    }
  }
  auto table = data::Table::Create(ServingHeader(t.values.cols()), t.values, 2);
  SMFL_CHECK(table.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "smfl_bench_write.csv")
          .string();
  for (auto _ : state) {
    SMFL_CHECK(data::WriteCompletedCsv(path, *table, t.observed).ok());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * t.values.rows());
}
BENCHMARK(BM_WriteCsv)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Guard on the telemetry disabled path: Arg(0) runs one counter add, one
// histogram record, and one scoped span per iteration with collection OFF
// — each must cost a relaxed load plus an untaken branch, i.e. the whole
// iteration stays in the low single-digit nanoseconds. Arg(1) measures the
// enabled cost (the overhead table in docs/observability.md comes from
// this run; the span also exercises the trace buffer's bounded-drop path
// once kMaxEvents fills).
void BM_TelemetryOverhead(benchmark::State& state) {
  telemetry::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    SMFL_COUNTER_INC("bench.telemetry_counter");
    SMFL_HISTOGRAM_RECORD("bench.telemetry_hist", 3.0);
    SMFL_TRACE_SPAN("bench.telemetry_span");
  }
  telemetry::SetEnabled(false);
  telemetry::MetricsRegistry::Global().ResetForTesting();
  telemetry::TraceRecorder::Global().Clear();
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so the resolved SIMD tier lands in
// the JSON context block — tools/run_bench.sh records it in its JSON output
// and refuses to gate on SIMD speedups when the tier is "scalar".
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "simd_tier", la::simd::TierName(la::simd::ActiveTier()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
