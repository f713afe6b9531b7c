// SMF and SMFL — the paper's contribution (Problems 1 and 2).
//
// Objective (Formula 10):
//   min_{U>=0, V>=0} ||R_Ω(X − U V)||_F² + λ Tr(Uᵀ L U)
//   subject to v_ij = c_ij for (i,j) ∈ Φ          (SMFL only)
//
// where L is the graph Laplacian of the symmetric p-NN graph over the
// spatial information SI (the first `spatial_cols` columns of X), and C is
// the K-means center matrix over SI (the landmarks).
//
// The paper nests NMF ⊂ SMF ⊂ SMFL: with λ = 0 and no landmarks (Φ = ∅)
// Formula 10 is the masked NMF objective ||R_Ω(X − U V)||_F², so plain NMF
// is SmflOptions{lambda = 0, use_landmarks = false} on this same loop.
//
// Two updaters are provided:
//  * kMultiplicative — Formulas 13/14; provably non-increasing objective
//    (Propositions 5/7), no learning rate. The default.
//  * kGradientDescent — projected gradient descent (§III-B1); needs a
//    learning rate, used in Fig 5's SMF-GD ablation.
//
// SMFL freezes the first L columns of V to the landmark matrix and skips
// their updates entirely — the source of its efficiency edge over SMF
// (Fig 9) and of the geographic interpretability of V (Figs 1/5).

#ifndef SMFL_CORE_SMFL_H_
#define SMFL_CORE_SMFL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/mask.h"
#include "src/data/normalize.h"
#include "src/mf/factorization.h"
#include "src/spatial/graph.h"

namespace smfl::core {

using data::Mask;
using la::Index;
using la::Matrix;
using mf::FitReport;
using spatial::NeighborGraph;

// src/core/checkpoint.h — kept out of this header so SmflOptions only
// carries pointers to the durability layer.
class CheckpointManager;
struct FitCheckpoint;

enum class UpdateMethod {
  kMultiplicative,
  kGradientDescent,
};

enum class GraphWeighting {
  // Binary p-NN adjacency — the paper's Formula 3. The default.
  kBinary,
  // Heat-kernel weights exp(-d^2 / (2 sigma^2)) on the same topology —
  // the GNMF-style similarity of the paper's related work ([9]).
  kHeatKernel,
};

// RetryPolicy: when a single-seed fit fails with kNumericError (divergence
// the TrainingGuard, training_guard.h, could not repair), FitSmfl retries it
// up to this many extra times under an escalated seed. Other error codes are
// not retried — they are deterministic.
inline constexpr int kMaxNumericRetries = 2;

struct SmflOptions {
  // Latent rank K (also the number of landmarks / K-means clusters).
  // The paper's Fig 8: a moderately large K performs best.
  Index rank = 10;
  // Spatial regularization weight λ. The paper reports a sweet spot of
  // 0.05–0.1 on its real datasets; on the synthetic stand-ins in this
  // repository the minimum of the same U-shaped curve (see
  // bench_fig6_lambda) sits near 0.5, so that is the default. At 0 the
  // fit skips the p-NN graph altogether.
  double lambda = 0.5;
  // p-nearest-neighbor count for the similarity graph (paper best: 3).
  Index num_neighbors = 3;
  // Edge weighting of the similarity graph (bench_ablation_weighting).
  GraphWeighting graph_weighting = GraphWeighting::kBinary;
  // Landmarks on = SMFL, off = SMF (plain NMF when lambda is also 0).
  bool use_landmarks = true;
  UpdateMethod update = UpdateMethod::kMultiplicative;
  // Only used by kGradientDescent.
  double learning_rate = 1e-3;
  // Matrix-update iteration budget (paper default t1 = 500, early stop).
  int max_iterations = 500;
  // Early-stop threshold on relative objective improvement.
  double tolerance = 1e-6;
  // K-means budget for landmark generation (paper default t2 = 300).
  int kmeans_max_iterations = 300;
  uint64_t seed = 23;
  // Worker threads for the fit's parallel kernels. 0 inherits the process
  // default (--threads / SMFL_THREADS / hardware concurrency). Results are
  // bitwise identical at any setting, and at every SIMD tier the CPU probe
  // can pick — see docs/performance.md.
  int threads = 0;
  // Crash-safe checkpointing (src/core/checkpoint.h). When non-null, the
  // fit persists a complete resumable snapshot through this manager every
  // `manager->config().every` accepted iterations. Checkpoint-write
  // failures are logged and counted but never fail the fit. Not owned.
  CheckpointManager* checkpoint = nullptr;
  // Resume state, typically from CheckpointManager::LoadLatest(). The fit
  // validates the stored input/options fingerprints against the live call
  // (InvalidArgument on mismatch) and then continues the EXACT trajectory:
  // the final model is bitwise identical to the uninterrupted run at any
  // thread count. Not owned.
  const FitCheckpoint* resume_from = nullptr;
};

struct SmflModel {
  // N x K coefficient matrix. Held by in-process fits and checkpoints; a
  // model loaded from a file has none (the file stores mean(U) instead).
  Matrix u;
  Matrix v;          // K x M feature matrix
  Matrix landmarks;  // K x L center matrix C (empty when use_landmarks off)
  Index spatial_cols = 0;
  FitReport report;
  // The min-max normalizer the training data was transformed with. The
  // factors live in THIS normalization space; serving must transform
  // fresh rows with these training ranges, never re-fit them on the fresh
  // batch. Persisted by model_io; absent on models fit directly on
  // pre-normalized matrices.
  std::optional<data::MinMaxNormalizer> normalizer;
  // mean(U) as read from a model file, the K values the column-mean
  // fold-in tier serves; empty on in-process fits (see MeanU).
  la::Vector mean_u;
  // The training table's column names in column order (the CSV header
  // `smfl fit` read); `smfl apply` refuses a batch whose header differs.
  // Empty when unknown.
  std::vector<std::string> column_names;

  // X* = U V (needs U, i.e. an in-process fit).
  Matrix Reconstruct() const;

  // mean(U), K values: la::ColMeans(u) while U is held, else the stored
  // mean_u, else the uniform 1/K of a model that has neither.
  la::Vector MeanU() const;

  // The learned feature locations: first L columns of V (rows of which are
  // the Fig 5 points).
  Matrix FeatureLocations() const {
    return v.Block(0, 0, v.rows(), spatial_cols);
  }
};

// Fits NMF/SMF/SMFL on x, whose first `spatial_cols` columns are spatial
// information. Builds the p-NN graph internally (rows with missing SI cells
// are isolated or attached by partial distance, §II-C; at lambda = 0 the
// graph is edgeless). Input must be nonnegative over observed entries —
// min-max normalize first. One fit from options.seed; a NumericError the
// TrainingGuard could not repair is retried under an escalated seed (see
// kMaxNumericRetries), and report.numeric_retries counts the retries taken.
Result<SmflModel> FitSmfl(const Matrix& x, const Mask& observed,
                          Index spatial_cols, const SmflOptions& options);

// The p-NN graph FitSmfl fits over: edgeless at lambda = 0; otherwise
// built over the rows with complete SI (options.num_neighbors, clamped to
// the complete-row count), optionally heat-kernel weighted, with each row
// of partially observed SI attached to its p nearest complete rows under
// the partial distance (weight 1, or the heat kernel over the partial
// distance rescaled to the full dimensionality); rows with no observed SI
// stay isolated.
Result<NeighborGraph> BuildSmflGraph(const Matrix& x, const Mask& observed,
                                     Index spatial_cols,
                                     const SmflOptions& options);

// Same as FitSmfl, but with a caller-provided neighbor graph (lets
// parameter sweeps over λ / K reuse one graph, e.g. from BuildSmflGraph).
Result<SmflModel> FitSmflWithGraph(const Matrix& x, const Mask& observed,
                                   Index spatial_cols,
                                   const NeighborGraph& graph,
                                   const SmflOptions& options);

// End-to-end imputation (Algorithm 1): fit, then recover by Formula 8
// (observed entries kept, unobserved from U V).
Result<Matrix> SmflImpute(const Matrix& x, const Mask& observed,
                          Index spatial_cols, const SmflOptions& options);

// End-to-end repair: dirty cells (from an error detector) play the role of
// Ψ; they are excluded from fitting and replaced by the reconstruction.
Result<Matrix> SmflRepair(const Matrix& dirty, const Mask& dirty_cells,
                          Index spatial_cols, const SmflOptions& options);

}  // namespace smfl::core

#endif  // SMFL_CORE_SMFL_H_
