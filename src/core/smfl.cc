#include "src/core/smfl.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/common/fault.h"
#include "src/common/fit_progress.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/shutdown.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/core/checkpoint.h"
#include "src/core/landmarks.h"
#include "src/core/model_io.h"
#include "src/core/training_guard.h"
#include "src/data/normalize.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/la/simd.h"

namespace smfl::core {

using mf::kDivEps;

Matrix SmflModel::Reconstruct() const { return la::MatMul(u, v); }

la::Vector SmflModel::MeanU() const {
  if (u.rows() > 0) return la::ColMeans(u);
  const Index k = v.rows();
  if (mean_u.size() == k) return mean_u;
  return la::Vector(k, 1.0 / static_cast<double>(k));
}

namespace {

// Validates shared inputs for the Fit entry points.
Status ValidateInputs(const Matrix& x, const Mask& observed,
                      Index spatial_cols, const SmflOptions& options) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("FitSmfl: empty matrix");
  }
  if (observed.rows() != x.rows() || observed.cols() != x.cols()) {
    return Status::InvalidArgument("FitSmfl: mask shape mismatch");
  }
  if (spatial_cols < 1 || spatial_cols > x.cols()) {
    return Status::InvalidArgument(
        "FitSmfl: spatial_cols must be in [1, cols]");
  }
  if (options.rank <= 0) {
    return Status::InvalidArgument("FitSmfl: rank must be positive");
  }
  // K-means needs K <= N; without landmarks (SMF, NMF) any rank is legal.
  if (options.use_landmarks && options.rank > x.rows()) {
    return Status::InvalidArgument("FitSmfl: rank exceeds the row count");
  }
  if (options.lambda < 0.0) {
    return Status::InvalidArgument("FitSmfl: lambda must be nonnegative");
  }
  if (options.update == UpdateMethod::kGradientDescent &&
      !(options.learning_rate > 0.0)) {
    return Status::InvalidArgument(
        "FitSmfl: gradient descent needs learning_rate > 0");
  }
  if (x.HasNonFinite()) {
    return Status::NumericError("FitSmfl: input contains NaN/Inf");
  }
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      if (observed.Contains(i, j) && x(i, j) < 0.0) {
        return Status::InvalidArgument(
            "FitSmfl: observed entries must be nonnegative "
            "(min-max normalize first)");
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The Ω-sparse iteration. Formulas 13/14 read X and UV only through R_Ω, so
// each pass walks the observed cells and nothing else: the row pass the CSR
// rows of the ObservedIndex, the V pass its CSC twin. An iteration makes
// two passes. The V step reads the U the last row pass computed; the row
// pass then reconstructs R_Ω(UV) for the new (U, V) in registers, sums the
// objective's squared error from it and takes the next U step from the
// same values, so R_Ω(UV) is never stored and no n×m buffer exists in the
// loop. Every output entry keeps the ascending-index mul/add chain of the
// dense product it replaces; the only terms dropped are unobserved cells,
// each an exact +0.0 (a zero times a finite factor entry) added to a chain
// that starts at +0.0 and so never holds −0.0. Models are therefore
// bitwise identical to the dense form — tests/smfl_oracle_test.cc checks
// the fit against naive dense loops of both update rules. A non-finite
// factor entry the objective cannot see (in a row or column with no
// observed cell) no longer spreads through dense products; the
// TrainingGuard's checkpoint refresh, which refuses non-finite factors,
// catches it.

// Row grain of the row pass: each chunk owns its rows of U_new, and the
// chunking fixes the squared error's summation grouping (64-row chunks,
// data::MaskedSquaredError's).
constexpr Index kUpdateRowGrain = 64;
// Column grain of the V pass: each free column is an independent unit of
// |Ω_j|·K work that owns its K entries of V.
constexpr Index kUpdateColGrain = 1;

// One row pass from (U, V): returns ||R_Ω(X) − R_Ω(UV)||² and writes the U
// step into `u_next` — Formula 13,
//   U ← U ⊙ (R_Ω(X)Vᵀ + λ D U) / max(R_Ω(UV)Vᵀ + λ W U, div_eps),
// or the projected-gradient step (§III-B1),
//   U ← max(0, U + 2θ ((R_Ω(X) − R_Ω(UV))Vᵀ − λ (W U − D U))).
// It packs V into `vt` (Vᵀ K-padded, which the next V step reads too) and
// `vp` (V with zero padding columns). Row-parallel over the CSR spans,
// each 64-row chunk one call of the la::simd u_step_rows kernel, which
// walks it one row at a time: the row's observed cells of UV and their
// squared error, then its step from x and those cells, V, and its
// neighbours' rows of U through the graph's CSR arrays — which is why
// U_new goes to a second buffer.
// `div_eps` is the denominator floor the TrainingGuard widens after a
// rollback.
double RowPass(const data::ObservedIndex& omega, const NeighborGraph& graph,
               const SmflOptions& options, double div_eps, const Matrix& u,
               const Matrix& v, std::span<double> vt, std::span<double> vp,
               Matrix& u_next) {
  const Index k = u.cols(), m = v.cols();
  la::simd::PackTransposed(v.data(), k, m, vt.data());
  la::simd::PackRowsPadded(v.data(), k, m, vp.data());
  la::simd::UStep step;
  step.k = k;
  step.m = m;
  step.vt = vt.data();
  step.vp = vp.data();
  step.skip_zeros = v.HasNonFinite();
  step.row_ptr = omega.CsrRowPtr().data();
  step.cols = omega.CsrColIdx().data();
  step.x = omega.CsrValues().data();
  step.u = u.data();
  step.nbr_ptr = graph.Offsets().data();
  step.nbr = graph.Targets().data();
  step.nbr_w = graph.Weights().data();
  step.degree = graph.Degrees().data();
  step.lambda = options.lambda;
  step.step = 2.0 * options.learning_rate;
  step.div_eps = div_eps;
  step.multiplicative = options.update == UpdateMethod::kMultiplicative;
  step.u_next = u_next.data();
  // Resolved on the calling thread so a ScopedSimd override reaches the
  // pool workers (simd.h, dispatch resolution).
  const la::simd::Kernels& ker = la::simd::Active();
  return parallel::ParallelReduce(
      0, u.rows(), kUpdateRowGrain,
      [&](Index r0, Index r1) { return ker.u_step_rows(step, r0, r1); });
}

// The row pass's per-row path (simd.h, u_step_rows) — the whole padded row
// or masked_dot_cols — depends on Ω and the tier alone, so it is counted
// once per fit attempt.
void CountRowPassPaths(const data::ObservedIndex& omega) {
  const Index crossover = la::simd::Active().dense_crossover;
  Index dense = 0, cells = 0;
  for (Index i = 0; i < omega.rows(); ++i) {
    const Index observed = omega.RowOffset(i + 1) - omega.RowOffset(i);
    if (observed == 0) continue;
    ++(observed * crossover >= omega.cols() ? dense : cells);
  }
  SMFL_COUNTER_ADD("la.simd.dispatch.row_pass_dense", dense);
  SMFL_COUNTER_ADD("la.simd.dispatch.row_pass_cells", cells);
}

// One V step over the free columns j >= omega.ColumnsBegin() (L for SMFL,
// whose landmark columns stay frozen; 0 for SMF/NMF), reading the
// just-adopted U: Formula 14,
//   V ← V ⊙ (Uᵀ R_Ω(X)) / max(Uᵀ R_Ω(UV), div_eps),
// or its projected-gradient step V ← max(0, V + 2θ (Uᵀ R_Ω(X) − Uᵀ R_Ω(UV))).
// Column-parallel over the CSC twin, each chunk one call of the la::simd
// v_step_cols kernel: each observed row p of column j, in ascending order,
// forms (U V)_pj from V's column as packed in `vt` (V is unchanged since
// the row pass packed it) and feeds both sums, which stay in registers
// until the column is written back.
//
// The dense forms skip u_pl == 0 in the reconstruction and in both sums.
// Against a finite partner a skipped term is an exact ±0.0 that leaves a
// sum (never −0.0) unchanged, so the kernel tests for zeros only where the
// partner — V's column, or a reconstructed entry — is not finite; x always
// is (ValidateInputs).
void UpdateV(const data::ObservedIndex& omega, const SmflOptions& options,
             double div_eps, const Matrix& u, std::span<const double> vt,
             Matrix& v) {
  la::simd::VStep step;
  step.k = u.cols();
  step.m = v.cols();
  step.u = u.data();
  step.vt = vt.data();
  step.col_begin = omega.ColumnsBegin();
  step.col_ptr = omega.CscColPtr().data();
  step.rows = omega.CscRowIdx().data();
  step.x = omega.CscValues().data();
  step.step = 2.0 * options.learning_rate;
  step.div_eps = div_eps;
  step.multiplicative = options.update == UpdateMethod::kMultiplicative;
  step.v = v.data();
  const la::simd::Kernels& ker = la::simd::Active();
  parallel::ParallelFor(omega.ColumnsBegin(), v.cols(), kUpdateColGrain,
                        [&](Index c0, Index c1) {
                          ker.v_step_cols(step, c0, c1);
                        });
}

}  // namespace

namespace {

// Everything a mid-fit checkpoint must record beyond the solver state
// itself: where this attempt sits in the restart/retry nest, the
// fingerprints that gate resume, and the best-so-far model (serialized,
// plus the U its model file leaves out).
struct CheckpointContext {
  CheckpointManager* manager = nullptr;
  uint64_t seed = 0;  // the OUTER FitSmfl seed, not the derived one
  uint64_t input_fingerprint = 0;
  uint64_t options_fingerprint = 0;
  int restart = 0;
  int attempt = 0;
  int retries_used = 0;
  const std::string* best_model = nullptr;
  const Matrix* best_u = nullptr;
};

// Single fit at a fixed seed; FitSmflWithGraph wraps it with restarts.
// `ckpt` (nullable) enables periodic checkpoint writes; `resume`
// (nullable) restores a checkpointed state instead of initializing.
Result<SmflModel> FitOnceWithGraph(const Matrix& x, const Mask& observed,
                                   Index spatial_cols,
                                   const NeighborGraph& graph,
                                   const SmflOptions& options,
                                   const CheckpointContext* ckpt,
                                   const FitCheckpoint* resume);

// FNV-1a over the raw input bytes (values, mask bits, shape,
// spatial_cols). Resume refuses a checkpoint whose input fingerprint
// differs — continuing a trajectory against different data would
// produce a model matching neither run.
uint64_t FingerprintInput(const Matrix& x, const Mask& observed,
                          Index spatial_cols) {
  uint64_t h = Fnv1a64(StrFormat(
      "%lld %lld %lld", static_cast<long long>(x.rows()),
      static_cast<long long>(x.cols()), static_cast<long long>(spatial_cols)));
  h = Fnv1a64(
      std::string_view(reinterpret_cast<const char*>(x.data()),
                       sizeof(double) * static_cast<size_t>(x.size())),
      h);
  for (Index i = 0; i < observed.rows(); ++i) {
    // smfl-lint: allow(mask-scan) fingerprinting hashes the raw mask bytes once per fit call, not per iteration
    const auto* row_bytes = observed.RowData(i);
    h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(row_bytes),
                                 static_cast<size_t>(observed.cols())),
                h);
  }
  return h;
}

// FNV-1a over every SmflOptions field the trajectory depends on, plus the
// guard's constants. `threads` is deliberately absent (results are bitwise
// identical at any thread count and under any SIMD tier — see
// docs/performance.md); the checkpoint plumbing fields obviously are too.
uint64_t FingerprintOptions(const SmflOptions& options) {
  const std::string repr = StrFormat(
      "rank=%lld;nn=%lld;gw=%d;lm=%d;update=%d;maxit=%d;kmeans=%d;"
      "restarts=%d;seed=%llu;retries=%d;guard=%d,%d,%d",
      static_cast<long long>(options.rank),
      static_cast<long long>(options.num_neighbors),
      static_cast<int>(options.graph_weighting),
      options.use_landmarks ? 1 : 0, static_cast<int>(options.update),
      options.max_iterations, options.kmeans_max_iterations,
      options.num_restarts, static_cast<unsigned long long>(options.seed),
      options.max_numeric_retries, options.guard.enabled ? 1 : 0,
      options.guard.checkpoint_interval,
      options.guard.max_recovery_attempts);
  uint64_t h = Fnv1a64(repr);
  const double reals[] = {options.lambda,
                          options.learning_rate,
                          options.tolerance,
                          kObjectiveSlack,
                          kEpsBump,
                          kPerturbation};
  h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(reals),
                               sizeof(reals)),
              h);
  return h;
}

}  // namespace

Result<SmflModel> FitSmflWithGraph(const Matrix& x, const Mask& observed,
                                   Index spatial_cols,
                                   const NeighborGraph& graph,
                                   const SmflOptions& options) {
  parallel::ScopedParallelism scoped_threads(options.threads);
  SMFL_GAUGE_SET("la.simd.tier",
                 static_cast<double>(la::simd::ActiveTier()));
  RETURN_NOT_OK(ValidateInputs(x, observed, spatial_cols, options));
  if (options.num_restarts < 1) {
    return Status::InvalidArgument("FitSmfl: num_restarts must be >= 1");
  }
  // RetryPolicy: each restart gets `1 + max_numeric_retries` single-seed
  // attempts; a kNumericError (divergence the guard could not repair)
  // escalates the seed and tries again, any other error is deterministic
  // and fails the restart immediately.
  const int max_attempts = 1 + std::max(0, options.max_numeric_retries);

  // Checkpoint/resume plumbing. Fingerprints are computed once per fit
  // call; resume refuses a checkpoint written for different data or
  // options, or one pointing outside the live restart/retry nest.
  const FitCheckpoint* resume = options.resume_from;
  uint64_t input_fp = 0, options_fp = 0;
  if (options.checkpoint != nullptr || resume != nullptr) {
    input_fp = FingerprintInput(x, observed, spatial_cols);
    options_fp = FingerprintOptions(options);
  }
  if (resume != nullptr) {
    if (resume->input_fingerprint != input_fp) {
      return Status::InvalidArgument(
          "resume: checkpoint was written for different input data");
    }
    if (resume->options_fingerprint != options_fp) {
      return Status::InvalidArgument(
          "resume: checkpoint was written under different fit options");
    }
    if (resume->restart >= options.num_restarts ||
        resume->attempt >= max_attempts) {
      return Status::InvalidArgument(StrFormat(
          "resume: checkpoint position (restart %d, attempt %d) exceeds "
          "num_restarts=%d / max attempts=%d",
          resume->restart, resume->attempt, options.num_restarts,
          max_attempts));
    }
  }

  Result<SmflModel> best = Status::Internal("no restart succeeded");
  Status last_error = Status::OK();
  int retries_used = 0;
  int start_restart = 0;
  // Serialized best-so-far and its U, carried into checkpoints so a
  // resumed num_restarts > 1 fit keeps the winner without refitting.
  std::string best_serialized;
  Matrix best_u;
  if (resume != nullptr) {
    start_restart = resume->restart;
    retries_used = resume->retries_used;
    if (!resume->best_model.empty()) {
      auto prior = DeserializeModel(resume->best_model);
      if (!prior.ok()) {
        Status st = prior.status();
        st.WithContext("resume: stored best-so-far model");
        return st;
      }
      if (resume->best_u.rows() != x.rows() ||
          resume->best_u.cols() != prior->v.rows()) {
        return Status::DataError(
            "resume: stored best-so-far model has no matching U");
      }
      best = std::move(prior).value();
      best->u = resume->best_u;
      best->mean_u = la::Vector();
      best_serialized = resume->best_model;
      best_u = resume->best_u;
    }
  }
  for (int r = start_restart; r < options.num_restarts; ++r) {
    Result<SmflModel> model = Status::Internal("restart not attempted");
    const int start_attempt =
        (resume != nullptr && r == resume->restart) ? resume->attempt : 0;
    for (int attempt = start_attempt; attempt < max_attempts; ++attempt) {
      SmflOptions single = options;
      single.num_restarts = 1;
      single.seed = options.seed + static_cast<uint64_t>(r) * 0x9e3779b9ULL +
                    static_cast<uint64_t>(attempt) * 0xc2b2ae3d27d4eb4fULL;
      single.checkpoint = nullptr;
      single.resume_from = nullptr;
      CheckpointContext ctx;
      ctx.manager = options.checkpoint;
      ctx.seed = options.seed;
      ctx.input_fingerprint = input_fp;
      ctx.options_fingerprint = options_fp;
      ctx.restart = r;
      ctx.attempt = attempt;
      ctx.retries_used = retries_used;
      ctx.best_model = &best_serialized;
      ctx.best_u = &best_u;
      // Live-progress publication for /statusz (src/obs): where this
      // attempt sits in the restart/retry nest.
      GlobalFitProgress().restart.store(r, std::memory_order_relaxed);
      GlobalFitProgress().attempt.store(attempt, std::memory_order_relaxed);
      const FitCheckpoint* attempt_resume =
          (resume != nullptr && r == resume->restart &&
           attempt == resume->attempt)
              ? resume
              : nullptr;
      model = FitOnceWithGraph(x, observed, spatial_cols, graph, single,
                               options.checkpoint != nullptr ? &ctx : nullptr,
                               attempt_resume);
      if (model.ok() ||
          model.status().code() != StatusCode::kNumericError ||
          attempt + 1 == max_attempts) {
        break;
      }
      ++retries_used;
      SMFL_COUNTER_INC("smfl.fit.numeric_retries");
    }
    if (!model.ok()) {
      last_error = model.status();
      last_error.WithContext(StrFormat("restart %d", r));
      // An interrupted attempt (SIGINT/SIGTERM) already wrote its final
      // checkpoint; burning the remaining restarts would fight the user.
      if (ShutdownRequested()) break;
      continue;
    }
    if (!best.ok() || model->report.final_objective() <
                          best->report.final_objective()) {
      best = std::move(model);
      if (options.checkpoint != nullptr && r + 1 < options.num_restarts) {
        best_serialized = SerializeModel(*best);
        best_u = best->u;
      }
    }
  }
  // A requested shutdown outranks a best-so-far model: the caller must
  // see the interruption (and not durably publish a half-trained model),
  // and --resume continues from the final checkpoint.
  if (ShutdownRequested() && !last_error.ok()) return last_error;
  if (!best.ok()) {
    // Surface the last restart's actual failure (code + message) rather
    // than a generic Internal error.
    last_error.WithContext(StrFormat("FitSmfl: all %d restart(s) failed",
                                     options.num_restarts));
    return last_error;
  }
  best->report.numeric_retries = retries_used;
  return best;
}

namespace {

Result<SmflModel> FitOnceWithGraph(const Matrix& x, const Mask& observed,
                                   Index spatial_cols,
                                   const NeighborGraph& graph,
                                   const SmflOptions& options,
                                   const CheckpointContext* ckpt,
                                   const FitCheckpoint* resume) {
  SMFL_TRACE_SPAN("smfl.fit");
  if (graph.num_vertices() != x.rows()) {
    return Status::InvalidArgument("FitSmfl: graph size mismatch");
  }
  const Index n = x.rows(), m = x.cols(), k = options.rank;

  SmflModel model;
  model.spatial_cols = spatial_cols;
  const Index v_update_begin = options.use_landmarks ? spatial_cols : 0;
  if (resume != nullptr) {
    // The checkpoint holds the full accepted state at `resume->iteration`
    // — factors, landmarks, trace, guard internals. Nothing stochastic is
    // re-run; the only recomputation below is the first row pass, a pure
    // function of the restored factors and denominator floor.
    if (resume->u.rows() != n || resume->u.cols() != k ||
        resume->v.rows() != k || resume->v.cols() != m ||
        resume->spatial_cols != spatial_cols) {
      return Status::InvalidArgument(
          "resume: checkpoint factor shapes do not match this fit");
    }
    model.u = resume->u;
    model.v = resume->v;
    model.landmarks = resume->landmarks;
  } else {
  // Landmarks and the starting U and V.
  SMFL_TRACE_SPAN("smfl.fit.init");
  Rng rng(options.seed);
  model.u = Matrix(n, k);
  model.v = Matrix(k, m);
  for (Index i = 0; i < model.u.size(); ++i) {
    model.u.data()[i] = rng.Uniform(0.01, 1.0);
  }
  for (Index i = 0; i < model.v.size(); ++i) {
    model.v.data()[i] = rng.Uniform(0.01, 1.0);
  }

  if (options.use_landmarks) {
    // Landmarks from K-means over the (mean-filled) SI block.
    Matrix si_filled;
    {
      Matrix si = x.Block(0, 0, n, spatial_cols);
      Mask si_mask(n, spatial_cols);
      for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < spatial_cols; ++j) {
          si_mask.Set(i, j, observed.Contains(i, j));
        }
      }
      si_filled = data::FillWithColumnMeans(si, si_mask);
    }
    LandmarkOptions lm;
    lm.kmeans_max_iterations = options.kmeans_max_iterations;
    lm.seed = options.seed;
    ASSIGN_OR_RETURN(model.landmarks, GenerateLandmarks(si_filled, k, lm));
    InjectLandmarks(model.v, model.landmarks);

    // Cluster-consistent initialization: with the first L columns of V
    // frozen at the centers C, a random U starts far from satisfying
    // U C ≈ SI and the multiplicative updates settle in poor local optima.
    // Instead, U rows start as Gaussian-kernel weights over the landmark
    // distances (≈ soft cluster memberships, so U C ≈ SI immediately) and
    // each free feature row of V starts at its cluster's observed column
    // means (the "features of each cluster" reading of §III-A).
    // Rows whose SI is not fully observed have no trustworthy location;
    // they get uniform weights instead of a kernel anchored at the
    // mean-filled (map-center) coordinates.
    double sigma2 = 0.0;
    std::vector<Index> nearest(static_cast<size_t>(n), 0);
    for (Index i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (Index c = 0; c < k; ++c) {
        const double d2 = la::SquaredDistance(si_filled.Row(i),
                                              model.landmarks.Row(c));
        if (d2 < best) {
          best = d2;
          nearest[static_cast<size_t>(i)] = c;
        }
      }
      sigma2 += best;
    }
    sigma2 = std::max(sigma2 / static_cast<double>(n), 1e-8);
    std::vector<Index> obs_cols;
    obs_cols.reserve(static_cast<size_t>(spatial_cols));
    for (Index i = 0; i < n; ++i) {
      // Kernel over the observed SI coordinates only; a fully unobserved
      // location degrades to uniform weights.
      obs_cols.clear();
      for (Index j = 0; j < spatial_cols; ++j) {
        if (observed.Contains(i, j)) obs_cols.push_back(j);
      }
      if (obs_cols.empty()) {
        for (Index c = 0; c < k; ++c) {
          model.u(i, c) = 1.0 / static_cast<double>(k);
        }
        continue;
      }
      double sum = 0.0;
      for (Index c = 0; c < k; ++c) {
        double d2 = 0.0;
        for (Index j : obs_cols) {
          const double diff = si_filled(i, j) - model.landmarks(c, j);
          d2 += diff * diff;
        }
        // Rescale the partial distance to the full dimensionality so the
        // kernel width stays comparable across rows.
        d2 *= static_cast<double>(spatial_cols) /
              static_cast<double>(obs_cols.size());
        const double w = std::exp(-d2 / (2.0 * sigma2)) + 1e-4;
        model.u(i, c) = w;
        sum += w;
      }
      for (Index c = 0; c < k; ++c) model.u(i, c) /= sum;
    }
    // The cluster means of the free columns in one pass over the rows:
    // each (cluster, column) sum adds its rows in ascending order from
    // +0.0. A column a cluster never observes keeps its random start, drawn
    // in cluster-then-column order.
    const Index free = m - spatial_cols;
    std::vector<double> sums(static_cast<size_t>(k * free), 0.0);
    std::vector<Index> counts(static_cast<size_t>(k * free), 0);
    for (Index i = 0; i < n; ++i) {
      const Index base = nearest[static_cast<size_t>(i)] * free - spatial_cols;
      for (Index j = spatial_cols; j < m; ++j) {
        if (!observed.Contains(i, j)) continue;
        sums[static_cast<size_t>(base + j)] += x(i, j);
        ++counts[static_cast<size_t>(base + j)];
      }
    }
    for (Index c = 0; c < k; ++c) {
      for (Index j = spatial_cols; j < m; ++j) {
        const auto at = static_cast<size_t>(c * free + j - spatial_cols);
        model.v(c, j) =
            counts[at] > 0
                ? std::max(sums[at] / static_cast<double>(counts[at]), 1e-4)
                : rng.Uniform(0.01, 1.0);
      }
    }
  }
  }  // resume == nullptr initialization

  // Ω in CSR form with the observed values packed alongside, plus its CSC
  // twin over the columns the V update touches, built once per attempt:
  // every pass of the iteration below — and the TrainingGuard rollback
  // rebuild — walks only these spans.
  data::ObservedIndex omega = data::ObservedIndex::FromMask(observed, x);
  omega.BuildColumns(v_update_begin);
  CountRowPassPaths(omega);
  FitReport& report = model.report;
  // V packed for the row pass, repacked by every pass: Vᵀ K-padded
  // (la::simd::PackTransposed), which the next V step also reads — V
  // changes only in the V step, which reads its own column before writing
  // it — and V with zero padding columns (la::simd::PackRowsPadded).
  std::vector<double> vt(
      static_cast<size_t>(m * la::simd::PaddedWidth(k)));
  std::vector<double> vp(
      static_cast<size_t>(k * la::simd::PaddedWidth(m)));
  // The next U: each row pass's U step from the current (U, V), adopted by
  // the next iteration (swapped with model.u).
  Matrix u_next(n, k);

  // The guard checkpoints (U, V, objective) and rolls back on NaN/Inf or —
  // for the multiplicative rules, whose monotonicity is the paper's
  // Propositions 5/7 — on an objective increase.
  TrainingGuard guard(options.guard,
                      options.update == UpdateMethod::kMultiplicative,
                      options.seed, kDivEps);
  double div_eps = kDivEps;
  if (resume != nullptr) {
    guard.RestoreState(resume->guard);
    div_eps = resume->div_eps;
  }
  const auto row_pass = [&] {
    return RowPass(omega, graph, options, div_eps, model.u, model.v, vt, vp,
                   u_next);
  };
  // The first pass, on the starting state and (on resume) the restored
  // denominator floor: the initial objective's squared error, and the
  // first iteration's U.
  const double initial_error = row_pass();
  if (resume == nullptr) {
    report.objective_trace.push_back(
        initial_error +
        options.lambda * graph.LaplacianQuadraticForm(model.u));
  } else {
    report.objective_trace = resume->objective_trace;
    report.iterations = resume->iteration + 1;
  }

  const int start_iter = resume != nullptr ? resume->iteration + 1 : 0;

  // Live-progress publication for /statusz (src/obs): a handful of relaxed
  // atomic stores per ITERATION, always on — nothing numeric ever reads
  // them, so determinism is untouched (tests/obs_endpoint_test.cc proves
  // byte-identical models with a concurrent scraper).
  FitProgress& progress = GlobalFitProgress();
  progress.max_iterations.store(options.max_iterations,
                                std::memory_order_relaxed);
  progress.fit_active.store(true, std::memory_order_relaxed);
  struct FitActiveReset {
    ~FitActiveReset() {
      GlobalFitProgress().fit_active.store(false, std::memory_order_relaxed);
    }
  } fit_active_reset;

  // Durable snapshot of the full accepted state after iteration `iter`.
  // Shared by the periodic ShouldCheckpoint path and the signal-shutdown
  // flush below. A failed write must never fail the fit — training
  // continues with a staler resume point (already counted as
  // smfl.checkpoint.failures by the manager).
  const auto save_checkpoint = [&](int iter) {
    FitCheckpoint cp;
    cp.seed = ckpt->seed;
    cp.input_fingerprint = ckpt->input_fingerprint;
    cp.options_fingerprint = ckpt->options_fingerprint;
    cp.restart = ckpt->restart;
    cp.attempt = ckpt->attempt;
    cp.retries_used = ckpt->retries_used;
    cp.iteration = iter;
    cp.div_eps = div_eps;
    cp.u = model.u;
    cp.v = model.v;
    cp.landmarks = model.landmarks;
    cp.spatial_cols = spatial_cols;
    cp.objective_trace = report.objective_trace;
    cp.guard = guard.SaveState();
    if (ckpt->best_model != nullptr) cp.best_model = *ckpt->best_model;
    if (ckpt->best_u != nullptr) cp.best_u = *ckpt->best_u;
    Status st = ckpt->manager->Save(cp);
    if (!st.ok()) {
      SMFL_LOG(Warning) << "checkpoint write failed: " << st.ToString();
    }
  };

  for (int iter = start_iter; iter < options.max_iterations; ++iter) {
    SMFL_TRACE_SPAN("smfl.fit.iter");
    report.iterations = iter + 1;
    // The U step: the candidate the last row pass took from the accepted
    // (U, V).
    std::swap(model.u, u_next);
    {
      SMFL_TRACE_SPAN("smfl.fit.update_v");
      UpdateV(omega, options, div_eps, model.u, vt, model.v);
    }
    // Fault points for robustness tests: corrupt a factor entry / blow the
    // objective up right after the update, before the guard looks.
    if (SMFL_FAULT_FIRED("smfl.update.nan")) {
      model.u(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }
    if (SMFL_FAULT_FIRED("smfl.update.spike")) {
      model.u *= 1e3;
    }
    // The row pass on the new (U, V) — after the fault points, so an
    // injected corruption is visible to the guard: the objective's squared
    // error, and the next iteration's U. Computing that U before the guard
    // looks changes no decision: a rollback, a tolerance stop or the
    // iteration cap discards it.
    double squared_error = 0.0;
    {
      SMFL_TRACE_SPAN("smfl.fit.update_u");
      squared_error = row_pass();
    }
    const double objective =
        squared_error + options.lambda * graph.LaplacianQuadraticForm(model.u);
    // The paper's headline convergence artifact: the objective trajectory
    // over wall-clock time, as a counter track in the trace file.
    SMFL_TRACE_COUNTER("smfl.fit.objective", objective);
    if (guard.enabled()) {
      auto action = guard.Observe(iter, objective, &model.u, &model.v);
      if (!action.ok()) {
        report.rollbacks = guard.rollbacks();
        report.recovery_attempts = guard.recovery_attempts();
        SMFL_COUNTER_INC("smfl.fit.diverged");
        Status st = action.status();
        st.WithContext("FitSmfl: factorization diverged");
        return st;
      }
      if (*action == TrainingGuard::Action::kRolledBack) {
        // State was restored (and possibly perturbed); resume from the
        // checkpoint with the escalated denominator floor. Entries from the
        // rolled-back iterations leave the trace — it records only the
        // accepted trajectory. The pending U came from the rejected
        // iterates, so a fresh pass takes it from the restored ones.
        div_eps = guard.div_eps();
        const size_t keep =
            static_cast<size_t>(guard.last_good_iteration()) + 2;
        if (report.objective_trace.size() > keep) {
          report.objective_trace.resize(keep);
        }
        SMFL_TRACE_SPAN("smfl.fit.update_u");
        (void)row_pass();
        continue;
      }
    }
    report.objective_trace.push_back(objective);
    {
      // /statusz progress: iteration, objective, and the same relative
      // improvement RelativeImprovementBelow tests against tolerance.
      const size_t len = report.objective_trace.size();
      const double prev = len >= 2 ? report.objective_trace[len - 2]
                                   : objective;
      const double denom = prev > 1e-300 ? prev : 1e-300;
      PublishFitIteration(iter + 1, objective, (prev - objective) / denom);
    }
    if (mf::RelativeImprovementBelow(report.objective_trace,
                                     options.tolerance)) {
      report.converged = true;
      break;
    }
    // SIGINT/SIGTERM unwind cooperatively: flush a final checkpoint at
    // this (accepted) iteration, then surface the interruption. The CLI's
    // export-on-exit path durably writes --trace-out/--metrics-out, and a
    // later --resume continues from exactly here.
    const bool interrupted = ShutdownRequested();
    if (ckpt != nullptr && ckpt->manager != nullptr &&
        (interrupted || ckpt->manager->ShouldCheckpoint(iter))) {
      save_checkpoint(iter);
    }
    if (interrupted) {
      report.rollbacks = guard.rollbacks();
      report.recovery_attempts = guard.recovery_attempts();
      SMFL_COUNTER_INC("smfl.fit.interrupted");
      return Status::ResourceExhausted(
          StrFormat("FitSmfl: interrupted by signal %d at iteration %d; "
                    "telemetry flushed%s",
                    ShutdownSignal(), iter + 1,
                    ckpt != nullptr && ckpt->manager != nullptr
                        ? ", final checkpoint written (use --resume)"
                        : ""));
    }
  }
  report.rollbacks = guard.rollbacks();
  report.recovery_attempts = guard.recovery_attempts();
  SMFL_COUNTER_ADD("smfl.fit.iterations", report.iterations);
  // Added once per attempt (not in the rollback branch) so the counters
  // exist — at zero — in every fit's metrics snapshot.
  SMFL_COUNTER_ADD("smfl.guard.rollbacks", report.rollbacks);
  SMFL_COUNTER_ADD("smfl.guard.recovery_attempts", report.recovery_attempts);
  if (report.converged) SMFL_COUNTER_INC("smfl.fit.converged");
  SMFL_GAUGE_SET("smfl.fit.final_objective", report.final_objective());
  if (model.u.HasNonFinite() || model.v.HasNonFinite()) {
    return Status::NumericError(StrFormat(
        "FitSmfl: factorization diverged at iteration %d (objective %g)",
        report.iterations, report.final_objective()));
  }
  return model;
}

}  // namespace

Result<NeighborGraph> BuildSmflGraph(const Matrix& x, const Mask& observed,
                                     Index spatial_cols,
                                     const SmflOptions& options) {
  RETURN_NOT_OK(ValidateInputs(x, observed, spatial_cols, options));
  Matrix si = x.Block(0, 0, x.rows(), spatial_cols);
  // At λ = 0 (NMF, or an unregularized SMF/SMFL) the Laplacian term is
  // multiplied by zero, so the fit runs on an edgeless graph instead of
  // paying for a p-NN search whose result it never reads.
  if (!(options.lambda > 0.0)) {
    return NeighborGraph::Build(
        si, 1, std::vector<bool>(static_cast<size_t>(x.rows()), false));
  }
  // Graph over SI (§II-C). Rows with unobserved SI cells are isolated in
  // the graph rather than wired to mean-filled map-center neighbors: a
  // fabricated location would impose smoothness toward arbitrary rows
  // (see DESIGN.md §4 for this deviation from the paper's mean-fill).
  std::vector<bool> si_complete(static_cast<size_t>(x.rows()), true);
  Index complete_count = 0;
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < spatial_cols; ++j) {
      if (!observed.Contains(i, j)) {
        si_complete[static_cast<size_t>(i)] = false;
        break;
      }
    }
    complete_count += si_complete[static_cast<size_t>(i)];
  }
  const Index p = std::min(options.num_neighbors,
                           std::max<Index>(1, complete_count - 1));
  ASSIGN_OR_RETURN(NeighborGraph graph,
                   NeighborGraph::Build(si, p, si_complete));
  const bool heat = options.graph_weighting == GraphWeighting::kHeatKernel;
  double sigma = 0.0;
  if (heat) {
    sigma = graph.MeanEdgeLength(si);
    RETURN_NOT_OK(graph.ApplyHeatKernelWeights(si, sigma));
  }
  // Rows with PARTIALLY observed SI still carry locality in their observed
  // coordinates: attach each to its p nearest complete rows under the
  // partial distance, so the smoothness term keeps acting on them. Binary
  // graphs give these edges weight 1; heat-kernel graphs weight them with
  // the same kernel and bandwidth as the p-NN edges, over the partial
  // distance rescaled to the full dimensionality (as the landmark
  // initialization rescales it), so a row missing a coordinate does not
  // get the strongest ties in the graph.
  if (complete_count > 0 && complete_count < x.rows()) {
    std::vector<Index> complete_rows;
    complete_rows.reserve(static_cast<size_t>(complete_count));
    for (Index i = 0; i < x.rows(); ++i) {
      if (si_complete[static_cast<size_t>(i)]) complete_rows.push_back(i);
    }
    // {partial row, complete row, rescaled squared partial distance}.
    std::vector<spatial::Triplet> attach;
    for (Index i = 0; i < x.rows(); ++i) {
      if (si_complete[static_cast<size_t>(i)]) continue;
      std::vector<Index> obs_cols;
      for (Index j = 0; j < spatial_cols; ++j) {
        if (observed.Contains(i, j)) obs_cols.push_back(j);
      }
      if (obs_cols.empty()) continue;  // fully unknown location: isolated
      // p nearest complete rows under the observed-coordinate distance.
      std::vector<std::pair<double, Index>> best;
      for (Index r : complete_rows) {
        double d2 = 0.0;
        for (Index j : obs_cols) {
          const double diff = si(i, j) - si(r, j);
          d2 += diff * diff;
        }
        best.emplace_back(d2, r);
      }
      const size_t keep = std::min<size_t>(static_cast<size_t>(p),
                                           best.size());
      std::partial_sort(best.begin(), best.begin() + keep, best.end());
      const double rescale = static_cast<double>(spatial_cols) /
                             static_cast<double>(obs_cols.size());
      for (size_t b = 0; b < keep; ++b) {
        attach.push_back({i, best[b].second, best[b].first * rescale});
      }
    }
    if (heat && !attach.empty() && !(sigma > 0.0)) {
      // No complete-row edge to take the bandwidth from: the mean
      // (rescaled) length of the attach edges themselves, floored like
      // MeanEdgeLength.
      double total = 0.0;
      for (const spatial::Triplet& t : attach) total += std::sqrt(t.value);
      sigma = std::max(total / static_cast<double>(attach.size()), 1e-12);
    }
    for (spatial::Triplet& t : attach) {
      t.value = heat ? NeighborGraph::HeatKernelWeight(t.value, sigma) : 1.0;
    }
    graph.AddSymmetricEdges(attach);
  }
  return graph;
}

Result<SmflModel> FitSmfl(const Matrix& x, const Mask& observed,
                          Index spatial_cols, const SmflOptions& options) {
  // Covers graph construction too; FitOnce re-enters the same override.
  parallel::ScopedParallelism scoped_threads(options.threads);
  Result<NeighborGraph> graph = [&] {
    SMFL_TRACE_SPAN("smfl.graph");
    return BuildSmflGraph(x, observed, spatial_cols, options);
  }();
  if (!graph.ok()) return graph.status();
  return FitSmflWithGraph(x, observed, spatial_cols, *graph, options);
}

namespace {

// R_Ω(X) + R_Ψ(U V): the fitted model's completion of x.
Matrix Complete(const Matrix& x, const SmflModel& model, const Mask& kept) {
  SMFL_TRACE_SPAN("smfl.reconstruct");
  return data::CombineByMask(x, model.Reconstruct(), kept);
}

}  // namespace

Result<Matrix> SmflImpute(const Matrix& x, const Mask& observed,
                          Index spatial_cols, const SmflOptions& options) {
  ASSIGN_OR_RETURN(SmflModel model,
                   FitSmfl(x, observed, spatial_cols, options));
  return Complete(x, model, observed);
}

Result<Matrix> SmflRepair(const Matrix& dirty, const Mask& dirty_cells,
                          Index spatial_cols, const SmflOptions& options) {
  // Clean cells are the "observed" set; dirty cells are refit and replaced.
  Mask clean = dirty_cells.Complement();
  ASSIGN_OR_RETURN(SmflModel model,
                   FitSmfl(dirty, clean, spatial_cols, options));
  return Complete(dirty, model, clean);
}

}  // namespace smfl::core
