#include "src/impute/gan.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/kmeans.h"
#include "src/common/rng.h"
#include "src/core/smfl.h"
#include "src/data/normalize.h"
#include "src/nn/mlp.h"

namespace smfl::impute {

namespace {

using nn::Activation;
using nn::AdamOptions;
using nn::LayerSpec;
using nn::Mlp;

// Dense 0/1 matrix view of a Mask.
Matrix MaskToMatrix(const Mask& mask) {
  Matrix m(mask.rows(), mask.cols());
  for (Index i = 0; i < mask.rows(); ++i) {
    for (Index j = 0; j < mask.cols(); ++j) {
      m(i, j) = mask.Contains(i, j) ? 1.0 : 0.0;
    }
  }
  return m;
}

// Column-concatenation [a | b].
Matrix HConcat(const Matrix& a, const Matrix& b) {
  SMFL_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.rows(), a.cols() + b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    auto crow = c.Row(i);
    auto arow = a.Row(i);
    auto brow = b.Row(i);
    for (Index j = 0; j < a.cols(); ++j) crow[j] = arow[j];
    for (Index j = 0; j < b.cols(); ++j) crow[a.cols() + j] = brow[j];
  }
  return c;
}

// Core GAIN training loop on a (sub)matrix. `x` values are expected in
// [0, 1]; unobserved entries of x may hold anything (they are replaced by
// noise). Returns the generator's imputation for the full matrix.
Result<Matrix> TrainGain(const Matrix& x, const Mask& observed,
                         const GainOptions& options) {
  const Index n = x.rows(), m = x.cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("GAIN: empty matrix");
  const Index hidden = options.hidden_dim > 0 ? options.hidden_dim : m;
  Rng rng(options.seed);

  ASSIGN_OR_RETURN(
      Mlp generator,
      Mlp::Create(2 * m,
                  {{hidden, Activation::kRelu},
                   {hidden, Activation::kRelu},
                   {m, Activation::kSigmoid}},
                  rng.NextU64()));
  ASSIGN_OR_RETURN(
      Mlp discriminator,
      Mlp::Create(2 * m,
                  {{hidden, Activation::kRelu},
                   {hidden, Activation::kRelu},
                   {m, Activation::kSigmoid}},
                  rng.NextU64()));

  const Matrix mask_dense = MaskToMatrix(observed);
  AdamOptions adam;
  adam.learning_rate = options.learning_rate;
  const Index batch = std::min(options.batch_size, n);

  for (int step = 0; step < options.training_steps; ++step) {
    // --- Assemble a minibatch.
    auto rows = rng.SampleWithoutReplacement(static_cast<size_t>(n),
                                             static_cast<size_t>(batch));
    Matrix xb(batch, m), mb(batch, m);
    for (Index r = 0; r < batch; ++r) {
      const Index i = static_cast<Index>(rows[static_cast<size_t>(r)]);
      for (Index j = 0; j < m; ++j) {
        mb(r, j) = mask_dense(i, j);
        // x̃: observed value, or noise in the holes.
        // smfl-lint: allow(float-eq) mask entries are exactly 0.0 or 1.0
        xb(r, j) = mb(r, j) != 0.0 ? x(i, j) : rng.Uniform(0.0, 0.01);
      }
    }

    // --- Generator forward.
    Matrix g_in = HConcat(xb, mb);
    Matrix g_out = generator.Forward(g_in);
    // x̂ = m ⊙ x̃ + (1−m) ⊙ g_out.
    Matrix x_hat(batch, m);
    for (Index i = 0; i < x_hat.size(); ++i) {
      x_hat.data()[i] = mb.data()[i] * xb.data()[i] +
                        (1.0 - mb.data()[i]) * g_out.data()[i];
    }
    // Hint: reveal a fraction of the true mask to D.
    Matrix hint(batch, m);
    for (Index i = 0; i < hint.size(); ++i) {
      hint.data()[i] = rng.Bernoulli(options.hint_rate)
                           ? mb.data()[i]
                           : 0.5;
    }

    // --- Discriminator update: BCE(d(x̂, h), m).
    Matrix d_in = HConcat(x_hat, hint);
    Matrix d_prob = discriminator.Forward(d_in);
    Matrix d_grad;
    nn::BceLoss(d_prob, mb, &d_grad);
    discriminator.Backward(d_grad);
    discriminator.Step(adam);

    // --- Generator update: adversarial on missing entries + α·MSE on
    // observed entries.
    d_prob = discriminator.Forward(d_in);
    // dL_adv/dd = −1/(d·cnt) where m = 0.
    Index missing = 0;
    for (Index i = 0; i < mb.size(); ++i) {
      // smfl-lint: allow(float-eq) mask entries are exactly 0.0 or 1.0
      if (mb.data()[i] == 0.0) ++missing;
    }
    const double missing_count =
        missing > 0 ? static_cast<double>(missing) : 1.0;
    Matrix adv_grad(batch, m);
    for (Index i = 0; i < adv_grad.size(); ++i) {
      // smfl-lint: allow(float-eq) mask entries are exactly 0.0 or 1.0
      if (mb.data()[i] == 0.0) {
        adv_grad.data()[i] =
            -1.0 / (std::max(d_prob.data()[i], 1e-8) * missing_count);
      }
    }
    // Backprop through D to x̂ (discard D's parameter grads).
    Matrix d_input_grad = discriminator.Backward(adv_grad);
    discriminator.ZeroGradients();
    // x̂ grad -> g_out grad on missing entries only (first m columns of
    // d_in are x̂).
    Matrix g_grad(batch, m);
    for (Index i = 0; i < batch; ++i) {
      for (Index j = 0; j < m; ++j) {
        // smfl-lint: allow(float-eq) mask entries are exactly 0.0 or 1.0
        if (mb(i, j) == 0.0) g_grad(i, j) = d_input_grad(i, j);
      }
    }
    // Reconstruction term on observed entries.
    Matrix rec_grad;
    nn::MaskedMseLoss(g_out, xb, mb, &rec_grad);
    for (Index i = 0; i < g_grad.size(); ++i) {
      g_grad.data()[i] += options.alpha * rec_grad.data()[i];
    }
    generator.Backward(g_grad);
    generator.Step(adam);
  }

  // --- Impute the full matrix with the trained generator.
  Matrix x_tilde(n, m);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      x_tilde(i, j) =
          // smfl-lint: allow(float-eq) mask entries are exactly 0.0 or 1.0
          mask_dense(i, j) != 0.0 ? x(i, j) : rng.Uniform(0.0, 0.01);
    }
  }
  Matrix g_full = generator.Predict(HConcat(x_tilde, mask_dense));
  return data::CombineByMask(x, g_full, observed);
}

}  // namespace

Result<Matrix> GainImputer::Impute(const Matrix& x, const Mask& observed,
                                   Index /*spatial_cols*/) const {
  return TrainGain(x, observed, options_);
}

Result<Matrix> CamfImputer::Impute(const Matrix& x, const Mask& observed,
                                   Index spatial_cols) const {
  const Index n = x.rows(), m = x.cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("CAMF: empty matrix");
  if (observed.rows() != n || observed.cols() != m) {
    return Status::InvalidArgument("CAMF: mask shape mismatch");
  }
  // 1. Cluster tuples on the mean-filled matrix.
  Matrix filled = data::FillWithColumnMeans(x, observed);
  cluster::KMeansOptions km;
  km.k = std::min(options_.num_clusters, n);
  km.seed = options_.seed;
  ASSIGN_OR_RETURN(cluster::KMeansResult clusters,
                   cluster::KMeans(filled, km));

  // 2. Per-cluster: NMF initialization + adversarial refinement.
  Matrix out = filled;
  for (Index c = 0; c < km.k; ++c) {
    std::vector<Index> rows;
    for (Index i = 0; i < n; ++i) {
      if (clusters.assignments[static_cast<size_t>(i)] == c) rows.push_back(i);
    }
    if (rows.empty()) continue;
    const Index nc = static_cast<Index>(rows.size());
    Matrix xc(nc, m);
    Mask mc(nc, m);
    for (Index r = 0; r < nc; ++r) {
      const Index i = rows[static_cast<size_t>(r)];
      for (Index j = 0; j < m; ++j) {
        xc(r, j) = x(i, j);
        mc.Set(r, j, observed.Contains(i, j));
      }
    }
    // NMF base imputation for the cluster (λ = 0, no landmarks).
    Matrix base = xc;
    {
      core::SmflOptions nmf;
      nmf.lambda = 0.0;
      nmf.use_landmarks = false;
      nmf.rank = std::min(options_.nmf_rank, std::min(nc, m));
      nmf.max_iterations = options_.nmf_iterations;
      nmf.seed = options_.seed + static_cast<uint64_t>(c);
      auto imputed = core::SmflImpute(xc, mc, spatial_cols, nmf);
      if (imputed.ok()) base = std::move(imputed).value();
    }
    // Adversarial refinement initialized from the NMF completion: GAIN on
    // the cluster, but with the NMF values (instead of noise) available as
    // the generator's input through `base`'s observed combination.
    GainOptions gan = options_.gan;
    gan.seed = options_.seed * 1315423911ULL + static_cast<uint64_t>(c);
    gan.batch_size = std::min<Index>(gan.batch_size, nc);
    auto refined = TrainGain(xc, mc, gan);
    for (Index r = 0; r < nc; ++r) {
      const Index i = rows[static_cast<size_t>(r)];
      for (Index j = 0; j < m; ++j) {
        if (observed.Contains(i, j)) continue;
        // Blend the MF completion with the adversarial refinement — the
        // "matrix factorization + GAN" combination of CAMF.
        out(i, j) = refined.ok() ? 0.5 * (base(r, j) + (*refined)(r, j))
                                 : base(r, j);
      }
    }
  }
  return out;
}

}  // namespace smfl::impute
