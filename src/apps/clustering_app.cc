#include "src/apps/clustering_app.h"

#include <cmath>

#include "src/cluster/hungarian.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/spectral.h"
#include "src/core/smfl.h"
#include "src/data/normalize.h"
#include "src/mf/pca.h"

namespace smfl::apps {

const char* ClusterMethodName(ClusterMethod method) {
  switch (method) {
    case ClusterMethod::kPca:
      return "PCA";
    case ClusterMethod::kNmf:
      return "NMF";
    case ClusterMethod::kSmf:
      return "SMF";
    case ClusterMethod::kSmfl:
      return "SMFL";
    case ClusterMethod::kSpectral:
      return "Spectral";
  }
  return "?";
}

namespace {

// K-means over L2-normalized embedding rows -> labels. Row normalization
// follows the GNMF clustering protocol (Cai et al.): factorization row
// norms track tuple magnitudes, while cluster identity lives in the
// direction of the coefficient vector.
Result<std::vector<Index>> KMeansLabels(const Matrix& embedding, Index k,
                                        uint64_t seed) {
  Matrix normalized = embedding;
  for (Index i = 0; i < normalized.rows(); ++i) {
    auto row = normalized.Row(i);
    double norm = 0.0;
    for (double v : row) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (double& v : row) v /= norm;
    }
  }
  cluster::KMeansOptions km;
  km.k = k;
  km.seed = seed;
  ASSIGN_OR_RETURN(cluster::KMeansResult result,
                   cluster::KMeans(normalized, km));
  return std::move(result.assignments);
}

}  // namespace

Result<std::vector<Index>> ClusterIncomplete(
    ClusterMethod method, const Matrix& x, const Mask& observed,
    Index spatial_cols, const ClusterAppOptions& options) {
  switch (method) {
    case ClusterMethod::kPca: {
      // PCA needs a complete matrix: mean-fill first (standard practice).
      Matrix filled = data::FillWithColumnMeans(x, observed);
      ASSIGN_OR_RETURN(mf::PcaModel pca, mf::FitPca(filled, options.rank));
      return KMeansLabels(pca.Transform(filled), options.num_clusters,
                          options.seed);
    }
    case ClusterMethod::kNmf: {
      core::SmflOptions nmf;
      nmf.lambda = 0.0;
      nmf.use_landmarks = false;
      nmf.rank = options.rank;
      nmf.seed = options.seed;
      ASSIGN_OR_RETURN(core::SmflModel model,
                       core::FitSmfl(x, observed, spatial_cols, nmf));
      return KMeansLabels(model.u, options.num_clusters, options.seed);
    }
    case ClusterMethod::kSpectral: {
      // Graph over (mean-filled) coordinates only.
      Matrix si = x.Block(0, 0, x.rows(), spatial_cols);
      Mask si_mask(x.rows(), spatial_cols);
      for (Index i = 0; i < x.rows(); ++i) {
        for (Index j = 0; j < spatial_cols; ++j) {
          si_mask.Set(i, j, observed.Contains(i, j));
        }
      }
      Matrix si_filled = data::FillWithColumnMeans(si, si_mask);
      // Spectral clustering needs the graph CONNECTED within each true
      // cluster; with several readings per location (visit bursts), a
      // small p wires each burst only to itself and the graph shatters
      // into hundreds of components. A larger p bridges bursts.
      const Index p = std::min<Index>(8, std::max<Index>(1, x.rows() - 1));
      ASSIGN_OR_RETURN(spatial::NeighborGraph graph,
                       spatial::NeighborGraph::Build(si_filled, p));
      cluster::SpectralOptions spectral;
      spectral.k = options.num_clusters;
      spectral.seed = options.seed;
      ASSIGN_OR_RETURN(cluster::SpectralResult result,
                       cluster::SpectralClustering(graph, spectral));
      return std::move(result.assignments);
    }
    case ClusterMethod::kSmf:
    case ClusterMethod::kSmfl: {
      core::SmflOptions opts;
      opts.rank = options.rank;
      opts.seed = options.seed;
      opts.use_landmarks = method == ClusterMethod::kSmfl;
      ASSIGN_OR_RETURN(core::SmflModel model,
                       core::FitSmfl(x, observed, spatial_cols, opts));
      return KMeansLabels(model.u, options.num_clusters, options.seed);
    }
  }
  return Status::InvalidArgument("ClusterIncomplete: unknown method");
}

Result<double> ClusteringAccuracyOnIncomplete(
    ClusterMethod method, const Matrix& x, const Mask& observed,
    Index spatial_cols, const std::vector<Index>& truth,
    const ClusterAppOptions& options) {
  ASSIGN_OR_RETURN(
      std::vector<Index> pred,
      ClusterIncomplete(method, x, observed, spatial_cols, options));
  return cluster::ClusteringAccuracy(truth, pred);
}

}  // namespace smfl::apps
