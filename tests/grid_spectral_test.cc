// Spectral clustering over p-NN graphs: blob separation, the Laplacian
// eigenvalues it reports, and input validation.

#include <gtest/gtest.h>

#include "src/cluster/hungarian.h"
#include "src/cluster/spectral.h"
#include "src/common/rng.h"

namespace smfl {
namespace {

using la::Index;
using la::Matrix;

Matrix RandomPoints(Index n, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, 2);
  for (Index i = 0; i < points.size(); ++i) {
    points.data()[i] = rng.Uniform();
  }
  return points;
}

// ---------------------------------------------------------------- spectral

TEST(SpectralTest, SeparatesTwoBlobs) {
  Rng rng(13);
  Matrix points(60, 2);
  std::vector<Index> truth(60);
  for (Index i = 0; i < 60; ++i) {
    const bool second = i >= 30;
    truth[static_cast<size_t>(i)] = second ? 1 : 0;
    points(i, 0) = (second ? 10.0 : 0.0) + rng.Normal(0.0, 0.3);
    points(i, 1) = rng.Normal(0.0, 0.3);
  }
  auto graph = spatial::NeighborGraph::Build(points, 4);
  ASSERT_TRUE(graph.ok());
  cluster::SpectralOptions options;
  options.k = 2;
  auto result = cluster::SpectralClustering(*graph, options);
  ASSERT_TRUE(result.ok());
  auto acc = cluster::ClusteringAccuracy(truth, result->assignments);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
  // Two well-separated blobs -> two (near-)zero Laplacian eigenvalues.
  EXPECT_NEAR(result->eigenvalues[0], 0.0, 1e-9);
  EXPECT_NEAR(result->eigenvalues[1], 0.0, 1e-9);
}

TEST(SpectralTest, EigenvaluesNonNegativeAscending) {
  Matrix points = RandomPoints(40, 17);
  auto graph = spatial::NeighborGraph::Build(points, 3);
  ASSERT_TRUE(graph.ok());
  cluster::SpectralOptions options;
  options.k = 5;
  auto result = cluster::SpectralClustering(*graph, options);
  ASSERT_TRUE(result.ok());
  for (Index i = 0; i < 5; ++i) {
    EXPECT_GE(result->eigenvalues[i], -1e-9);
    if (i > 0) {
      EXPECT_GE(result->eigenvalues[i], result->eigenvalues[i - 1]);
    }
  }
}

TEST(SpectralTest, Validation) {
  Matrix points = RandomPoints(10, 19);
  auto graph = spatial::NeighborGraph::Build(points, 2);
  ASSERT_TRUE(graph.ok());
  cluster::SpectralOptions options;
  options.k = 0;
  EXPECT_FALSE(cluster::SpectralClustering(*graph, options).ok());
  options.k = 11;
  EXPECT_FALSE(cluster::SpectralClustering(*graph, options).ok());
}

}  // namespace
}  // namespace smfl
