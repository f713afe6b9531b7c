#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/la/ops.h"
#include "src/spatial/graph.h"

namespace smfl::spatial {
namespace {

Matrix RandomPoints(Index n, uint64_t seed, Index dims = 2) {
  Rng rng(seed);
  Matrix points(n, dims);
  for (Index i = 0; i < points.size(); ++i) {
    points.data()[i] = rng.Uniform();
  }
  return points;
}

TEST(WeightedGraphTest, BinaryBuildHasUnitWeights) {
  Matrix points = RandomPoints(30, 3);
  auto graph = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(graph.ok());
  for (Index i = 0; i < 30; ++i) {
    for (const auto& e : graph->NeighborsOf(i)) {
      EXPECT_DOUBLE_EQ(e.weight, 1.0);
    }
  }
}

TEST(WeightedGraphTest, HeatKernelWeightsInUnitIntervalAndSymmetric) {
  Matrix points = RandomPoints(40, 5);
  auto graph = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->ApplyHeatKernelWeights(points).ok());
  Matrix d = graph->DenseD();
  for (Index i = 0; i < 40; ++i) {
    for (Index j = 0; j < 40; ++j) {
      EXPECT_GE(d(i, j), 0.0);
      EXPECT_LE(d(i, j), 1.0);
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(WeightedGraphTest, CloserEdgesGetLargerWeights) {
  // A line of points with uneven gaps: the short edge must outweigh the
  // long one.
  Matrix points{{0.0, 0.0}, {0.1, 0.0}, {1.0, 0.0}};
  auto graph = NeighborGraph::Build(points, 1);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->ApplyHeatKernelWeights(points).ok());
  Matrix d = graph->DenseD();
  EXPECT_GT(d(0, 1), d(1, 2));
}

TEST(WeightedGraphTest, DegreeIsWeightSumAndOperatorsConsistent) {
  Matrix points = RandomPoints(35, 7);
  auto graph = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->ApplyHeatKernelWeights(points, 0.2).ok());
  Matrix d = graph->DenseD();
  for (Index i = 0; i < 35; ++i) {
    double row_sum = 0.0;
    for (Index j = 0; j < 35; ++j) row_sum += d(i, j);
    EXPECT_NEAR(graph->Degree(i), row_sum, 1e-12);
  }
  // Sparse ops still agree with dense under weights.
  Matrix u = RandomPoints(35, 9);
  EXPECT_LT(la::MaxAbsDiff(graph->MultiplyD(u), d * u), 1e-10);
  EXPECT_LT(la::MaxAbsDiff(graph->MultiplyW(u), graph->DenseW() * u), 1e-10);
  const double via_edges = graph->LaplacianQuadraticForm(u);
  const double via_trace = la::Trace(la::MatMulAtB(u, graph->DenseL() * u));
  EXPECT_NEAR(via_edges, via_trace, 1e-8);
}

TEST(WeightedGraphTest, WeightedLaplacianStillPsd) {
  Matrix points = RandomPoints(25, 11);
  auto graph = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->ApplyHeatKernelWeights(points).ok());
  Matrix u = RandomPoints(25, 13);
  EXPECT_GE(graph->LaplacianQuadraticForm(u), 0.0);
  Matrix constant_u(25, 2, 1.0);
  EXPECT_NEAR(graph->LaplacianQuadraticForm(constant_u), 0.0, 1e-12);
}

TEST(WeightedGraphTest, Validation) {
  Matrix points = RandomPoints(10, 15);
  auto graph = NeighborGraph::Build(points, 2);
  ASSERT_TRUE(graph.ok());
  Matrix wrong(5, 2);
  EXPECT_FALSE(graph->ApplyHeatKernelWeights(wrong).ok());
}

TEST(WeightedGraphTest, SmflRunsWithHeatKernelWeighting) {
  auto dataset = data::MakeLakeLike(150, 17);
  ASSERT_TRUE(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Matrix truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.1;
  inject.seed = 19;
  auto injection = data::InjectMissing(dataset->table, inject);
  ASSERT_TRUE(injection.ok());
  Matrix input = data::ApplyMask(truth, injection->observed);

  core::SmflOptions options;
  options.graph_weighting = core::GraphWeighting::kHeatKernel;
  options.max_iterations = 60;
  options.tolerance = 0.0;
  auto model = core::FitSmfl(input, injection->observed, 2, options);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Reconstruct().HasNonFinite());
  // Monotonicity must hold for weighted Laplacians too (the convergence
  // proof only needs D nonnegative and W the degree matrix).
  const auto& trace = model->report.objective_trace;
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-9));
  }
}

// Rows with partially observed SI are attached to their p nearest complete
// rows by partial distance. A binary graph gives those edges weight 1; a
// heat-kernel graph gives them the kernel weight, with the p-NN edges'
// bandwidth, over the partial distance rescaled to the full
// dimensionality — never the maximal weight 1 a distance of 0 would get.
TEST(WeightedGraphTest, PartialSiAttachEdgesFollowTheGraphWeighting) {
  constexpr Index n = 40;
  Matrix x = RandomPoints(n, 61, 3);  // 2 spatial columns, 1 attribute
  data::Mask observed(n, 3);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < 3; ++j) observed.Set(i, j, true);
  }
  const std::vector<Index> partial = {5, 17};  // second coordinate missing
  std::vector<bool> complete(static_cast<size_t>(n), true);
  for (const Index i : partial) {
    observed.Set(i, 1, false);
    x(i, 1) = 0.0;
    complete[static_cast<size_t>(i)] = false;
  }
  core::SmflOptions options;
  options.num_neighbors = 3;

  auto binary = core::BuildSmflGraph(x, observed, 2, options);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  options.graph_weighting = core::GraphWeighting::kHeatKernel;
  auto heat = core::BuildSmflGraph(x, observed, 2, options);
  ASSERT_TRUE(heat.ok()) << heat.status().ToString();

  // The bandwidth of the complete rows' p-NN graph.
  const Matrix si = x.Block(0, 0, n, 2);
  auto complete_graph = NeighborGraph::Build(si, 3, complete);
  ASSERT_TRUE(complete_graph.ok());
  const double sigma = complete_graph->MeanEdgeLength(si);
  ASSERT_GT(sigma, 0.0);

  for (const Index i : partial) {
    const auto binary_edges = binary->NeighborsOf(i);
    const auto heat_edges = heat->NeighborsOf(i);
    ASSERT_EQ(binary_edges.size(), 3u) << "row " << i;
    ASSERT_EQ(heat_edges.size(), 3u) << "row " << i;
    for (size_t e = 0; e < heat_edges.size(); ++e) {
      EXPECT_EQ(binary_edges[e].to, heat_edges[e].to);
      EXPECT_EQ(binary_edges[e].weight, 1.0);
      const Index r = heat_edges[e].to;
      const double diff = x(i, 0) - x(r, 0);
      const double rescaled = diff * diff * 2.0;  // 2 of 2 dims / 1 observed
      EXPECT_EQ(heat_edges[e].weight,
                NeighborGraph::HeatKernelWeight(rescaled, sigma))
          << "row " << i << " to " << r;
      EXPECT_LT(heat_edges[e].weight, 1.0);
      // The edge is symmetric, with the same weight.
      bool found = false;
      for (const auto& back : heat->NeighborsOf(r)) {
        if (back.to != i) continue;
        found = true;
        EXPECT_EQ(back.weight, heat_edges[e].weight);
      }
      EXPECT_TRUE(found) << "row " << r << " lacks the edge to " << i;
    }
  }
}

// With a single complete row the p-NN graph has no edge to take the
// bandwidth from; the heat kernel then uses the attach edges' own mean
// (rescaled) length, and every weight stays finite and in (0, 1].
TEST(WeightedGraphTest, PartialSiAttachEdgesWithoutCompleteRowEdges) {
  constexpr Index n = 6;
  Matrix x = RandomPoints(n, 63, 3);
  data::Mask observed(n, 3);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < 3; ++j) observed.Set(i, j, i == 0 || j != 1);
  }
  core::SmflOptions options;
  options.rank = 2;
  options.graph_weighting = core::GraphWeighting::kHeatKernel;
  auto graph = core::BuildSmflGraph(x, observed, 2, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  double total = 0.0;
  for (Index i = 1; i < n; ++i) {
    const double diff = x(i, 0) - x(0, 0);
    total += std::sqrt(diff * diff * 2.0);
  }
  const double sigma = total / static_cast<double>(n - 1);
  for (Index i = 1; i < n; ++i) {
    const auto edges = graph->NeighborsOf(i);
    ASSERT_EQ(edges.size(), 1u) << "row " << i;
    EXPECT_EQ(edges[0].to, 0);
    const double diff = x(i, 0) - x(0, 0);
    EXPECT_EQ(edges[0].weight,
              NeighborGraph::HeatKernelWeight(diff * diff * 2.0, sigma));
    EXPECT_GT(edges[0].weight, 0.0);
    EXPECT_LE(edges[0].weight, 1.0);
  }
}

}  // namespace
}  // namespace smfl::spatial
