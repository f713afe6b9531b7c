#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/la/ops.h"
#include "src/la/simd.h"
#include "src/spatial/graph.h"
#include "src/spatial/knn.h"
#include "src/spatial/metrics.h"

namespace smfl::spatial {
namespace {

Matrix RandomPoints(Index n, Index dims, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dims);
  for (Index i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
  return m;
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, HaversineZeroForSamePoint) {
  EXPECT_NEAR(HaversineKm(45.0, 130.0, 45.0, 130.0), 0.0, 1e-9);
}

TEST(MetricsTest, HaversineKnownDistance) {
  // One degree of latitude ~ 111.2 km.
  EXPECT_NEAR(HaversineKm(45.0, 130.0, 46.0, 130.0), 111.2, 1.0);
}

TEST(MetricsTest, HaversineSymmetric) {
  const double d1 = HaversineKm(40.7, -74.0, 51.5, -0.1);
  const double d2 = HaversineKm(51.5, -0.1, 40.7, -74.0);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_NEAR(d1, 5570.0, 60.0);  // NYC-London
}

// ---------------------------------------------------------------- kNN

TEST(BruteForceKnnTest, FindsExactNeighbors) {
  Matrix points{{0, 0}, {1, 0}, {5, 0}, {0.5, 0}};
  std::vector<double> query{0.0, 0.0};
  auto nn = BruteForceKnn(points, query, 2, /*exclude=*/0);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].index, 3);
  EXPECT_EQ(nn[1].index, 1);
}

TEST(BruteForceKnnTest, KLargerThanPoints) {
  Matrix points{{0, 0}, {1, 1}};
  auto nn = BruteForceKnn(points, points.Row(0), 10, 0);
  EXPECT_EQ(nn.size(), 1u);
}

// Parameterized oracle check: KdTree must agree with brute force over many
// sizes, dimensions, and k.
class KdTreeOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KdTreeOracleTest, MatchesBruteForce) {
  const auto [n, dims, k] = GetParam();
  Matrix points = RandomPoints(n, dims, 1000 + n + dims * 31 + k);
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  for (Index q = 0; q < std::min<Index>(n, 25); ++q) {
    auto expected = BruteForceKnn(points, points.Row(q), k, q);
    auto actual = tree->QueryRow(q, k);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-12)
          << "query " << q << " neighbor " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KdTreeOracleTest,
    ::testing::Values(std::make_tuple(1, 2, 1), std::make_tuple(10, 2, 3),
                      std::make_tuple(100, 2, 5), std::make_tuple(500, 2, 3),
                      std::make_tuple(100, 3, 4), std::make_tuple(300, 5, 7),
                      std::make_tuple(50, 1, 2),
                      std::make_tuple(1000, 2, 10)));

TEST(KdTreeTest, DuplicatePointsHandled) {
  Matrix points(20, 2, 0.5);  // all identical
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  auto nn = tree->QueryRow(0, 5);
  ASSERT_EQ(nn.size(), 5u);
  for (const auto& n : nn) {
    EXPECT_DOUBLE_EQ(n.distance, 0.0);
    EXPECT_NE(n.index, 0);
  }
}

TEST(KdTreeTest, RejectsEmpty) { EXPECT_FALSE(KdTree::Build(Matrix()).ok()); }

TEST(AllKnnTest, SmallAndLargeAgree) {
  // Cross-check the brute-force path (n <= 256) and the kd-tree path
  // (n > 256) against each other on overlapping data.
  Matrix points = RandomPoints(300, 2, 77);
  auto all = AllKnn(points, 3);
  ASSERT_TRUE(all.ok());
  for (Index i = 0; i < 20; ++i) {
    auto expected = BruteForceKnn(points, points.Row(i), 3, i);
    ASSERT_EQ((*all)[static_cast<size_t>(i)].size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_NEAR((*all)[static_cast<size_t>(i)][j].distance,
                  expected[j].distance, 1e-12);
    }
  }
}

// On an integer grid most k-th neighbours tie with others at the same
// distance; the kd-tree path must break those ties by index exactly as
// brute force does, or the p-NN graph would depend on the row count.
TEST(AllKnnTest, GridTiesBreakLikeBruteForce) {
  constexpr Index kSide = 20;  // 400 rows: the kd-tree path
  Matrix points(kSide * kSide, 2);
  for (Index i = 0; i < points.rows(); ++i) {
    points(i, 0) = static_cast<double>(i / kSide);
    points(i, 1) = static_cast<double>(i % kSide);
  }
  auto all = AllKnn(points, 3);
  ASSERT_TRUE(all.ok());
  for (Index i = 0; i < points.rows(); ++i) {
    EXPECT_EQ((*all)[static_cast<size_t>(i)],
              BruteForceKnn(points, points.Row(i), 3, i))
        << "row " << i;
  }
}

// ---------------------------------------------------------------- graph

TEST(NeighborGraphTest, RejectsBadP) {
  Matrix points = RandomPoints(10, 2, 5);
  EXPECT_FALSE(NeighborGraph::Build(points, 0).ok());
  EXPECT_FALSE(NeighborGraph::Build(points, 10).ok());
  EXPECT_TRUE(NeighborGraph::Build(points, 9).ok());
}

TEST(NeighborGraphTest, SymmetricNoSelfLoops) {
  Matrix points = RandomPoints(50, 2, 9);
  auto g = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(g.ok());
  Matrix d = g->DenseD();
  for (Index i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (Index j = 0; j < 50; ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(NeighborGraphTest, ImplementsFormula3) {
  // d_ij = 1 iff i in NN_p(j) or j in NN_p(i).
  Matrix points = RandomPoints(40, 2, 11);
  const Index p = 3;
  auto g = NeighborGraph::Build(points, p);
  ASSERT_TRUE(g.ok());
  auto knn = AllKnn(points, p);
  ASSERT_TRUE(knn.ok());
  Matrix expected(40, 40);
  for (Index i = 0; i < 40; ++i) {
    for (const Neighbor& nb : (*knn)[static_cast<size_t>(i)]) {
      expected(i, nb.index) = 1.0;
      expected(nb.index, i) = 1.0;
    }
  }
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(g->DenseD(), expected), 0.0);
}

TEST(NeighborGraphTest, DegreeMatchesAdjacency) {
  Matrix points = RandomPoints(30, 2, 13);
  auto g = NeighborGraph::Build(points, 2);
  ASSERT_TRUE(g.ok());
  Matrix d = g->DenseD();
  for (Index i = 0; i < 30; ++i) {
    double row_sum = 0.0;
    for (Index j = 0; j < 30; ++j) row_sum += d(i, j);
    EXPECT_DOUBLE_EQ(g->Degree(i), row_sum);
  }
}

TEST(NeighborGraphTest, SparseProductsMatchDense) {
  Matrix points = RandomPoints(60, 2, 17);
  auto g = NeighborGraph::Build(points, 4);
  ASSERT_TRUE(g.ok());
  Matrix u = RandomPoints(60, 5, 19);
  EXPECT_LT(la::MaxAbsDiff(g->MultiplyD(u), g->DenseD() * u), 1e-10);
  EXPECT_LT(la::MaxAbsDiff(g->MultiplyW(u), g->DenseW() * u), 1e-10);
}

TEST(NeighborGraphTest, LaplacianQuadraticFormMatchesTrace) {
  Matrix points = RandomPoints(40, 2, 23);
  auto g = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(g.ok());
  Matrix u = RandomPoints(40, 4, 29);
  const double via_edges = g->LaplacianQuadraticForm(u);
  const double via_trace = la::Trace(la::MatMulAtB(u, g->DenseL() * u));
  EXPECT_NEAR(via_edges, via_trace, 1e-8);
}

TEST(NeighborGraphTest, LaplacianPsd) {
  // Tr(UᵀLU) >= 0 for any U, and 0 for constant U (rows all equal).
  Matrix points = RandomPoints(25, 2, 31);
  auto g = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(g.ok());
  Matrix random_u = RandomPoints(25, 3, 37);
  EXPECT_GE(g->LaplacianQuadraticForm(random_u), 0.0);
  Matrix constant_u(25, 3, 1.0);
  EXPECT_NEAR(g->LaplacianQuadraticForm(constant_u), 0.0, 1e-12);
}

TEST(NeighborGraphTest, EdgeCountConsistent) {
  Matrix points = RandomPoints(35, 2, 41);
  auto g = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(g.ok());
  Index total_degree = 0;
  for (Index i = 0; i < 35; ++i) {
    total_degree += static_cast<Index>(g->Degree(i));
  }
  EXPECT_EQ(total_degree, 2 * g->num_edges());
}

TEST(NeighborGraphTest, TwoPointsGraph) {
  Matrix points{{0.0, 0.0}, {1.0, 1.0}};
  auto g = NeighborGraph::Build(points, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_DOUBLE_EQ(g->Degree(0), 1.0);
}

// The CSR adjacency against lists written out from the definition: after
// Build (Formula 3's symmetric p-NN relation), after a batch edge add
// (existing pairs keep their edge, a repeated pair keeps its first weight,
// self loops are dropped) and after heat-kernel re-weighting, vertex i's
// NeighborsOf is the sorted list of its targets with their weights, and
// the degrees and edge count follow it.
TEST(NeighborGraphTest, CsrListsMatchSortedReferenceAfterEveryMutation) {
  constexpr Index n = 70;
  Matrix points = RandomPoints(n, 2, 43);
  auto g = NeighborGraph::Build(points, 3);
  ASSERT_TRUE(g.ok());
  auto knn = AllKnn(points, 3);
  ASSERT_TRUE(knn.ok());
  std::vector<std::map<Index, double>> ref(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    for (const Neighbor& nb : (*knn)[static_cast<size_t>(i)]) {
      ref[static_cast<size_t>(i)][nb.index] = 1.0;
      ref[static_cast<size_t>(nb.index)][i] = 1.0;
    }
  }
  const auto expect_lists = [&](const std::string& stage) {
    Index directed = 0;
    for (Index i = 0; i < n; ++i) {
      std::vector<NeighborGraph::Edge> want;
      double degree = 0.0;
      for (const auto& [to, weight] : ref[static_cast<size_t>(i)]) {
        want.push_back({to, weight});
        degree += weight;
      }
      directed += static_cast<Index>(want.size());
      ASSERT_EQ(g->NeighborsOf(i), want) << stage << " vertex " << i;
      ASSERT_EQ(g->Degree(i), degree) << stage << " vertex " << i;
    }
    ASSERT_EQ(g->num_edges(), directed / 2) << stage;
  };
  expect_lists("after Build");

  const Index existing = ref[5].begin()->first;
  const std::vector<Triplet> batch = {
      {0, 69, 0.25}, {69, 0, 0.5},  // repeated pair: the first weight wins
      {3, 3, 9.0},                  // self loop: dropped
      {5, existing, 7.0},           // already an edge: kept as it was
      {10, 50, 0.75}};
  for (const Triplet& t : batch) {
    if (t.row == t.col) continue;
    ref[static_cast<size_t>(t.row)].emplace(t.col, t.value);
    ref[static_cast<size_t>(t.col)].emplace(t.row, t.value);
  }
  g->AddSymmetricEdges(batch);
  expect_lists("after AddSymmetricEdges");

  // Heat weights: the bandwidth is the mean edge length over the edges
  // i < j in (i, j) order, the weights exp(-d² / (2σ²)).
  double total = 0.0;
  Index count = 0;
  for (Index i = 0; i < n; ++i) {
    for (const auto& [to, weight] : ref[static_cast<size_t>(i)]) {
      if (to <= i) continue;
      total += std::sqrt(la::SquaredDistance(points.Row(i), points.Row(to)));
      ++count;
    }
  }
  const double sigma = std::max(total / static_cast<double>(count), 1e-12);
  EXPECT_EQ(g->MeanEdgeLength(points), sigma);
  for (Index i = 0; i < n; ++i) {
    for (auto& [to, weight] : ref[static_cast<size_t>(i)]) {
      weight = NeighborGraph::HeatKernelWeight(
          la::SquaredDistance(points.Row(i), points.Row(to)), sigma);
    }
  }
  ASSERT_TRUE(g->ApplyHeatKernelWeights(points).ok());
  expect_lists("after ApplyHeatKernelWeights");
}

// LaplacianQuadraticForm against its summation order written out: each
// 64-vertex chunk sums w_ij·||u_i − u_j||² over its upper-triangle edges
// in (i, j) order, each squared distance an ascending-column chain from
// +0.0, and the chunk totals join in order — on the scalar and the vector
// tier, at one and four threads. The graph spans three chunks and has
// edges across their boundaries.
TEST(NeighborGraphTest, LaplacianQuadraticFormIsTheChunkedFlatSum) {
  constexpr Index n = 150, kChunk = 64;
  Matrix points = RandomPoints(n, 2, 47);
  auto g = NeighborGraph::Build(points, 4);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g->ApplyHeatKernelWeights(points).ok());
  // Small entries with a unit offset on every 7th: a few large squared
  // distances among many small ones, so reordering the adds of even one
  // group of four edges changes the low bits of the total.
  Matrix u = RandomPoints(n, 7, 53);
  for (Index i = 0; i < u.size(); ++i) {
    u.data()[i] = u.data()[i] * 1e-3 + (i % 7 == 0 ? 1.0 : 0.0);
  }
  double expected = 0.0;
  Index crossing = 0;
  for (Index c0 = 0; c0 < n; c0 += kChunk) {
    double chunk = 0.0;
    for (Index i = c0; i < std::min(c0 + kChunk, n); ++i) {
      for (const NeighborGraph::Edge& e : g->NeighborsOf(i)) {
        if (e.to <= i) continue;
        crossing += e.to >= c0 + kChunk ? 1 : 0;
        double d2 = 0.0;
        for (Index c = 0; c < u.cols(); ++c) {
          const double diff = u(i, c) - u(e.to, c);
          d2 += diff * diff;
        }
        chunk += e.weight * d2;
      }
    }
    expected += chunk;
  }
  ASSERT_GT(crossing, 0);
  for (const int tier : {0, 1}) {
    la::simd::ScopedSimd scoped_tier(tier);
    for (const int threads : {1, 4}) {
      parallel::ScopedParallelism scoped(threads);
      EXPECT_EQ(g->LaplacianQuadraticForm(u), expected)
          << threads << " threads, " << la::simd::TierName(la::simd::ActiveTier());
    }
  }
}

}  // namespace
}  // namespace smfl::spatial
