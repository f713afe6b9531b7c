#include "src/spatial/graph.h"

#include <algorithm>
#include <cmath>

#include "src/common/parallel.h"
#include "src/spatial/knn.h"
#include "src/la/ops.h"
#include "src/la/simd.h"

namespace {
// Vertex-chunk grain for the parallel graph products: each output row is
// owned by one chunk, so the static partition keeps results bitwise
// identical at any thread count (see common/parallel.h).
constexpr smfl::la::Index kVertexGrain = 64;
}  // namespace

namespace smfl::spatial {

Result<NeighborGraph> NeighborGraph::Build(const Matrix& si, Index p) {
  return Build(si, p,
               std::vector<bool>(static_cast<size_t>(si.rows()), true));
}

Result<NeighborGraph> NeighborGraph::Build(const Matrix& si, Index p,
                                           const std::vector<bool>& valid_rows) {
  const Index n = si.rows();
  if (n == 0) return Status::InvalidArgument("NeighborGraph: empty input");
  if (static_cast<Index>(valid_rows.size()) != n) {
    return Status::InvalidArgument("NeighborGraph: valid_rows size mismatch");
  }
  std::vector<Index> valid;
  for (Index i = 0; i < n; ++i) {
    if (valid_rows[static_cast<size_t>(i)]) valid.push_back(i);
  }
  NeighborGraph g;
  if (valid.size() < 2) {
    // Degenerate but legal: an edgeless graph (zero Laplacian term).
    g.Assign(n, {});
    return g;
  }
  if (p < 1 || p >= static_cast<Index>(valid.size())) {
    return Status::InvalidArgument(
        "NeighborGraph: p must be in [1, #valid-1], got p=" +
        std::to_string(p) + " with " + std::to_string(valid.size()) +
        " valid rows");
  }
  // k-NN among the valid rows only, then map back to original indices.
  Matrix valid_si(static_cast<Index>(valid.size()), si.cols());
  for (size_t v = 0; v < valid.size(); ++v) {
    for (Index j = 0; j < si.cols(); ++j) {
      valid_si(static_cast<Index>(v), j) = si(valid[v], j);
    }
  }
  ASSIGN_OR_RETURN(auto knn, AllKnn(valid_si, p));
  // Symmetrize: edge if either direction is a p-NN relation (weight 1,
  // Formula 3).
  std::vector<Triplet> directed;
  directed.reserve(2 * valid.size() * static_cast<size_t>(p));
  for (size_t v = 0; v < valid.size(); ++v) {
    const Index i = valid[v];
    for (const Neighbor& nb : knn[v]) {
      const Index j = valid[static_cast<size_t>(nb.index)];
      directed.push_back({i, j, 1.0});
      directed.push_back({j, i, 1.0});
    }
  }
  g.Assign(n, std::move(directed));
  return g;
}

void NeighborGraph::Assign(Index n, std::vector<Triplet> directed) {
  // Stable, so a repeated pair keeps the weight it was first given.
  std::stable_sort(directed.begin(), directed.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  directed.erase(std::unique(directed.begin(), directed.end(),
                             [](const Triplet& a, const Triplet& b) {
                               return a.row == b.row && a.col == b.col;
                             }),
                 directed.end());
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  targets_.clear();
  weights_.clear();
  targets_.reserve(directed.size());
  weights_.reserve(directed.size());
  upper_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  upper_from_.clear();
  upper_edge_.clear();
  for (const Triplet& t : directed) {
    ++offsets_[static_cast<size_t>(t.row) + 1];
    if (t.col > t.row) {
      ++upper_offsets_[static_cast<size_t>(t.row) + 1];
      upper_from_.push_back(t.row);
      upper_edge_.push_back(static_cast<Index>(targets_.size()));
    }
    targets_.push_back(t.col);
    weights_.push_back(t.value);
  }
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    offsets_[i + 1] += offsets_[i];
    upper_offsets_[i + 1] += upper_offsets_[i];
  }
  num_edges_ = static_cast<Index>(targets_.size()) / 2;
  degree_ = Vector(n);
  RecomputeDegrees();
}

void NeighborGraph::RecomputeDegrees() {
  for (Index i = 0; i < num_vertices(); ++i) {
    double acc = 0.0;
    for (Index e = offsets_[static_cast<size_t>(i)];
         e < offsets_[static_cast<size_t>(i) + 1]; ++e) {
      acc += weights_[static_cast<size_t>(e)];
    }
    degree_[i] = acc;
  }
}

std::vector<NeighborGraph::Edge> NeighborGraph::NeighborsOf(Index i) const {
  SMFL_CHECK(i >= 0 && i < num_vertices());
  std::vector<Edge> edges;
  for (Index e = offsets_[static_cast<size_t>(i)];
       e < offsets_[static_cast<size_t>(i) + 1]; ++e) {
    edges.push_back({targets_[static_cast<size_t>(e)],
                     weights_[static_cast<size_t>(e)]});
  }
  return edges;
}

double NeighborGraph::MeanEdgeLength(const Matrix& points) const {
  SMFL_CHECK_EQ(points.rows(), num_vertices());
  double total = 0.0;
  for (size_t u = 0; u < upper_edge_.size(); ++u) {
    const Index i = upper_from_[u];
    const Index j = targets_[static_cast<size_t>(upper_edge_[u])];
    total += std::sqrt(la::SquaredDistance(points.Row(i), points.Row(j)));
  }
  if (upper_edge_.empty()) return 0.0;
  return std::max(total / static_cast<double>(upper_edge_.size()), 1e-12);
}

double NeighborGraph::HeatKernelWeight(double d2, double sigma) {
  const double inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma);
  return std::exp(-d2 * inv_two_sigma2);
}

Status NeighborGraph::ApplyHeatKernelWeights(const Matrix& points,
                                             double sigma) {
  const Index n = num_vertices();
  if (points.rows() != n) {
    return Status::InvalidArgument(
        "ApplyHeatKernelWeights: point count mismatch");
  }
  if (sigma <= 0.0) {
    sigma = MeanEdgeLength(points);
    if (sigma <= 0.0) return Status::OK();  // edgeless graph: nothing to do
  }
  for (Index i = 0; i < n; ++i) {
    for (Index e = offsets_[static_cast<size_t>(i)];
         e < offsets_[static_cast<size_t>(i) + 1]; ++e) {
      const double d2 = la::SquaredDistance(
          points.Row(i), points.Row(targets_[static_cast<size_t>(e)]));
      weights_[static_cast<size_t>(e)] = HeatKernelWeight(d2, sigma);
    }
  }
  RecomputeDegrees();
  return Status::OK();
}

void NeighborGraph::AddSymmetricEdges(std::span<const Triplet> edges) {
  const Index n = num_vertices();
  std::vector<Triplet> directed;
  directed.reserve(targets_.size() + 2 * edges.size());
  // The existing edges first, so a stable sort keeps their weights.
  for (Index i = 0; i < n; ++i) {
    for (Index e = offsets_[static_cast<size_t>(i)];
         e < offsets_[static_cast<size_t>(i) + 1]; ++e) {
      directed.push_back({i, targets_[static_cast<size_t>(e)],
                          weights_[static_cast<size_t>(e)]});
    }
  }
  for (const Triplet& t : edges) {
    SMFL_CHECK(t.row >= 0 && t.row < n);
    SMFL_CHECK(t.col >= 0 && t.col < n);
    if (t.row == t.col) continue;
    directed.push_back({t.row, t.col, t.value});
    directed.push_back({t.col, t.row, t.value});
  }
  Assign(n, std::move(directed));
}

Matrix NeighborGraph::MultiplyD(const Matrix& u) const {
  SMFL_CHECK_EQ(u.rows(), num_vertices());
  Matrix out(u.rows(), u.cols());
  parallel::ParallelFor(0, u.rows(), kVertexGrain, [&](Index r0, Index r1) {
    for (Index i = r0; i < r1; ++i) {
      auto out_row = out.Row(i);
      for (Index e = offsets_[static_cast<size_t>(i)];
           e < offsets_[static_cast<size_t>(i) + 1]; ++e) {
        const double w = weights_[static_cast<size_t>(e)];
        auto u_row = u.Row(targets_[static_cast<size_t>(e)]);
        for (Index c = 0; c < u.cols(); ++c) {
          out_row[c] += w * u_row[c];
        }
      }
    }
  });
  return out;
}

Matrix NeighborGraph::MultiplyW(const Matrix& u) const {
  SMFL_CHECK_EQ(u.rows(), num_vertices());
  Matrix out(u.rows(), u.cols());
  parallel::ParallelFor(0, u.rows(), kVertexGrain, [&](Index r0, Index r1) {
    for (Index i = r0; i < r1; ++i) {
      const double d = degree_[i];
      auto u_row = u.Row(i);
      auto out_row = out.Row(i);
      for (Index c = 0; c < u.cols(); ++c) out_row[c] = d * u_row[c];
    }
  });
  return out;
}

double NeighborGraph::LaplacianQuadraticForm(const Matrix& u) const {
  SMFL_CHECK_EQ(u.rows(), num_vertices());
  la::simd::LaplacianEdges edges;
  edges.k = u.cols();
  edges.u = u.data();
  edges.from = upper_from_.data();
  edges.edge = upper_edge_.data();
  edges.targets = targets_.data();
  edges.weights = weights_.data();
  // Resolved on the calling thread so a ScopedSimd override reaches the
  // pool workers (la/simd.h, dispatch resolution).
  const la::simd::Kernels& ker = la::simd::Active();
  // Per-chunk partials combined in ascending chunk order: deterministic
  // at any thread count (though chunking may reorder sums vs. a single
  // serial accumulator, the order is fixed by the partition alone). A
  // chunk's upper-triangle edges are one flat range for the kernel.
  return parallel::ParallelReduce(
      0, u.rows(), kVertexGrain, [&](Index r0, Index r1) {
        return ker.laplacian_edges(edges,
                                   upper_offsets_[static_cast<size_t>(r0)],
                                   upper_offsets_[static_cast<size_t>(r1)]);
      });
}

Matrix NeighborGraph::DenseD() const {
  const Index n = num_vertices();
  Matrix d(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index e = offsets_[static_cast<size_t>(i)];
         e < offsets_[static_cast<size_t>(i) + 1]; ++e) {
      d(i, targets_[static_cast<size_t>(e)]) = weights_[static_cast<size_t>(e)];
    }
  }
  return d;
}

Matrix NeighborGraph::DenseW() const {
  const Index n = num_vertices();
  Matrix w(n, n);
  for (Index i = 0; i < n; ++i) w(i, i) = degree_[i];
  return w;
}

Matrix NeighborGraph::DenseL() const {
  Matrix l = DenseW();
  l -= DenseD();
  return l;
}

}  // namespace smfl::spatial
