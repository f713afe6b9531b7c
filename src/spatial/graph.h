// The paper's spatial similarity structures (§II-C):
//   D: symmetric p-NN adjacency over spatial information (Formula 3),
//   W: diagonal degree matrix (Formula 4),
//   L = W - D: graph Laplacian.
//
// NeighborGraph stores D in compressed sparse rows (offsets, targets,
// weights; each vertex's neighbours ascending), built eagerly by every
// mutation and read-only afterwards, so the products D*U and W*U that the
// multiplicative update (Formula 13) needs run in O(|E|·K) over flat arrays
// that any number of workers may read. Dense forms exist for tests and
// small problems.
//
// Edges carry weights. The paper's Formula 3 is binary (weight 1), which is
// what Build produces; ApplyHeatKernelWeights re-weights the same topology
// with w_ij = exp(-d_ij^2 / (2 sigma^2)) — the GNMF-style similarity the
// paper's related work ([9]) uses — for the weighted-Laplacian extension.

#ifndef SMFL_SPATIAL_GRAPH_H_
#define SMFL_SPATIAL_GRAPH_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/la/matrix.h"

namespace smfl::spatial {

using la::Index;
using la::Matrix;
using la::Vector;

// One weighted (row, col) pair: an edge to add to a graph, or a directed
// CSR entry while the arrays are rebuilt.
struct Triplet {
  Index row = 0;
  Index col = 0;
  double value = 0.0;
};

class NeighborGraph {
 public:
  // Builds the symmetric p-NN graph over the rows of `si` (the spatial
  // information block). Edge (i, j) exists iff i is among j's p nearest
  // neighbors or vice versa; no self loops. p must be in [1, n-1].
  static Result<NeighborGraph> Build(const Matrix& si, Index p);

  // Same, but rows with valid_rows[i] == false are isolated (no edges).
  // Used when some rows' spatial information is unobserved/dirty: a
  // mean-filled location would wire those rows to arbitrary map-center
  // neighbors, so they are excluded from the smoothness term instead.
  // p must be in [1, (#valid rows) - 1]; with fewer than 2 valid rows the
  // graph is edgeless.
  static Result<NeighborGraph> Build(const Matrix& si, Index p,
                                     const std::vector<bool>& valid_rows);

  // Adds the undirected edge {row, col} with weight `value` for every
  // triplet, in one rebuild of the CSR arrays. A pair already in the graph
  // keeps its edge, a pair repeated in the batch keeps its first weight,
  // and self loops are ignored. Used to attach rows with partially
  // observed spatial information to their partial-distance neighbors
  // after the main Build.
  void AddSymmetricEdges(std::span<const Triplet> edges);

  // Replaces every edge's weight with HeatKernelWeight(d_ij^2, sigma)
  // computed from the point coordinates; sigma <= 0 picks
  // MeanEdgeLength(points). Degrees are recomputed. `points` must have
  // num_vertices() rows.
  Status ApplyHeatKernelWeights(const Matrix& points, double sigma = 0.0);

  // The bandwidth ApplyHeatKernelWeights picks when sigma <= 0: the mean
  // Euclidean edge length over `points`, floored at 1e-12; 0 for an
  // edgeless graph.
  double MeanEdgeLength(const Matrix& points) const;

  // exp(-d2 / (2 sigma^2)): the heat-kernel weight of an edge whose
  // endpoints lie d2 apart in squared distance.
  static double HeatKernelWeight(double d2, double sigma);

  Index num_vertices() const { return degree_.size(); }
  Index num_edges() const { return num_edges_; }

  // One weighted edge endpoint.
  struct Edge {
    Index to = 0;
    double weight = 1.0;

    friend bool operator==(const Edge& a, const Edge& b) {
      return a.to == b.to && a.weight == b.weight;
    }
  };

  // Vertex i's edges, ascending by target (a copy of its CSR slice).
  std::vector<Edge> NeighborsOf(Index i) const;

  // The CSR arrays: vertex i's neighbours are Targets()[Offsets()[i] ..
  // Offsets()[i + 1]), ascending, with their weights at the same positions
  // of Weights(). Offsets() has num_vertices() + 1 entries.
  std::span<const Index> Offsets() const { return offsets_; }
  std::span<const Index> Targets() const { return targets_; }
  std::span<const double> Weights() const { return weights_; }

  // Vertex degree d_i = w_ii (sum of incident edge weights).
  double Degree(Index i) const { return degree_[i]; }
  std::span<const double> Degrees() const { return degree_.values(); }

  // (D U): for each row i, the sum of U rows over i's neighbors.
  Matrix MultiplyD(const Matrix& u) const;

  // (W U): row i of U scaled by its degree.
  Matrix MultiplyW(const Matrix& u) const;

  // Tr(Uᵀ L U) = ½ Σ_{ij} d_ij ||u_i − u_j||² — the spatial regularizer
  // O_SR(U), computed edge-wise without forming L. Each 64-vertex chunk
  // sums its upper-triangle edges (i < j, in CSR order) as one flat range
  // through the la::simd laplacian_edges kernel, d_ij·||u_i − u_j||² per
  // edge with the squared distance an ascending-column chain from +0.0;
  // the chunk totals then join in order, so the value is the same at any
  // thread count and on any SIMD tier.
  double LaplacianQuadraticForm(const Matrix& u) const;

  // Dense D / W / L for verification and small-scale math.
  Matrix DenseD() const;
  Matrix DenseW() const;
  Matrix DenseL() const;

 private:
  // Rebuilds every array from directed (from, to, weight) entries: sorts
  // them by (from, to), keeps the first of each repeated pair, and fills
  // the CSR, the upper-triangle list and the degrees.
  void Assign(Index n, std::vector<Triplet> directed);
  void RecomputeDegrees();

  std::vector<Index> offsets_{0};  // num_vertices() + 1
  std::vector<Index> targets_;     // ascending within each vertex
  std::vector<double> weights_;    // parallel to targets_
  // The upper-triangle edges (from < to) in CSR order, for the
  // LaplacianQuadraticForm: vertex i's at [upper_offsets_[i],
  // upper_offsets_[i + 1]), as positions into targets_ / weights_.
  std::vector<Index> upper_offsets_{0};
  std::vector<Index> upper_from_;
  std::vector<Index> upper_edge_;
  Vector degree_;
  Index num_edges_ = 0;
};

}  // namespace smfl::spatial

#endif  // SMFL_SPATIAL_GRAPH_H_
