// k-nearest-neighbor queries over the rows of a point matrix.
//
// KdTree is the production index (O(log n) expected per query for low
// dimension, which spatial information always is); BruteForceKnn is the
// oracle used by tests and by callers with tiny inputs.

#ifndef SMFL_SPATIAL_KNN_H_
#define SMFL_SPATIAL_KNN_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/la/matrix.h"

namespace smfl::spatial {

using la::Index;
using la::Matrix;

struct Neighbor {
  Index index = -1;
  double distance = 0.0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.index == b.index && a.distance == b.distance;
  }
};

// Exact k-NN by scanning all rows. `exclude` (usually the query's own row)
// is skipped when >= 0. Results sorted by ascending distance, ties by index.
std::vector<Neighbor> BruteForceKnn(const Matrix& points,
                                    std::span<const double> query, Index k,
                                    Index exclude = -1);

// Balanced KD-tree over matrix rows. The tree keeps a reference to the
// point matrix; it must outlive the tree.
class KdTree {
 public:
  // Builds in O(n log n). Fails on empty input.
  static Result<KdTree> Build(const Matrix& points);

  // k nearest rows to `query`, optionally excluding one row index.
  std::vector<Neighbor> Query(std::span<const double> query, Index k,
                              Index exclude = -1) const;

  // k nearest other rows to row i (self excluded).
  std::vector<Neighbor> QueryRow(Index i, Index k) const {
    return Query(points_->Row(i), k, i);
  }

  Index size() const { return points_->rows(); }

 private:
  struct Node {
    Index point = -1;      // row index at this node
    Index axis = 0;        // split dimension
    Index left = -1;       // child node ids
    Index right = -1;
  };

  explicit KdTree(const Matrix& points) : points_(&points) {}

  Index BuildRecursive(std::vector<Index>& rows, Index lo, Index hi,
                       Index depth);

  const Matrix* points_;
  std::vector<Node> nodes_;
  Index root_ = -1;
};

// k-NN lists for every row (self excluded), via KdTree when n is large.
Result<std::vector<std::vector<Neighbor>>> AllKnn(const Matrix& points,
                                                  Index k);

}  // namespace smfl::spatial

#endif  // SMFL_SPATIAL_KNN_H_
