#include "src/spatial/knn.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/common/parallel.h"
#include "src/la/ops.h"

namespace smfl::spatial {

namespace {

// Max-heap entry ordering for the candidate set: farthest on top.
struct HeapLess {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;  // larger index considered "farther" on ties
  }
};

void SortResult(std::vector<Neighbor>& out) {
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;
  });
}

}  // namespace

std::vector<Neighbor> BruteForceKnn(const Matrix& points,
                                    std::span<const double> query, Index k,
                                    Index exclude) {
  SMFL_CHECK_EQ(static_cast<Index>(query.size()), points.cols());
  std::priority_queue<Neighbor, std::vector<Neighbor>, HeapLess> heap;
  for (Index i = 0; i < points.rows(); ++i) {
    if (i == exclude) continue;
    const double d = std::sqrt(la::SquaredDistance(points.Row(i), query));
    if (static_cast<Index>(heap.size()) < k) {
      heap.push({i, d});
    } else if (!heap.empty() && HeapLess{}({i, d}, heap.top())) {
      heap.pop();
      heap.push({i, d});
    }
  }
  std::vector<Neighbor> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  SortResult(out);
  return out;
}

Result<KdTree> KdTree::Build(const Matrix& points) {
  if (points.rows() == 0 || points.cols() == 0) {
    return Status::InvalidArgument("KdTree: empty point set");
  }
  KdTree tree(points);
  std::vector<Index> rows(static_cast<size_t>(points.rows()));
  for (Index i = 0; i < points.rows(); ++i) rows[static_cast<size_t>(i)] = i;
  tree.nodes_.reserve(rows.size());
  tree.root_ = tree.BuildRecursive(rows, 0, points.rows(), 0);
  return tree;
}

Index KdTree::BuildRecursive(std::vector<Index>& rows, Index lo, Index hi,
                             Index depth) {
  if (lo >= hi) return -1;
  const Index axis = depth % points_->cols();
  const Index mid = lo + (hi - lo) / 2;
  std::nth_element(rows.begin() + lo, rows.begin() + mid, rows.begin() + hi,
                   [&](Index a, Index b) {
                     return (*points_)(a, axis) < (*points_)(b, axis);
                   });
  const Index node_id = static_cast<Index>(nodes_.size());
  nodes_.push_back({rows[static_cast<size_t>(mid)], axis, -1, -1});
  // Children are built after the push; indices are stable because we only
  // append.
  const Index left = BuildRecursive(rows, lo, mid, depth + 1);
  const Index right = BuildRecursive(rows, mid + 1, hi, depth + 1);
  nodes_[static_cast<size_t>(node_id)].left = left;
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

std::vector<Neighbor> KdTree::Query(std::span<const double> query, Index k,
                                    Index exclude) const {
  SMFL_CHECK_EQ(static_cast<Index>(query.size()), points_->cols());
  SMFL_CHECK_GT(k, 0);
  std::priority_queue<Neighbor, std::vector<Neighbor>, HeapLess> heap;

  // Recursive descent with hyperplane pruning; depth is O(log n) for the
  // balanced build, so stack use is bounded.
  auto visit = [&](auto&& self, Index node_id) -> void {
    if (node_id < 0) return;
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    const Index p = node.point;
    if (p != exclude) {
      const double d =
          std::sqrt(la::SquaredDistance(points_->Row(p), query));
      if (static_cast<Index>(heap.size()) < k) {
        heap.push({p, d});
      } else if (HeapLess{}({p, d}, heap.top())) {
        heap.pop();
        heap.push({p, d});
      }
    }
    const double delta = query[static_cast<size_t>(node.axis)] -
                         (*points_)(p, node.axis);
    const Index near = delta <= 0 ? node.left : node.right;
    const Index far = delta <= 0 ? node.right : node.left;
    self(self, near);
    // Only descend into the far half-space if it can still contain a point
    // that beats the current k-th best: a closer one, or one at the same
    // distance with a smaller index (BruteForceKnn's tie order).
    if (static_cast<Index>(heap.size()) < k ||
        std::fabs(delta) <= heap.top().distance) {
      self(self, far);
    }
  };
  visit(visit, root_);

  std::vector<Neighbor> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  SortResult(out);
  return out;
}

Result<std::vector<std::vector<Neighbor>>> AllKnn(const Matrix& points,
                                                  Index k) {
  if (points.rows() == 0) {
    return Status::InvalidArgument("AllKnn: empty point set");
  }
  std::vector<std::vector<Neighbor>> out(static_cast<size_t>(points.rows()));
  // Each point's neighbor list is computed independently, so the queries
  // parallelize over point chunks with no effect on the result.
  constexpr Index kQueryGrain = 32;
  // Brute force is faster below a few hundred points; KD-tree beyond.
  constexpr Index kBruteForceCutoff = 256;
  if (points.rows() <= kBruteForceCutoff) {
    parallel::ParallelFor(0, points.rows(), kQueryGrain,
                          [&](Index r0, Index r1) {
                            for (Index i = r0; i < r1; ++i) {
                              out[static_cast<size_t>(i)] =
                                  BruteForceKnn(points, points.Row(i), k, i);
                            }
                          });
    return out;
  }
  ASSIGN_OR_RETURN(KdTree tree, KdTree::Build(points));
  parallel::ParallelFor(0, points.rows(), kQueryGrain,
                        [&](Index r0, Index r1) {
                          for (Index i = r0; i < r1; ++i) {
                            out[static_cast<size_t>(i)] = tree.QueryRow(i, k);
                          }
                        });
  return out;
}

}  // namespace smfl::spatial
