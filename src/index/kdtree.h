// k-d tree over multi-dimensional points with range / radius / kNN search.
//
// Used by the big-data-less operators (paper RT2): a per-node k-d tree lets
// the coordinator surgically retrieve only the tuples inside a queried
// subspace instead of scanning the partition. Every query reports how many
// tree nodes and points it visited so the cluster accounting stays honest.
//
// Layout: flat. Points live in leaf ("slot") order — slot s holds the
// coordinates coords_[s*d .. s*d+d) and the caller's id ids_[s]; every node
// owns the contiguous slot range [begin, end) of its subtree, and the node
// bounds sit in one flat array. There are no per-point or per-node heap
// vectors. Nodes are stored in preorder (self, left subtree, right
// subtree), a pure function of the point count.
//
// Traversal contract (kept bit-for-bit across layouts, so index-backed
// aggregates add the same values in the same order): one right-first
// depth-first walk — the right child is visited before the left, and a
// leaf's slots ascend. A node wholly inside the query geometry skips the
// per-point test; a visitor may take such a subtree in O(1) (see
// visit_range), which still charges the subtree's nodes and points to
// KdQueryCost exactly as visiting them would.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "data/point.h"

namespace sea {

class Table;

struct KdQueryCost {
  std::uint64_t nodes_visited = 0;
  std::uint64_t points_examined = 0;
};

class KdTree {
 public:
  KdTree() = default;

  /// Builds over `points` (copied); `ids[i]` is the caller's identifier for
  /// points[i] (e.g. a row index). ids may be empty => identity ids.
  KdTree(std::vector<Point> points, std::vector<std::uint64_t> ids = {});

  /// Builds over coords.size() / dims points stored row-major in `coords`
  /// (point i is coords[i*dims .. i*dims+dims)); ids as above.
  KdTree(std::size_t dims, std::vector<double> coords,
         std::vector<std::uint64_t> ids = {});

  std::size_t size() const noexcept { return ids_.size(); }
  bool empty() const noexcept { return ids_.empty(); }
  std::size_t dims() const noexcept { return empty() ? 0 : dims_; }

  /// Caller ids in slot order: slot_ids()[s] is the id of the point the
  /// visitors report as slot s.
  std::span<const std::uint64_t> slot_ids() const noexcept { return ids_; }

  /// Right-first walk over the points inside the closed rectangle. The
  /// visitor provides
  ///   void run(std::uint32_t begin, std::uint32_t end);
  ///   bool subtree(std::uint32_t begin, std::uint32_t end);
  /// run() receives qualifying slots as ascending runs [begin, end), in
  /// walk order. subtree() is offered every node wholly inside the
  /// rectangle: return true to take all of [begin, end) at once (an
  /// order-free fold such as a count), false to receive its slots through
  /// run() in walk order (one run per leaf).
  template <typename Visitor>
  void visit_range(const Rect& rect, Visitor&& visitor,
                   KdQueryCost* cost = nullptr) const {
    if (empty()) return;
    if (rect.dims() != dims_)
      throw std::invalid_argument("KdTree::visit_range: dimension mismatch");
    walk(RangeProbe{this, &rect}, visitor, cost);
  }

  /// As visit_range, for the points inside the closed ball.
  template <typename Visitor>
  void visit_radius(const Ball& ball, Visitor&& visitor,
                    KdQueryCost* cost = nullptr) const {
    if (empty()) return;
    if (ball.dims() != dims_)
      throw std::invalid_argument("KdTree::visit_radius: dimension mismatch");
    walk(BallProbe{this, &ball, ball.radius * ball.radius}, visitor, cost);
  }

  /// Ids of all points inside the rectangle, in walk order.
  std::vector<std::uint64_t> range_query(const Rect& rect,
                                         KdQueryCost* cost = nullptr) const;

  /// Ids of all points inside the ball, in walk order.
  std::vector<std::uint64_t> radius_query(const Ball& ball,
                                          KdQueryCost* cost = nullptr) const;

  /// The k nearest neighbours of `query` as (id, distance): the k
  /// smallest by (distance_rank, id) — ties to the lower id, NaN distances
  /// last — ascending. Returns fewer when the tree holds fewer points.
  std::vector<std::pair<std::uint64_t, double>> knn(
      std::span<const double> query, std::size_t k,
      KdQueryCost* cost = nullptr) const;

 private:
  struct Node {
    std::uint32_t begin = 0;  ///< slot range [begin, end) of the subtree
    std::uint32_t end = 0;
    std::uint32_t right = 0;  ///< right child (left is self + 1); 0 = leaf
    std::uint32_t nodes = 1;  ///< nodes in the subtree, self included
  };

  static constexpr std::size_t kLeafSize = 16;

  /// Nodes in the subtree over `count` points — the preorder layout is a
  /// pure function of the point count, so parallel subtree builds write
  /// disjoint, precomputed slots and produce the exact array a serial
  /// build would.
  static std::size_t subtree_nodes(std::uint32_t count) noexcept;

  template <std::size_t D>
  class Builder;
  friend std::vector<KdTree> build_kdtrees(std::span<const Table* const>,
                                           std::span<const std::size_t>);
  /// Sets dims_ and sizes the arrays for `count` points.
  void allocate(std::size_t dims, std::size_t count);
  void build(std::size_t dims, std::vector<double> coords,
             std::vector<std::uint64_t> ids);

  const double* point(std::uint32_t slot) const noexcept {
    return coords_.data() + static_cast<std::size_t>(slot) * dims_;
  }
  const double* lo(std::uint32_t node) const noexcept {
    return bounds_.data() + static_cast<std::size_t>(node) * 2 * dims_;
  }
  const double* hi(std::uint32_t node) const noexcept {
    return lo(node) + dims_;
  }
  /// Squared distance from q to the nearest point of the node's bounds
  /// (Rect::min_squared_distance arithmetic); orders knn's frontier.
  double min_squared_distance(std::uint32_t node, const double* q) const;

  enum class Overlap { kDisjoint, kPartial, kContained };

  /// Rectangle probe: disjoint nodes are pruned, contained ones taken
  /// whole. Tests are written branch-free per axis (boundary leaves pass
  /// and fail unpredictably). A NaN coordinate fails the per-point test,
  /// as in Rect::contains; min/max bounds skip NaN, so NaN coordinates
  /// (nan_free_ false) disable containment.
  struct RangeProbe {
    const KdTree* tree;
    const Rect* rect;
    Overlap classify(std::uint32_t node) const noexcept {
      const double* lo = tree->lo(node);
      const double* hi = tree->hi(node);
      bool disjoint = false;
      bool inside = true;
      for (std::size_t j = 0; j < tree->dims_; ++j) {
        disjoint |= (hi[j] < rect->lo[j]) | (lo[j] > rect->hi[j]);
        inside &= (rect->lo[j] <= lo[j]) & (hi[j] <= rect->hi[j]);
      }
      if (disjoint) return Overlap::kDisjoint;
      return tree->nan_free_ && inside ? Overlap::kContained
                                       : Overlap::kPartial;
    }
    bool accepts(std::uint32_t slot) const noexcept {
      const double* p = tree->point(slot);
      bool in = true;
      for (std::size_t j = 0; j < tree->dims_; ++j)
        in &= (p[j] >= rect->lo[j]) & (p[j] <= rect->hi[j]);
      return in;
    }
  };

  /// Ball probe. Prunes on the nearest bounds point (the
  /// Rect::min_squared_distance arithmetic); takes a node whole when its
  /// farthest bounds corner passes, computed with the same subtraction,
  /// squaring and summation order as squared_distance: each rounding step
  /// is monotone, so a contained node's every point passes the per-point
  /// test too. NaN coordinates (nan_free_ false) disable containment.
  struct BallProbe {
    const KdTree* tree;
    const Ball* ball;
    double r2;
    Overlap classify(std::uint32_t node) const noexcept {
      const double* lo = tree->lo(node);
      const double* hi = tree->hi(node);
      const double* c = ball->center.data();
      double near = 0.0;
      double far = 0.0;
      for (std::size_t j = 0; j < tree->dims_; ++j) {
        double d = 0.0;
        if (c[j] < lo[j])
          d = lo[j] - c[j];
        else if (c[j] > hi[j])
          d = c[j] - hi[j];
        near += d * d;
        const double a = c[j] - lo[j];
        const double b = c[j] - hi[j];
        const double a2 = a * a;
        const double b2 = b * b;
        far += (a2 < b2 || std::isnan(b2)) ? b2 : a2;
      }
      if (near > r2) return Overlap::kDisjoint;
      return tree->nan_free_ && far <= r2 ? Overlap::kContained
                                          : Overlap::kPartial;
    }
    bool accepts(std::uint32_t slot) const noexcept {
      const double* p = tree->point(slot);
      const double* c = ball->center.data();
      double s = 0.0;
      for (std::size_t j = 0; j < tree->dims_; ++j) {
        const double d = c[j] - p[j];
        s += d * d;
      }
      return s <= r2;
    }
  };

  /// The one traversal: right-first depth-first, leaves ascending.
  template <typename Probe, typename Visitor>
  void walk(const Probe& probe, Visitor& visitor, KdQueryCost* cost) const {
    static_assert(kLeafSize <= 32, "leaf masks are 32-bit");
    // Depth is at most ~log2(2^32 / kLeafSize) + 1; the stack holds one
    // pending left sibling per level plus the current node.
    std::array<std::uint32_t, 64> stack{};
    std::size_t top = 0;
    stack[top++] = 0;
    std::uint64_t nodes_visited = 0;
    std::uint64_t points_examined = 0;
    while (top > 0) {
      const std::uint32_t idx = stack[--top];
      const Node& n = nodes_[idx];
      const Overlap overlap = probe.classify(idx);
      if (overlap == Overlap::kDisjoint) {
        ++nodes_visited;
        continue;
      }
      if (overlap == Overlap::kContained) {
        nodes_visited += n.nodes;
        points_examined += n.end - n.begin;
        if (visitor.subtree(n.begin, n.end)) continue;
        // Reverse preorder meets the leaves right-first.
        for (std::uint32_t i = idx + n.nodes; i-- > idx;) {
          const Node& leaf = nodes_[i];
          if (leaf.right == 0) visitor.run(leaf.begin, leaf.end);
        }
        continue;
      }
      ++nodes_visited;
      if (n.right != 0) {
        stack[top++] = idx + 1;
        stack[top++] = n.right;
        continue;
      }
      // Boundary leaf: test every point, then hand over the maximal runs
      // of accepted slots.
      points_examined += n.end - n.begin;
      std::uint32_t mask = 0;
      for (std::uint32_t s = n.begin; s < n.end; ++s)
        mask |= std::uint32_t{probe.accepts(s)} << (s - n.begin);
      while (mask != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(mask));
        const auto e = b + static_cast<std::uint32_t>(
                               std::countr_one(mask >> b));
        visitor.run(n.begin + b, n.begin + e);
        mask &= e >= 32 ? 0u : ~0u << e;
      }
    }
    if (cost) {
      cost->nodes_visited += nodes_visited;
      cost->points_examined += points_examined;
    }
  }

  std::size_t dims_ = 0;
  std::vector<double> coords_;      ///< slot-major coordinates
  std::vector<std::uint64_t> ids_;  ///< caller id per slot
  std::vector<Node> nodes_;         ///< preorder
  std::vector<double> bounds_;      ///< per node: lo[d] then hi[d]
  bool nan_free_ = true;            ///< no NaN coordinate anywhere
};

/// One KdTree per table over the selected columns, with row indices as
/// ids: the way to index every partition of a table. The partitions build
/// concurrently on the pool, each serially inside its task; a single table
/// fans out by subtree instead. Trees are identical at any SEA_THREADS.
std::vector<KdTree> build_kdtrees(std::span<const Table* const> tables,
                                  std::span<const std::size_t> cols);

/// build_kdtrees for one table.
KdTree build_kdtree(const Table& table, std::span<const std::size_t> cols);

}  // namespace sea
