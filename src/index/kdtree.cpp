#include "index/kdtree.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>

#include "common/parallel.h"
#include "data/table.h"

namespace sea {

namespace {
/// Below this size a subtree is built inline rather than fanned out.
constexpr std::uint32_t kParallelBuildThreshold = 4096;
}  // namespace

/// Build state: the input points in caller order plus the permutation the
/// median splits rearrange. Leaves own subranges of `order`; once every
/// subtree is built, slot s is input point order[s].
class KdTree::Builder {
 public:
  Builder(KdTree& tree, const std::vector<double>& pts)
      : tree_(tree), pts_(pts), d_(tree.dims_),
        order_(pts.size() / tree.dims_) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  const std::vector<std::uint32_t>& order() const noexcept { return order_; }

  /// Writes the node for [begin, end) at nodes_[self]; returns false for a
  /// leaf, true after an internal split with `*mid_out` set.
  bool split_node(std::uint32_t begin, std::uint32_t end, std::uint32_t self,
                  std::uint32_t* mid_out) {
    const std::uint32_t count = end - begin;
    Node& node = tree_.nodes_[self];
    node.begin = begin;
    node.end = end;
    node.nodes = static_cast<std::uint32_t>(subtree_nodes(count));
    double* lo = tree_.bounds_.data() + std::size_t{self} * 2 * d_;
    double* hi = lo + d_;
    const double* first = at(order_[begin]);
    std::copy(first, first + d_, lo);
    std::copy(first, first + d_, hi);
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const double* p = at(order_[i]);
      for (std::size_t j = 0; j < d_; ++j) {
        lo[j] = std::min(lo[j], p[j]);
        hi[j] = std::max(hi[j], p[j]);
      }
    }
    if (count <= kLeafSize) return false;
    // Split on the widest axis at the median.
    std::size_t axis = 0;
    double widest = -1.0;
    for (std::size_t j = 0; j < d_; ++j) {
      const double w = hi[j] - lo[j];
      if (w > widest) {
        widest = w;
        axis = j;
      }
    }
    const std::uint32_t mid = begin + count / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return at(a)[axis] < at(b)[axis];
                     });
    node.right = self + 1 + static_cast<std::uint32_t>(
                                subtree_nodes(mid - begin));
    *mid_out = mid;
    return true;
  }

  /// Recursive build of the subtree at its preorder slot.
  void build_at(std::uint32_t begin, std::uint32_t end, std::uint32_t self) {
    std::uint32_t mid = 0;
    if (!split_node(begin, end, self, &mid)) return;
    build_at(begin, mid, self + 1);
    build_at(mid, end, tree_.nodes_[self].right);
  }

 private:
  const double* at(std::uint32_t i) const noexcept {
    return pts_.data() + std::size_t{i} * d_;
  }

  KdTree& tree_;
  const std::vector<double>& pts_;
  std::size_t d_;
  std::vector<std::uint32_t> order_;
};

KdTree::KdTree(std::vector<Point> points, std::vector<std::uint64_t> ids) {
  const std::size_t d = points.empty() ? 0 : points[0].size();
  if (!points.empty() && d == 0)
    throw std::invalid_argument("KdTree: zero-dimensional points");
  std::vector<double> coords;
  coords.reserve(points.size() * d);
  for (const auto& p : points) {
    if (p.size() != d)
      throw std::invalid_argument("KdTree: inconsistent dimensionality");
    coords.insert(coords.end(), p.begin(), p.end());
  }
  build(d, std::move(coords), std::move(ids));
}

KdTree::KdTree(std::size_t dims, std::vector<double> coords,
               std::vector<std::uint64_t> ids) {
  if (dims == 0 ? !coords.empty() : coords.size() % dims != 0)
    throw std::invalid_argument("KdTree: coords not a multiple of dims");
  build(dims, std::move(coords), std::move(ids));
}

void KdTree::build(std::size_t dims, std::vector<double> coords,
                   std::vector<std::uint64_t> ids) {
  dims_ = dims;
  const std::size_t count = dims == 0 ? 0 : coords.size() / dims;
  if (count > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("KdTree: too many points for u32 slots");
  if (ids.empty()) {
    ids.resize(count);
    std::iota(ids.begin(), ids.end(), 0);
  }
  if (ids.size() != count)
    throw std::invalid_argument("KdTree: ids/points size mismatch");
  if (count == 0) return;

  const auto n = static_cast<std::uint32_t>(count);
  nodes_.resize(subtree_nodes(n));
  bounds_.resize(nodes_.size() * 2 * dims);
  Builder builder(*this, coords);

  const std::size_t threads = configured_threads();
  if (threads <= 1 || n < kParallelBuildThreshold || in_parallel_region()) {
    builder.build_at(0, n, 0);
  } else {
    // Parallel build by subtree: expand the top of the tree breadth-first
    // on this thread until there is a task per worker (and then some),
    // then build the remaining subtrees concurrently. Every subtree owns a
    // disjoint slice of the permutation and a disjoint, precomputed
    // preorder slice of nodes_/bounds_, so the resulting arrays are
    // identical to a serial build.
    struct Item {
      std::uint32_t begin, end, self;
    };
    std::deque<Item> frontier{{0, n, 0}};
    std::vector<Item> tasks;
    const std::size_t target = threads * 4;
    while (!frontier.empty() && frontier.size() + tasks.size() < target) {
      const Item it = frontier.front();
      frontier.pop_front();
      if (it.end - it.begin <= kParallelBuildThreshold / 4) {
        tasks.push_back(it);  // small enough: hand straight to the pool
        continue;
      }
      std::uint32_t mid = 0;
      if (!builder.split_node(it.begin, it.end, it.self, &mid)) continue;
      frontier.push_back({it.begin, mid, it.self + 1});
      frontier.push_back({mid, it.end, nodes_[it.self].right});
    }
    tasks.insert(tasks.end(), frontier.begin(), frontier.end());
    ParallelFor(tasks.size(), [&](std::size_t i) {
      builder.build_at(tasks[i].begin, tasks[i].end, tasks[i].self);
    });
  }

  // Lay points and ids out in slot order.
  const std::vector<std::uint32_t>& order = builder.order();
  coords_.resize(coords.size());
  ids_.resize(count);
  ParallelChunks(count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t src = std::size_t{order[s]} * dims;
      std::copy(coords.begin() + static_cast<std::ptrdiff_t>(src),
                coords.begin() + static_cast<std::ptrdiff_t>(src + dims),
                coords_.begin() + static_cast<std::ptrdiff_t>(s * dims));
      ids_[s] = ids[order[s]];
    }
  });
  nan_free_ = std::none_of(coords_.begin(), coords_.end(),
                           [](double v) { return std::isnan(v); });
}

std::size_t KdTree::subtree_nodes(std::uint32_t count) noexcept {
  if (count <= kLeafSize) return 1;
  const std::uint32_t left = count / 2;
  return 1 + subtree_nodes(left) + subtree_nodes(count - left);
}

double KdTree::min_squared_distance(std::uint32_t node,
                                    const double* q) const {
  const double* l = lo(node);
  const double* h = hi(node);
  double s = 0.0;
  for (std::size_t j = 0; j < dims_; ++j) {
    double d = 0.0;
    if (q[j] < l[j])
      d = l[j] - q[j];
    else if (q[j] > h[j])
      d = q[j] - h[j];
    s += d * d;
  }
  return s;
}

namespace {
/// Collects the ids of every qualifying slot, in walk order.
struct IdCollector {
  std::span<const std::uint64_t> ids;
  std::vector<std::uint64_t> out;
  bool subtree(std::uint32_t, std::uint32_t) const noexcept { return false; }
  void run(std::uint32_t begin, std::uint32_t end) {
    out.insert(out.end(), ids.begin() + begin, ids.begin() + end);
  }
};
}  // namespace

std::vector<std::uint64_t> KdTree::range_query(const Rect& rect,
                                               KdQueryCost* cost) const {
  IdCollector c{ids_, {}};
  visit_range(rect, c, cost);
  return std::move(c.out);
}

std::vector<std::uint64_t> KdTree::radius_query(const Ball& ball,
                                                KdQueryCost* cost) const {
  IdCollector c{ids_, {}};
  visit_radius(ball, c, cost);
  return std::move(c.out);
}

std::vector<std::pair<std::uint64_t, double>> KdTree::knn(
    std::span<const double> query, std::size_t k, KdQueryCost* cost) const {
  std::vector<std::pair<std::uint64_t, double>> result;
  if (empty() || k == 0) return result;
  if (query.size() != dims_)
    throw std::invalid_argument("KdTree::knn: dimension mismatch");

  // Max-heap of (distance^2, id) of current best k.
  using Entry = std::pair<double, std::uint64_t>;
  std::priority_queue<Entry> best;

  // Best-first traversal ordered by node min-distance.
  using Frontier = std::pair<double, std::uint32_t>;
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>> frontier;
  frontier.emplace(min_squared_distance(0, query.data()), 0);
  while (!frontier.empty()) {
    const auto [min_d2, idx] = frontier.top();
    frontier.pop();
    if (best.size() == k && min_d2 > best.top().first) break;
    const Node& n = nodes_[idx];
    if (cost) ++cost->nodes_visited;
    if (n.right == 0) {
      for (std::uint32_t s = n.begin; s < n.end; ++s) {
        if (cost) ++cost->points_examined;
        const double d2 =
            squared_distance(query, std::span<const double>(point(s), dims_));
        if (best.size() < k) {
          best.emplace(d2, ids_[s]);
        } else if (d2 < best.top().first) {
          best.pop();
          best.emplace(d2, ids_[s]);
        }
      }
    } else {
      for (const std::uint32_t child : {idx + 1, n.right}) {
        const double d2 = min_squared_distance(child, query.data());
        if (best.size() < k || d2 <= best.top().first)
          frontier.emplace(d2, child);
      }
    }
  }
  result.reserve(best.size());
  while (!best.empty()) {
    result.emplace_back(best.top().second, std::sqrt(best.top().first));
    best.pop();
  }
  std::reverse(result.begin(), result.end());
  return result;
}

KdTree build_kdtree(const Table& table, std::span<const std::size_t> cols) {
  // Fill the row-major coordinates column-at-a-time from contiguous column
  // spans (no per-row gather); each chunk writes its own rows.
  const std::size_t d = cols.size();
  std::vector<double> coords(table.num_rows() * d);
  ParallelChunks(table.num_rows(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = 0; c < d; ++c) {
      const auto col = table.column(cols[c]);
      for (std::size_t r = begin; r < end; ++r) coords[r * d + c] = col[r];
    }
  });
  return KdTree(d, std::move(coords));
}

}  // namespace sea
