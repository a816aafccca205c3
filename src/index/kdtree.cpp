#include "index/kdtree.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <type_traits>

#include "common/parallel.h"
#include "data/table.h"

namespace sea {

namespace {
/// Below this size a subtree is built inline rather than fanned out.
constexpr std::uint32_t kParallelBuildThreshold = 4096;

/// Dimensionalities up to this build over physical records (see Builder).
constexpr std::size_t kMaxRecordDims = 8;

/// Runs f.template operator()<D>() with D = dims when 1 <= dims <=
/// kMaxRecordDims, and with D = 0 (any dimensionality) otherwise.
template <typename F>
void with_record_dims(std::size_t dims, F&& f) {
  static_assert(kMaxRecordDims == 8, "one case per record dimensionality");
  switch (dims) {
    case 1: return f.template operator()<1>();
    case 2: return f.template operator()<2>();
    case 3: return f.template operator()<3>();
    case 4: return f.template operator()<4>();
    case 5: return f.template operator()<5>();
    case 6: return f.template operator()<6>();
    case 7: return f.template operator()<7>();
    case 8: return f.template operator()<8>();
    default: return f.template operator()<0>();
  }
}

/// The selected columns of `table`, row-major (point r is
/// out[r*d .. r*d+d)), filled column-at-a-time from contiguous spans.
std::vector<double> row_major(const Table& table,
                              std::span<const std::size_t> cols) {
  const std::size_t d = cols.size();
  std::vector<double> coords(table.num_rows() * d);
  ParallelChunks(table.num_rows(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = 0; c < d; ++c) {
      const auto col = table.column(cols[c]);
      for (std::size_t r = begin; r < end; ++r) coords[r * d + c] = col[r];
    }
  });
  return coords;
}
}  // namespace

/// Build state for one tree: the elements the median splits rearrange.
/// Leaves own subranges of them; once every subtree is built, slot s holds
/// input point index(elems[s]).
///
/// With 1 <= D <= kMaxRecordDims the elements are physical records
/// {c[D], input index}: nth_element moves the coordinates themselves and
/// the per-node bounds scans read them in order, with no indirection.
/// D == 0 handles any dimensionality with u32 input indices into the
/// row-major input. Both run the same comparisons on the same values in
/// the same sequence, and nth_element's moves depend only on comparison
/// outcomes, so both produce the same slot order, nodes_ and bounds_.
template <std::size_t D>
class KdTree::Builder {
 public:
  struct Record {
    double c[D == 0 ? 1 : D];
    std::uint32_t index;
  };
  using Elem = std::conditional_t<D == 0, std::uint32_t, Record>;

  /// `elems` holds one element per point of `tree` (already allocated);
  /// `pts` is the row-major input load() reads and, when D == 0, the
  /// coordinates the indices point into.
  Builder(KdTree& tree, std::span<Elem> elems, const double* pts)
      : tree_(tree), elems_(elems), pts_(pts) {}

  /// Element i := input point i, for i in [begin, end).
  void load(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if constexpr (D == 0) {
        elems_[i] = static_cast<std::uint32_t>(i);
      } else {
        std::copy_n(pts_ + i * D, D, elems_[i].c);
        elems_[i].index = static_cast<std::uint32_t>(i);
      }
    }
  }

  /// Element r := row r of the selected table columns.
  void load_columns(const Table& table, std::span<const std::size_t> cols)
    requires(D > 0)
  {
    for (std::size_t j = 0; j < D; ++j) {
      const auto col = table.column(cols[j]);
      for (std::size_t r = 0; r < elems_.size(); ++r) elems_[r].c[j] = col[r];
    }
    for (std::size_t r = 0; r < elems_.size(); ++r)
      elems_[r].index = static_cast<std::uint32_t>(r);
  }

  /// Builds nodes_ and bounds_, lays the points and `ids` (empty =>
  /// input indices) out in slot order, and sets nan_free_. The subtrees
  /// fan out on the pool when there are workers to spare and enough points.
  void build(std::span<const std::uint64_t> ids) {
    const auto n = static_cast<std::uint32_t>(elems_.size());
    const std::size_t threads = configured_threads();
    if (threads <= 1 || n < kParallelBuildThreshold || in_parallel_region()) {
      build_at(0, n, 0);
    } else {
      // Parallel build by subtree: expand the top of the tree
      // breadth-first on this thread until there is a task per worker (and
      // then some), then build the remaining subtrees concurrently. Every
      // subtree owns a disjoint slice of the elements and a disjoint,
      // precomputed preorder slice of nodes_/bounds_, so the resulting
      // arrays are identical to a serial build.
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
        if (!split_node(it.begin, it.end, it.self, &mid)) continue;
        frontier.push_back({it.begin, mid, it.self + 1});
        frontier.push_back({mid, it.end, tree_.nodes_[it.self].right});
      }
      tasks.insert(tasks.end(), frontier.begin(), frontier.end());
      ParallelFor(tasks.size(), [&](std::size_t i) {
        build_at(tasks[i].begin, tasks[i].end, tasks[i].self);
      });
    }
    const std::size_t d = dims();
    ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        const double* p = at(elems_[s]);
        std::copy(p, p + d, tree_.coords_.data() + s * d);
        const std::uint32_t i = index(elems_[s]);
        tree_.ids_[s] = ids.empty() ? i : ids[i];
      }
    });
    tree_.nan_free_ =
        std::none_of(tree_.coords_.begin(), tree_.coords_.end(),
                     [](double v) { return std::isnan(v); });
  }

 private:
  std::size_t dims() const noexcept {
    if constexpr (D == 0)
      return tree_.dims_;
    else
      return D;
  }
  const double* at(const Elem& e) const noexcept {
    if constexpr (D == 0)
      return pts_ + std::size_t{e} * tree_.dims_;
    else
      return e.c;
  }
  static std::uint32_t index(const Elem& e) noexcept {
    if constexpr (D == 0)
      return e;
    else
      return e.index;
  }

  /// lo/hi := the per-axis min/max over elements [begin, end), in order.
  void scan_bounds(std::uint32_t begin, std::uint32_t end, double* lo,
                   double* hi) const noexcept {
    const std::size_t d = dims();
    const double* first = at(elems_[begin]);
    std::copy(first, first + d, lo);
    std::copy(first, first + d, hi);
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const double* p = at(elems_[i]);
      for (std::size_t j = 0; j < d; ++j) {
        lo[j] = std::min(lo[j], p[j]);
        hi[j] = std::max(hi[j], p[j]);
      }
    }
  }

  /// Writes the node for [begin, end) at nodes_[self]; returns false for a
  /// leaf, true after an internal split with `*mid_out` set.
  bool split_node(std::uint32_t begin, std::uint32_t end, std::uint32_t self,
                  std::uint32_t* mid_out) {
    const std::size_t d = dims();
    const std::uint32_t count = end - begin;
    Node& node = tree_.nodes_[self];
    node.begin = begin;
    node.end = end;
    node.nodes = static_cast<std::uint32_t>(subtree_nodes(count));
    double* lo = tree_.bounds_.data() + std::size_t{self} * 2 * d;
    double* hi = lo + d;
    if constexpr (D > 0) {
      // Scan into locals, then store: as far as the compiler knows the
      // bounds array may alias the records, which would keep every min/max
      // in memory.
      std::array<double, D> l, h;
      scan_bounds(begin, end, l.data(), h.data());
      std::copy(l.begin(), l.end(), lo);
      std::copy(h.begin(), h.end(), hi);
    } else {
      scan_bounds(begin, end, lo, hi);
    }
    if (count <= kLeafSize) return false;
    // Split on the widest axis at the median.
    std::size_t axis = 0;
    double widest = -1.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double w = hi[j] - lo[j];
      if (w > widest) {
        widest = w;
        axis = j;
      }
    }
    const std::uint32_t mid = begin + count / 2;
    std::nth_element(elems_.begin() + begin, elems_.begin() + mid,
                     elems_.begin() + end,
                     [&](const Elem& a, const Elem& b) {
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

  KdTree& tree_;
  std::span<Elem> elems_;
  const double* pts_;
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

void KdTree::allocate(std::size_t dims, std::size_t count) {
  if (count > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("KdTree: too many points for u32 slots");
  dims_ = dims;
  if (count == 0) return;
  nodes_.resize(subtree_nodes(static_cast<std::uint32_t>(count)));
  bounds_.resize(nodes_.size() * 2 * dims);
  coords_.resize(count * dims);
  ids_.resize(count);
}

void KdTree::build(std::size_t dims, std::vector<double> coords,
                   std::vector<std::uint64_t> ids) {
  const std::size_t count = dims == 0 ? 0 : coords.size() / dims;
  if (!ids.empty() && ids.size() != count)
    throw std::invalid_argument("KdTree: ids/points size mismatch");
  allocate(dims, count);
  if (count == 0) return;
  with_record_dims(dims, [&]<std::size_t D>() {
    std::vector<typename Builder<D>::Elem> elems(count);
    Builder<D> builder(*this, elems, coords.data());
    ParallelChunks(count, [&](std::size_t begin, std::size_t end) {
      builder.load(begin, end);
    });
    builder.build(ids);
  });
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

std::vector<KdTree> build_kdtrees(std::span<const Table* const> tables,
                                  std::span<const std::size_t> cols) {
  const std::size_t d = cols.size();
  std::vector<KdTree> trees(tables.size());
  with_record_dims(d, [&]<std::size_t D>() {
    if constexpr (D == 0) {
      // Zero or more than kMaxRecordDims columns: the indirect builder,
      // one partition at a time (each may still fan out by subtree).
      for (std::size_t p = 0; p < tables.size(); ++p)
        trees[p] = KdTree(d, row_major(*tables[p], cols));
    } else {
      // Every array is allocated here, on the calling thread: memory
      // malloc'd inside pool workers lands in per-thread arenas that keep
      // it mapped after the build. Tree storage first, then one record
      // buffer per worker, reused across its partitions, so at most
      // configured_threads() buffers are ever alive.
      std::size_t most = 0;
      for (std::size_t p = 0; p < tables.size(); ++p) {
        trees[p].allocate(D, tables[p]->num_rows());
        most = std::max(most, tables[p]->num_rows());
      }
      const std::size_t workers = std::min(
          tables.size(), in_parallel_region() ? 1 : configured_threads());
      using Elem = typename KdTree::Builder<D>::Elem;
      std::vector<std::vector<Elem>> scratch(workers, std::vector<Elem>(most));
      // Worker w builds partitions w, w + workers, ...; with more than one
      // worker each tree is built serially inside its task.
      ParallelFor(workers, [&](std::size_t w) {
        for (std::size_t p = w; p < tables.size(); p += workers) {
          const std::size_t rows = tables[p]->num_rows();
          if (rows == 0) continue;
          KdTree::Builder<D> builder(
              trees[p], std::span<Elem>(scratch[w]).first(rows), nullptr);
          builder.load_columns(*tables[p], cols);
          builder.build({});
        }
      });
    }
  });
  return trees;
}

KdTree build_kdtree(const Table& table, std::span<const std::size_t> cols) {
  const Table* const one[] = {&table};
  return std::move(build_kdtrees(one, cols).front());
}

}  // namespace sea
