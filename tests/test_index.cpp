// Unit + property tests: access structures (k-d tree, grid, histograms,
// Bloom filter, Count-Min sketch, score index).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/generator.h"
#include "index/bloom.h"
#include "index/grid.h"
#include "index/histogram.h"
#include "index/kdtree.h"
#include "index/score_index.h"
#include "sea/aggregate.h"

namespace sea {
namespace {

std::vector<Point> random_points(std::size_t n, std::size_t d,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts(n, Point(d));
  for (auto& p : pts)
    for (auto& v : p) v = rng.uniform();
  return pts;
}

std::set<std::uint64_t> brute_range(const std::vector<Point>& pts,
                                    const Rect& r) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (r.contains(pts[i])) out.insert(i);
  return out;
}

std::set<std::uint64_t> brute_radius(const std::vector<Point>& pts,
                                     const Ball& b) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (b.contains(pts[i])) out.insert(i);
  return out;
}

std::vector<std::uint64_t> brute_knn(const std::vector<Point>& pts,
                                     const Point& q, std::size_t k) {
  std::vector<std::pair<double, std::uint64_t>> d;
  for (std::size_t i = 0; i < pts.size(); ++i)
    d.emplace_back(squared_distance(q, pts[i]), i);
  std::sort(d.begin(), d.end());
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < std::min(k, d.size()); ++i)
    out.push_back(d[i].second);
  return out;
}

// ---- parameterized property sweep over dimensionality ----

class KdTreeDims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KdTreeDims, RangeQueryMatchesBruteForce) {
  const std::size_t d = GetParam();
  auto pts = random_points(800, d, 100 + d);
  KdTree tree(pts);
  Rng rng(200 + d);
  for (int trial = 0; trial < 20; ++trial) {
    Rect r;
    r.lo.resize(d);
    r.hi.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
      const double a = rng.uniform(), b = rng.uniform();
      r.lo[i] = std::min(a, b);
      r.hi[i] = std::max(a, b);
    }
    auto got = tree.range_query(r);
    std::set<std::uint64_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_range(pts, r));
    EXPECT_EQ(got.size(), got_set.size());  // no duplicates
  }
}

TEST_P(KdTreeDims, RadiusQueryMatchesBruteForce) {
  const std::size_t d = GetParam();
  auto pts = random_points(600, d, 300 + d);
  KdTree tree(pts);
  Rng rng(400 + d);
  for (int trial = 0; trial < 20; ++trial) {
    Ball b;
    b.center.resize(d);
    for (auto& v : b.center) v = rng.uniform();
    b.radius = rng.uniform(0.05, 0.4);
    auto got = tree.radius_query(b);
    std::set<std::uint64_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_radius(pts, b));
  }
}

TEST_P(KdTreeDims, KnnMatchesBruteForce) {
  const std::size_t d = GetParam();
  auto pts = random_points(500, d, 500 + d);
  KdTree tree(pts);
  Rng rng(600 + d);
  for (int trial = 0; trial < 10; ++trial) {
    Point q(d);
    for (auto& v : q) v = rng.uniform();
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{17}}) {
      auto got = tree.knn(q, k);
      auto expected = brute_knn(pts, q, k);
      ASSERT_EQ(got.size(), expected.size());
      // Distances must match (ids may tie-swap).
      for (std::size_t i = 0; i < got.size(); ++i) {
        const double ed = euclidean_distance(q, pts[expected[i]]);
        EXPECT_NEAR(got[i].second, ed, 1e-9);
      }
      for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_GE(got[i].second, got[i - 1].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdTreeDims, ::testing::Values(1, 2, 3, 5, 8));

TEST(KdTree, EmptyTreeReturnsNothing) {
  KdTree tree;
  EXPECT_TRUE(tree.empty());
  Rect r{{0}, {1}};
  EXPECT_TRUE(tree.range_query(r).empty());
  EXPECT_TRUE(tree.knn(std::vector<double>{0.5}, 3).empty());
}

TEST(KdTree, KnnFewerPointsThanK) {
  auto pts = random_points(3, 2, 1);
  KdTree tree(pts);
  EXPECT_EQ(tree.knn(std::vector<double>{0.5, 0.5}, 10).size(), 3u);
}

TEST(KdTree, CustomIdsPropagate) {
  std::vector<Point> pts = {{0.0, 0.0}, {1.0, 1.0}};
  KdTree tree(pts, {42, 77});
  Rect all{{-1, -1}, {2, 2}};
  auto got = tree.range_query(all);
  std::set<std::uint64_t> s(got.begin(), got.end());
  EXPECT_EQ(s, (std::set<std::uint64_t>{42, 77}));
}

TEST(KdTree, QueryCostTracksPruning) {
  auto pts = random_points(5000, 2, 9);
  KdTree tree(pts);
  KdQueryCost tiny_cost, huge_cost;
  Rect tiny{{0.5, 0.5}, {0.51, 0.51}};
  Rect huge{{0, 0}, {1, 1}};
  tree.range_query(tiny, &tiny_cost);
  tree.range_query(huge, &huge_cost);
  EXPECT_LT(tiny_cost.points_examined, huge_cost.points_examined / 5);
}

TEST(KdTree, DimensionMismatchThrows) {
  auto pts = random_points(10, 2, 3);
  KdTree tree(pts);
  Rect r{{0.0}, {1.0}};
  EXPECT_THROW(tree.range_query(r), std::invalid_argument);
  EXPECT_THROW(tree.knn(std::vector<double>{0.1}, 2), std::invalid_argument);
}

// ---- flat-layout k-d suite: shared data and query generators ----

enum class KdData { kUniform, kClustered, kDuplicates, kZeroWidthAxis };

constexpr KdData kKdDataKinds[] = {KdData::kUniform, KdData::kClustered,
                                   KdData::kDuplicates,
                                   KdData::kZeroWidthAxis};

/// Uniform, clustered (tight blobs), duplicate-heavy (coordinates on a
/// 0.25 lattice, so many points coincide and ball distances are exact) and
/// zero-width (axis 0 constant) point sets.
std::vector<Point> kd_data(KdData kind, std::size_t n, std::size_t d,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> centres(3, Point(d));
  for (auto& c : centres)
    for (auto& v : c) v = rng.uniform();
  std::vector<Point> pts(n, Point(d));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      switch (kind) {
        case KdData::kUniform:
          pts[i][j] = rng.uniform();
          break;
        case KdData::kClustered:
          pts[i][j] = centres[i % 3][j] + rng.normal(0.0, 0.02);
          break;
        case KdData::kDuplicates:
          pts[i][j] = 0.25 * static_cast<double>(rng.uniform_index(5));
          break;
        case KdData::kZeroWidthAxis:
          pts[i][j] = j == 0 ? 0.5 : rng.uniform();
          break;
      }
    }
  }
  return pts;
}

/// A query rectangle: random, snapped per axis onto data coordinates (so
/// points sit exactly on its faces), or wide enough to cover whole
/// subtrees.
Rect kd_rect(const std::vector<Point>& pts, std::size_t d, Rng& rng) {
  Rect r;
  r.lo.resize(d);
  r.hi.resize(d);
  const double wide = rng.uniform() < 0.2 ? 1.0 : 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    double a = rng.uniform(-0.1, 1.1), b = rng.uniform(-0.1, 1.1);
    if (!pts.empty() && rng.uniform() < 0.5) {
      a = pts[rng.uniform_index(pts.size())][j];
      b = pts[rng.uniform_index(pts.size())][j];
    }
    r.lo[j] = std::min(a, b) - wide;
    r.hi[j] = std::max(a, b) + wide;
  }
  return r;
}

/// A query ball: centred on a data point or anywhere, with a radius that
/// is random, exactly the distance to another data point (points on the
/// surface), or wide.
Ball kd_ball(const std::vector<Point>& pts, std::size_t d, Rng& rng) {
  Ball b;
  b.center.resize(d);
  for (auto& v : b.center) v = rng.uniform(-0.1, 1.1);
  if (!pts.empty() && rng.uniform() < 0.5)
    b.center = pts[rng.uniform_index(pts.size())];
  const double pick = rng.uniform();
  if (!pts.empty() && pick < 0.4) {
    b.radius = std::sqrt(
        squared_distance(b.center, pts[rng.uniform_index(pts.size())]));
  } else if (pick < 0.55) {
    b.radius = 0.25 * static_cast<double>(1 + rng.uniform_index(4));
  } else if (pick < 0.7) {
    b.radius = 2.0 * std::sqrt(static_cast<double>(d));
  } else {
    b.radius = rng.uniform(0.0, 0.6);
  }
  return b;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

// Walk order and cost accounting, pinned: the ids range_query and
// radius_query return (in order), their KdQueryCost, and knn's output over
// every data kind and dimension. The digest was captured from the
// point-vector tree the flat layout replaced; the index-backed exact path
// adds target values in exactly this order. knn's ids were re-pinned when
// exact distance ties began to go to the lower id (its distances and every
// cost counter kept their old bits).
TEST(KdTree, WalkOrderAndCostPinned) {
  Fnv fnv;
  for (const std::size_t d : {1, 2, 3, 5, 8}) {
    for (const KdData kind : kKdDataKinds) {
      for (const std::size_t n : {0, 1, 17, 300, 2000}) {
        const std::uint64_t seed = 1000 * d + 10 * n + static_cast<int>(kind);
        const auto pts = kd_data(kind, n, d, seed);
        const KdTree tree(pts);
        Rng rng(seed + 1);
        for (int i = 0; i < 6; ++i) {
          KdQueryCost rc, bc, kc;
          for (const auto id : tree.range_query(kd_rect(pts, d, rng), &rc))
            fnv.u64(id);
          for (const auto id : tree.radius_query(kd_ball(pts, d, rng), &bc))
            fnv.u64(id);
          Point q(d);
          for (auto& v : q) v = rng.uniform();
          for (const auto& [id, dist] : tree.knn(q, 1 + i * 3, &kc)) {
            fnv.u64(id);
            fnv.u64(std::bit_cast<std::uint64_t>(dist));
          }
          for (const KdQueryCost& c : {rc, bc, kc}) {
            fnv.u64(c.nodes_visited);
            fnv.u64(c.points_examined);
          }
        }
      }
    }
  }
  EXPECT_EQ(fnv.h, 0xae3c67d3a4dfd201ull) << std::hex << fnv.h;
}

/// Folds the targets of every visited slot (subtree() declines, so slots
/// arrive run by run in walk order) — the fused probe's sum path.
struct SumVisitor {
  std::span<const std::uint64_t> ids;
  const std::vector<double>& t;
  const std::vector<double>& u;
  AggregateState agg;
  bool subtree(std::uint32_t, std::uint32_t) { return false; }
  void run(std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t s = begin; s < end; ++s)
      agg.add(t[ids[s]], u[ids[s]]);
  }
};

/// Takes every covered subtree in O(1) — the fused probe's count path.
struct CountVisitor {
  std::uint64_t count = 0;
  bool subtree(std::uint32_t begin, std::uint32_t end) {
    count += end - begin;
    return true;
  }
  void run(std::uint32_t begin, std::uint32_t end) { count += end - begin; }
};

bool same_bytes(const AggregateState& a, const AggregateState& b) {
  return std::memcmp(&a, &b, sizeof(AggregateState)) == 0;
}

bool same_cost(const KdQueryCost& a, const KdQueryCost& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.points_examined == b.points_examined;
}

/// Checks one probe three ways: the id list (vs brute force), the fused
/// sum fold (byte-equal to folding the ids in returned order) and the
/// O(1)-subtree count; all three must charge the same KdQueryCost.
template <typename Geometry, typename Visit, typename Materialize>
void check_fused_probe(const KdTree& tree, const std::vector<Point>& pts,
                       const Geometry& g, Visit visit, Materialize ids_of,
                       const std::vector<double>& t,
                       const std::vector<double>& u) {
  KdQueryCost ref_cost, sum_cost, count_cost;
  const std::vector<std::uint64_t> ids = ids_of(g, &ref_cost);
  std::set<std::uint64_t> expect;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (g.contains(pts[i])) expect.insert(i);
  ASSERT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()), expect);
  ASSERT_EQ(ids.size(), expect.size());
  AggregateState ref;
  for (const auto id : ids) ref.add(t[id], u[id]);

  SumVisitor sum{tree.slot_ids(), t, u, {}};
  visit(g, sum, &sum_cost);
  EXPECT_TRUE(same_bytes(sum.agg, ref));
  CountVisitor count;
  visit(g, count, &count_cost);
  EXPECT_EQ(count.count, ref.count);
  EXPECT_TRUE(same_cost(sum_cost, ref_cost));
  EXPECT_TRUE(same_cost(count_cost, ref_cost));
}

class KdFusedDiff : public ::testing::TestWithParam<std::size_t> {};

// 100 seeds x every data kind, tree sizes from empty through one partial
// leaf to several levels, with points on rectangle faces / ball surfaces.
TEST_P(KdFusedDiff, VisitorsMatchMaterializedIds) {
  const std::size_t d = GetParam();
  constexpr std::size_t kSizes[] = {0, 1, 7, 16, 17, 64, 300};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const KdData kind : kKdDataKinds) {
      const std::size_t n =
          kSizes[(seed + static_cast<std::size_t>(kind)) % std::size(kSizes)];
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " kind=" + std::to_string(static_cast<int>(kind)) +
                   " n=" + std::to_string(n));
      const auto pts = kd_data(kind, n, d, seed * 31 + d);
      const KdTree tree(pts);
      Rng rng(seed * 7 + d);
      std::vector<double> t(n), u(n);
      for (std::size_t i = 0; i < n; ++i) {
        t[i] = rng.normal(0.0, 100.0);
        u[i] = rng.uniform(-1.0, 1.0);
      }
      for (int q = 0; q < 2; ++q) {
        check_fused_probe(
            tree, pts, kd_rect(pts, d, rng),
            [&](const Rect& r, auto& v, KdQueryCost* c) {
              tree.visit_range(r, v, c);
            },
            [&](const Rect& r, KdQueryCost* c) {
              return tree.range_query(r, c);
            },
            t, u);
        check_fused_probe(
            tree, pts, kd_ball(pts, d, rng),
            [&](const Ball& b, auto& v, KdQueryCost* c) {
              tree.visit_radius(b, v, c);
            },
            [&](const Ball& b, KdQueryCost* c) {
              return tree.radius_query(b, c);
            },
            t, u);
      }
    }
  }
}

// d = 12 is past the record builder's compile-time dimensionalities, so it
// keeps the indirect builder covered.
INSTANTIATE_TEST_SUITE_P(Dims, KdFusedDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

// ---- build: the record builder against the indirect builder it replaced ----

/// Test-local copy of the indirect builder: std::nth_element over u32
/// indices into the row-major input, per-node bounds rescans, preorder
/// node layout. Keeps the slot order and the nodes so a range walk's ids
/// and KdQueryCost can be recomputed without the library's tree.
class RefKdTree {
 public:
  RefKdTree(std::size_t d, std::vector<double> pts)
      : d_(d), pts_(std::move(pts)), order_(pts_.size() / d) {
    std::iota(order_.begin(), order_.end(), 0u);
    nan_free_ = std::none_of(pts_.begin(), pts_.end(),
                             [](double v) { return std::isnan(v); });
    if (order_.empty()) return;
    const auto n = static_cast<std::uint32_t>(order_.size());
    nodes_.resize(subtree_nodes(n));
    bounds_.resize(nodes_.size() * 2 * d_);
    build_at(0, n, 0);
  }

  std::vector<std::uint64_t> slot_ids() const {
    return {order_.begin(), order_.end()};
  }

  /// Ids in walk order and the walk's cost for a closed rectangle: the
  /// library's right-first walk with IdCollector semantics. A NaN
  /// coordinate never qualifies, and a tree holding one takes no node
  /// whole (its min/max bounds skip NaN).
  std::vector<std::uint64_t> range_query(const Rect& r,
                                         KdQueryCost* cost) const {
    std::vector<std::uint64_t> out;
    if (!order_.empty()) walk(r, 0, out, *cost);
    return out;
  }

 private:
  static constexpr std::uint32_t kLeaf = 16;  // KdTree::kLeafSize
  struct Node {
    std::uint32_t begin, end, right, nodes;
  };

  static std::uint32_t subtree_nodes(std::uint32_t count) {
    if (count <= kLeaf) return 1;
    return 1 + subtree_nodes(count / 2) + subtree_nodes(count - count / 2);
  }
  const double* at(std::uint32_t i) const { return pts_.data() + i * d_; }
  const double* lo(std::uint32_t node) const {
    return bounds_.data() + node * 2 * d_;
  }

  void build_at(std::uint32_t begin, std::uint32_t end, std::uint32_t self) {
    Node& node = nodes_[self];
    node = {begin, end, 0, subtree_nodes(end - begin)};
    double* lo = bounds_.data() + self * 2 * d_;
    double* hi = lo + d_;
    std::copy(at(order_[begin]), at(order_[begin]) + d_, lo);
    std::copy(at(order_[begin]), at(order_[begin]) + d_, hi);
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      for (std::size_t j = 0; j < d_; ++j) {
        lo[j] = std::min(lo[j], at(order_[i])[j]);
        hi[j] = std::max(hi[j], at(order_[i])[j]);
      }
    }
    if (end - begin <= kLeaf) return;
    std::size_t axis = 0;
    double widest = -1.0;
    for (std::size_t j = 0; j < d_; ++j) {
      if (hi[j] - lo[j] > widest) {
        widest = hi[j] - lo[j];
        axis = j;
      }
    }
    const std::uint32_t mid = begin + (end - begin) / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return at(a)[axis] < at(b)[axis];
                     });
    node.right = self + 1 + subtree_nodes(mid - begin);
    build_at(begin, mid, self + 1);
    build_at(mid, end, node.right);
  }

  void emit_all(std::uint32_t idx, std::vector<std::uint64_t>& out) const {
    const Node& n = nodes_[idx];
    if (n.right == 0) {
      for (std::uint32_t s = n.begin; s < n.end; ++s) out.push_back(order_[s]);
      return;
    }
    emit_all(n.right, out);
    emit_all(idx + 1, out);
  }

  void walk(const Rect& r, std::uint32_t idx, std::vector<std::uint64_t>& out,
            KdQueryCost& cost) const {
    const Node& n = nodes_[idx];
    const double* l = lo(idx);
    const double* h = l + d_;
    bool disjoint = false, inside = true;
    for (std::size_t j = 0; j < d_; ++j) {
      disjoint |= (h[j] < r.lo[j]) | (l[j] > r.hi[j]);
      inside &= (r.lo[j] <= l[j]) & (h[j] <= r.hi[j]);
    }
    if (disjoint) {
      ++cost.nodes_visited;
    } else if (inside && nan_free_) {
      cost.nodes_visited += n.nodes;
      cost.points_examined += n.end - n.begin;
      emit_all(idx, out);
    } else if (n.right != 0) {
      ++cost.nodes_visited;
      walk(r, n.right, out, cost);
      walk(r, idx + 1, out, cost);
    } else {
      ++cost.nodes_visited;
      cost.points_examined += n.end - n.begin;
      for (std::uint32_t s = n.begin; s < n.end; ++s) {
        bool in = true;
        for (std::size_t j = 0; j < d_; ++j)
          in &= (at(order_[s])[j] >= r.lo[j]) & (at(order_[s])[j] <= r.hi[j]);
        if (in) out.push_back(order_[s]);
      }
    }
  }

  std::size_t d_;
  std::vector<double> pts_;
  std::vector<std::uint32_t> order_;
  std::vector<Node> nodes_;
  std::vector<double> bounds_;
  bool nan_free_ = true;
};

enum class BuildData { kClustered, kDuplicates, kAllEqual, kSignedZeros, kNaN };

constexpr BuildData kBuildDataKinds[] = {
    BuildData::kClustered, BuildData::kDuplicates, BuildData::kAllEqual,
    BuildData::kSignedZeros, BuildData::kNaN};

/// Row-major points stressing the median splits: tight blobs, a 0.25
/// lattice (many ties), one repeated point, +0.0/-0.0 mixed with a few
/// values, and uniform data with ~10% NaN coordinates.
std::vector<double> build_data(BuildData kind, std::size_t n, std::size_t d,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> centres(3 * d);
  for (auto& v : centres) v = rng.uniform();
  std::vector<double> out(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      double& v = out[i * d + j];
      switch (kind) {
        case BuildData::kClustered:
          v = centres[(i % 3) * d + j] + rng.normal(0.0, 0.02);
          break;
        case BuildData::kDuplicates:
          v = 0.25 * static_cast<double>(rng.uniform_index(5));
          break;
        case BuildData::kAllEqual:
          v = 0.5;
          break;
        case BuildData::kSignedZeros: {
          constexpr double kPick[] = {0.0, -0.0, 0.0, -0.0, 1.0, -1.0};
          v = kPick[rng.uniform_index(std::size(kPick))];
          break;
        }
        case BuildData::kNaN:
          v = rng.uniform() < 0.1 ? std::numeric_limits<double>::quiet_NaN()
                                  : rng.uniform();
          break;
      }
    }
  }
  return out;
}

class KdBuildDiff : public ::testing::TestWithParam<std::size_t> {};

// 100 seeds x every data kind, sizes around the leaf size (16), the
// direct-to-pool subtree size (1024) and the parallel-build threshold
// (4096); under SEA_THREADS=8 the larger trees build by subtree on the
// pool. The slot order must equal the reference builder's, and range walks
// must return the same ids in the same order at the same cost.
TEST_P(KdBuildDiff, RecordBuilderMatchesIndirectReference) {
  const std::size_t d = GetParam();
  constexpr std::size_t kSizes[] = {0,   1,    15,   16,   17,   33,  300,
                                    1023, 1025, 4095, 4096, 4097, 9000};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const BuildData kind : kBuildDataKinds) {
      const std::size_t n =
          kSizes[(seed + d + static_cast<std::size_t>(kind)) %
                 std::size(kSizes)];
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " kind=" + std::to_string(static_cast<int>(kind)) +
                   " n=" + std::to_string(n));
      const auto pts = build_data(kind, n, d, seed * 131 + d);
      const KdTree tree(d, pts);
      const RefKdTree ref(d, pts);
      const auto ref_ids = ref.slot_ids();
      ASSERT_TRUE(std::equal(tree.slot_ids().begin(), tree.slot_ids().end(),
                             ref_ids.begin(), ref_ids.end()));
      Rng rng(seed * 17 + d);
      for (int q = 0; q < 4; ++q) {
        Rect r;
        for (std::size_t j = 0; j < d; ++j) {
          double a = rng.uniform(-1.1, 1.1), b = rng.uniform(-1.1, 1.1);
          if (n > 0 && rng.uniform() < 0.5) {
            const double snap = pts[rng.uniform_index(n) * d + j];
            if (!std::isnan(snap)) a = snap;
          }
          r.lo.push_back(std::min(a, b));
          r.hi.push_back(std::max(a, b));
        }
        KdQueryCost got_cost, ref_cost;
        EXPECT_EQ(tree.range_query(r, &got_cost),
                  ref.range_query(r, &ref_cost));
        EXPECT_TRUE(same_cost(got_cost, ref_cost));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdBuildDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(KdTree, EmptyTreeVisitsNothing) {
  for (const KdTree& tree : {KdTree(), KdTree(std::vector<Point>{}),
                             KdTree(2, std::vector<double>{})}) {
    CountVisitor count;
    KdQueryCost cost;
    tree.visit_range(Rect{{0, 0}, {1, 1}}, count, &cost);
    tree.visit_radius(Ball{{0, 0}, 1.0}, count, &cost);
    EXPECT_EQ(count.count, 0u);
    EXPECT_EQ(cost.nodes_visited, 0u);
    EXPECT_EQ(tree.dims(), 0u);
  }
}

TEST(KdTree, FlatConstructorMatchesPointConstructor) {
  const auto pts = kd_data(KdData::kClustered, 500, 3, 77);
  std::vector<double> coords;
  for (const auto& p : pts) coords.insert(coords.end(), p.begin(), p.end());
  std::vector<std::uint64_t> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + i;
  const KdTree a(pts, ids);
  const KdTree b(3, coords, ids);
  ASSERT_TRUE(std::equal(a.slot_ids().begin(), a.slot_ids().end(),
                         b.slot_ids().begin(), b.slot_ids().end()));
  Rng rng(78);
  for (int i = 0; i < 20; ++i) {
    const Rect r = kd_rect(pts, 3, rng);
    EXPECT_EQ(a.range_query(r), b.range_query(r));
  }
  EXPECT_THROW(KdTree(3, std::vector<double>(7)), std::invalid_argument);
  EXPECT_THROW(KdTree(0, std::vector<double>(2)), std::invalid_argument);
  EXPECT_THROW(KdTree(2, std::vector<double>(4), {1}), std::invalid_argument);
  EXPECT_THROW(KdTree(std::vector<Point>{{}}), std::invalid_argument);
  EXPECT_THROW(KdTree(std::vector<Point>{{0.0}, {0.0, 1.0}}),
               std::invalid_argument);
}

// NaN coordinates fail every ball and rectangle test, so a tree holding
// them must not take a contained node whole (its bounds skip NaN): both
// counts must match brute force.
TEST(KdTree, NanCoordinatesKeepShortcutSound) {
  auto pts = kd_data(KdData::kUniform, 200, 2, 91);
  for (std::size_t i = 0; i < pts.size(); i += 7)
    pts[i][i % 2] = std::numeric_limits<double>::quiet_NaN();
  const KdTree tree(pts);
  Rng rng(92);
  for (int i = 0; i < 40; ++i) {
    const Rect r = kd_rect(pts, 2, rng);
    const Ball b = kd_ball(pts, 2, rng);
    CountVisitor rc, bc;
    KdQueryCost rcost, bcost, rref, bref;
    tree.visit_range(r, rc, &rcost);
    tree.visit_radius(b, bc, &bcost);
    EXPECT_EQ(bc.count, brute_radius(pts, b).size());
    EXPECT_EQ(rc.count, brute_range(pts, r).size());
    EXPECT_EQ(rc.count, tree.range_query(r, &rref).size());
    EXPECT_EQ(bc.count, tree.radius_query(b, &bref).size());
    EXPECT_TRUE(same_cost(rcost, rref));
    EXPECT_TRUE(same_cost(bcost, bref));
  }
}

TEST(KdTree, VisitDimensionMismatchThrows) {
  const KdTree tree(random_points(10, 2, 3));
  CountVisitor v;
  EXPECT_THROW(tree.visit_range(Rect{{0.0}, {1.0}}, v), std::invalid_argument);
  EXPECT_THROW(tree.visit_radius(Ball{{0.0}, 1.0}, v), std::invalid_argument);
  EXPECT_THROW(tree.radius_query(Ball{{0.0}, 1.0}), std::invalid_argument);
}

TEST(BuildKdTreeFromTable, UsesRowIndices) {
  const Table t = make_clustered_dataset(200, 2, 2, 4);
  const std::vector<std::size_t> cols = {0, 1};
  KdTree tree = build_kdtree(t, cols);
  EXPECT_EQ(tree.size(), 200u);
  Rect all{{-10, -10}, {10, 10}};
  auto got = tree.range_query(all);
  EXPECT_EQ(got.size(), 200u);
  EXPECT_LT(*std::max_element(got.begin(), got.end()), 200u);
}

/// Expects both trees to hold the same slots and to answer range and
/// radius walks with the same ids, in the same order, at the same cost.
void expect_same_tree(const KdTree& a, const KdTree& b, std::size_t d,
                      std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.dims(), b.dims());
  EXPECT_TRUE(std::equal(a.slot_ids().begin(), a.slot_ids().end(),
                         b.slot_ids().begin(), b.slot_ids().end()));
  if (a.empty()) return;
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    Rect r;
    Ball ball;
    for (std::size_t j = 0; j < d; ++j) {
      const double c = rng.uniform(-1.0, 2.0), w = rng.uniform(0.05, 1.5);
      r.lo.push_back(c - w);
      r.hi.push_back(c + w);
      ball.center.push_back(c);
    }
    ball.radius = rng.uniform(0.1, 2.0);
    KdQueryCost ca, cb;
    EXPECT_EQ(a.range_query(r, &ca), b.range_query(r, &cb));
    EXPECT_EQ(a.radius_query(ball, &ca), b.radius_query(ball, &cb));
    EXPECT_TRUE(same_cost(ca, cb));
  }
}

// The shard fan-out builds the same trees as one build_kdtree per table
// and as the flat constructor, serially or on 8 workers: across partition
// sizes around the parallel threshold, an empty partition, reordered
// columns, and d = 12 (indirect builder, one partition at a time).
TEST(BuildKdTrees, MatchesPerTableBuildsAtAnyThreadCount) {
  const std::size_t before = configured_threads();
  constexpr std::size_t kRows[] = {5000, 0, 17, 4097, 300, 9000};
  for (const std::size_t d : {1, 2, 5, 12}) {
    std::vector<Table> tables;
    for (std::size_t p = 0; p < std::size(kRows); ++p)
      tables.push_back(make_clustered_dataset(kRows[p], d, 3, 60 + p + d));
    std::vector<const Table*> parts;
    for (const Table& t : tables) parts.push_back(&t);
    std::vector<std::size_t> cols(d);
    std::iota(cols.rbegin(), cols.rend(), std::size_t{0});  // d-1, ..., 0
    // build_kdtree per table, and the flat constructor over the same
    // coordinates gathered here (a second loading path).
    std::vector<KdTree> per_table, flat;
    for (const Table& t : tables) {
      per_table.push_back(build_kdtree(t, cols));
      std::vector<double> coords;
      for (std::size_t r = 0; r < t.num_rows(); ++r)
        for (const std::size_t c : cols) coords.push_back(t.at(r, c));
      flat.push_back(KdTree(d, std::move(coords)));
    }
    for (const std::size_t threads : {1, 8}) {
      SCOPED_TRACE("d=" + std::to_string(d) +
                   " threads=" + std::to_string(threads));
      set_configured_threads(threads);
      const std::vector<KdTree> shards = build_kdtrees(parts, cols);
      ASSERT_EQ(shards.size(), tables.size());
      for (std::size_t p = 0; p < tables.size(); ++p) {
        EXPECT_EQ(shards[p].size(), kRows[p]);
        expect_same_tree(shards[p], per_table[p], d, 70 + p);
        expect_same_tree(shards[p], flat[p], d, 80 + p);
      }
    }
  }
  EXPECT_TRUE(build_kdtrees({}, std::vector<std::size_t>{0, 1}).empty());
  set_configured_threads(before);
}

class GridDims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridDims, RangeAndRadiusMatchBruteForce) {
  const std::size_t d = GetParam();
  auto pts = random_points(500, d, 700 + d);
  Rect domain;
  domain.lo.assign(d, 0.0);
  domain.hi.assign(d, 1.0);
  GridIndex grid(pts, domain, 8);
  Rng rng(800 + d);
  for (int trial = 0; trial < 15; ++trial) {
    Rect r;
    r.lo.resize(d);
    r.hi.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
      const double a = rng.uniform(), b = rng.uniform();
      r.lo[i] = std::min(a, b);
      r.hi[i] = std::max(a, b);
    }
    auto got = grid.range_query(r);
    std::set<std::uint64_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_range(pts, r));

    Ball ball;
    ball.center.resize(d);
    for (auto& v : ball.center) v = rng.uniform();
    ball.radius = rng.uniform(0.05, 0.3);
    auto rgot = grid.radius_query(ball);
    std::set<std::uint64_t> rgot_set(rgot.begin(), rgot.end());
    EXPECT_EQ(rgot_set, brute_radius(pts, ball));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GridDims, ::testing::Values(1, 2, 3));

TEST(Grid, KnnMatchesBruteForce) {
  auto pts = random_points(400, 2, 900);
  Rect domain{{0, 0}, {1, 1}};
  GridIndex grid(pts, domain, 10);
  Rng rng(901);
  for (int trial = 0; trial < 10; ++trial) {
    Point q = {rng.uniform(), rng.uniform()};
    auto got = grid.knn(q, 7);
    auto expected = brute_knn(pts, q, 7);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i].second, euclidean_distance(q, pts[expected[i]]),
                  1e-9);
  }
}

TEST(Grid, PointsOutsideDomainClamped) {
  std::vector<Point> pts = {{-5.0, 0.5}, {5.0, 0.5}};
  Rect domain{{0, 0}, {1, 1}};
  GridIndex grid(pts, domain, 4);
  Rect all{{-10, -10}, {10, 10}};
  EXPECT_EQ(grid.range_query(all).size(), 2u);
}

TEST(Grid, RejectsCellExplosion) {
  Rect domain;
  domain.lo.assign(10, 0.0);
  domain.hi.assign(10, 1.0);
  EXPECT_THROW(GridIndex({}, domain, 100), std::invalid_argument);
}

// ---- degenerate-input regressions (the cases cell arithmetic gets wrong) ----

TEST(Grid, KnnQueryFarOutsideDomain) {
  // A query far outside the domain clamps to a border cell; the ring walk
  // must still expand until every point is reachable, not stop at the
  // domain diagonal.
  auto pts = random_points(200, 2, 910);
  Rect domain{{0, 0}, {1, 1}};
  GridIndex grid(pts, domain, 8);
  for (const Point q : {Point{50.0, -50.0}, Point{-3.0, 0.5}, Point{0.5, 9.0}}) {
    auto got = grid.knn(q, 5);
    auto expected = brute_knn(pts, q, 5);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i].second, euclidean_distance(q, pts[expected[i]]), 1e-9);
  }
}

TEST(Grid, KnnDegenerateAllEqualPoints) {
  // lo == hi in every dimension: zero-width cells must not divide by zero,
  // and every point still has to be found.
  std::vector<Point> pts(17, Point{0.25, 0.25});
  Rect domain{{0.25, 0.25}, {0.25, 0.25}};
  GridIndex grid(pts, domain, 4);
  const Point at{0.25, 0.25};
  auto got = grid.knn(at, 5);
  ASSERT_EQ(got.size(), 5u);
  for (const auto& [id, dist] : got) EXPECT_DOUBLE_EQ(dist, 0.0);
  const Point away{100.0, -100.0};
  auto far = grid.knn(away, 3);
  ASSERT_EQ(far.size(), 3u);
}

TEST(Grid, KnnSingleRowAndOverAsk) {
  std::vector<Point> pts = {{0.3, 0.7}};
  Rect domain{{0, 0}, {1, 1}};
  GridIndex grid(pts, domain, 4);
  const Point corner{0.9, 0.9};
  auto one = grid.knn(corner, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 0u);
  // k larger than the population: return everything, never loop forever.
  const Point origin{0.0, 0.0};
  auto all = grid.knn(origin, 10);
  EXPECT_EQ(all.size(), 1u);
  GridIndex empty({}, domain, 4);
  const Point center{0.5, 0.5};
  EXPECT_TRUE(empty.knn(center, 3).empty());
}

// A NaN query coordinate puts every distance at NaN: both placements
// return the k lowest ids at once, as the k-d tree does, instead of
// doubling their search radius forever.
TEST(Grid, KnnNanQueryReturnsLowestIds) {
  const auto pts = random_points(50, 2, 913);
  const Rect domain{{0, 0}, {1, 1}};
  const Point q{std::numeric_limits<double>::quiet_NaN(), 0.5};
  const auto tree = KdTree(pts).knn(q, 3);
  for (const CellPlacement p : {CellPlacement::kUniform,
                                CellPlacement::kLearned}) {
    const auto got = GridIndex(pts, domain, 4, p).knn(q, 3);
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, i);
      EXPECT_TRUE(std::isnan(got[i].second));
      EXPECT_EQ(got[i].first, tree[i].first);
    }
  }
}

TEST(Grid, RangeQueryOutsideDomainIsEmpty) {
  auto pts = random_points(100, 2, 911);
  Rect domain{{0, 0}, {1, 1}};
  GridIndex grid(pts, domain, 8);
  EXPECT_TRUE(grid.range_query(Rect{{5, 5}, {6, 6}}).empty());
  EXPECT_TRUE(grid.range_query(Rect{{-4, -4}, {-2, -2}}).empty());
  // Inverted rectangle (hi < lo) selects nothing.
  EXPECT_TRUE(grid.range_query(Rect{{0.8, 0.8}, {0.2, 0.2}}).empty());
}

TEST(Grid, CellOffsetsFormValidCsr) {
  auto pts = random_points(500, 2, 912);
  Rect domain{{0, 0}, {1, 1}};
  GridIndex grid(pts, domain, 8);
  const auto offsets = grid.cell_offsets();
  ASSERT_EQ(offsets.size(), grid.num_cells() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), pts.size());
  EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
}

TEST(EquiDepthHistogram, RobustUnderSkew) {
  Rng rng(77);
  std::vector<double> vals;
  for (int i = 0; i < 10000; ++i)
    vals.push_back(std::pow(rng.uniform(), 4.0));  // mass near 0
  EquiDepthHistogram h(vals, 64);
  std::size_t truth = 0;
  for (const double v : vals)
    if (v <= 0.1) ++truth;
  EXPECT_NEAR(h.estimate_range(0.0, 0.1), static_cast<double>(truth),
              0.05 * 10000);
}

TEST(EquiDepthHistogram, EmptyInput) {
  EquiDepthHistogram h(std::vector<double>{}, 8);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.estimate_range(0, 1), 0.0);
}

TEST(ProductHistogram, IndependentDataEstimatesWell) {
  auto pts = random_points(20000, 2, 55);
  ProductHistogram h(pts, 32);
  Rect r{{0.2, 0.3}, {0.6, 0.7}};
  std::size_t truth = 0;
  for (const auto& p : pts)
    if (r.contains(p)) ++truth;
  EXPECT_NEAR(h.estimate_count(r), static_cast<double>(truth), 0.05 * 20000);
}

TEST(ProductHistogram, DimsMismatchThrows) {
  auto pts = random_points(10, 2, 56);
  ProductHistogram h(pts, 4);
  Rect r{{0.0}, {1.0}};
  EXPECT_THROW(h.estimate_count(r), std::invalid_argument);
}

TEST(Bloom, NoFalseNegatives) {
  BloomFilter b(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) b.insert(k * 7919);
  for (std::uint64_t k = 0; k < 1000; ++k)
    EXPECT_TRUE(b.may_contain(k * 7919));
}

TEST(Bloom, FalsePositiveRateBounded) {
  BloomFilter b(2000, 0.01);
  for (std::uint64_t k = 0; k < 2000; ++k) b.insert(k);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i)
    if (b.may_contain(1000000 + static_cast<std::uint64_t>(i))) ++fp;
  EXPECT_LT(static_cast<double>(fp) / probes, 0.03);
}

TEST(Bloom, EmptyContainsNothing) {
  BloomFilter b(100, 0.01);
  EXPECT_FALSE(b.may_contain(42));
}

TEST(Bloom, InvalidRateThrows) {
  EXPECT_THROW(BloomFilter(10, 0.0), std::invalid_argument);
  EXPECT_THROW(BloomFilter(10, 1.0), std::invalid_argument);
}

TEST(ScoreIndex, SortedAccessDescending) {
  const Table t = make_scored_relation(500, 40, 1.0, 31);
  ScoreIndex idx(t, 0, 1, 2);
  EXPECT_EQ(idx.size(), 500u);
  for (std::size_t r = 1; r < idx.size(); ++r)
    EXPECT_LE(idx.by_rank(r).score, idx.by_rank(r - 1).score);
}

TEST(ScoreIndex, RandomAccessFindsAllKeyTuples) {
  const Table t = make_scored_relation(500, 20, 1.0, 32);
  ScoreIndex idx(t, 0, 1, 2);
  for (std::uint64_t key = 0; key < 20; ++key) {
    std::size_t truth = 0;
    for (std::size_t r = 0; r < t.num_rows(); ++r)
      if (static_cast<std::uint64_t>(t.at(r, 0)) == key) ++truth;
    EXPECT_EQ(idx.ranks_for_key(key).size(), truth);
  }
}

TEST(ScoreIndex, BestScoreForKey) {
  const Table t = make_scored_relation(500, 20, 1.0, 33);
  ScoreIndex idx(t, 0, 1, 2);
  for (std::uint64_t key = 0; key < 20; ++key) {
    double best = -1e300;
    for (std::size_t r = 0; r < t.num_rows(); ++r)
      if (static_cast<std::uint64_t>(t.at(r, 0)) == key)
        best = std::max(best, t.at(r, 1));
    if (best > -1e300)
      EXPECT_DOUBLE_EQ(idx.best_score_for_key(key), best);
    else
      EXPECT_TRUE(std::isinf(idx.best_score_for_key(key)));
  }
}

TEST(ScoreIndex, MissingKeyIsEmpty) {
  const Table t = make_scored_relation(100, 10, 1.0, 34);
  ScoreIndex idx(t, 0, 1, 2);
  EXPECT_TRUE(idx.ranks_for_key(9999).empty());
}

}  // namespace
}  // namespace sea
