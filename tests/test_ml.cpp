// Unit tests: ML substrate (linear models, quantizers, kNN models, GBM,
// drift detectors).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "gbm_reference.h"
#include "ml/drift.h"
#include "ml/gbm.h"
#include "ml/kmeans.h"
#include "ml/knn_model.h"
#include "ml/linear.h"
#include "ml/matrix.h"
#include "sea/agent.h"

namespace sea {

// Test-only view of a fitted GbmRegressor's trees, node for node.
struct GbmTestAccess {
  static const auto& trees(const GbmRegressor& m) { return m.trees_; }
};

namespace {

TEST(Cholesky, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  const auto x = cholesky_solve(a, {2.0, 5.0});
  // 4x + 2y = 2; 2x + 3y = 5 => x = -0.5, y = 2.
  EXPECT_NEAR(x[0], -0.5, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(cholesky_solve(a, {1.0, 1.0}), std::runtime_error);
}

TEST(Cholesky, ShapeMismatchThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(cholesky_solve(a, {1.0, 1.0}), std::invalid_argument);
}

TEST(LinearModel, RecoversExactCoefficients) {
  Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    x.push_back({a, b});
    y.push_back(3.0 * a - 2.0 * b + 0.7);
  }
  LinearModel m;
  m.fit(x, y, 0.0);
  EXPECT_NEAR(m.weights()[0], 3.0, 1e-6);
  EXPECT_NEAR(m.weights()[1], -2.0, 1e-6);
  EXPECT_NEAR(m.intercept(), 0.7, 1e-6);
  EXPECT_NEAR(m.r_squared(), 1.0, 1e-9);
  EXPECT_NEAR(m.predict(std::vector<double>{0.5, 0.5}), 1.2, 1e-6);
}

TEST(LinearModel, NoisyFitStillClose) {
  Rng rng(2);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform();
    x.push_back({a});
    y.push_back(5.0 * a + 1.0 + rng.normal(0.0, 0.1));
  }
  LinearModel m;
  m.fit(x, y);
  EXPECT_NEAR(m.weights()[0], 5.0, 0.05);
  EXPECT_NEAR(m.intercept(), 1.0, 0.05);
  EXPECT_GT(m.r_squared(), 0.95);
}

TEST(LinearModel, RidgeShrinksWeights) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform();
    x.push_back({a});
    y.push_back(10.0 * a);
  }
  LinearModel none, heavy;
  none.fit(x, y, 1e-9);
  heavy.fit(x, y, 100.0);
  EXPECT_LT(std::abs(heavy.weights()[0]), std::abs(none.weights()[0]));
}

TEST(LinearModel, DegenerateDesignStillSolves) {
  // Constant feature: jitter keeps the normal equations solvable.
  std::vector<std::vector<double>> x(10, {1.0});
  std::vector<double> y(10, 5.0);
  LinearModel m;
  m.fit(x, y);
  EXPECT_NEAR(m.predict(std::vector<double>{1.0}), 5.0, 1e-3);
}

TEST(LinearModel, ErrorsOnBadInput) {
  LinearModel m;
  std::vector<std::vector<double>> x = {{1.0}};
  std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(m.fit(x, y), std::invalid_argument);
  EXPECT_THROW(m.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  Rng rng(5);
  std::vector<Point> pts;
  const std::vector<Point> centers = {{0.1, 0.1}, {0.9, 0.9}, {0.1, 0.9}};
  for (int i = 0; i < 300; ++i) {
    const auto& c = centers[i % 3];
    pts.push_back({c[0] + rng.normal(0, 0.02), c[1] + rng.normal(0, 0.02)});
  }
  KMeans km(3, 6);
  const double inertia = km.fit(pts);
  EXPECT_LT(inertia / 300.0, 0.01);
  // Every true centre has a fitted centre nearby.
  for (const auto& c : centers) {
    const auto a = km.assign(c);
    EXPECT_LT(euclidean_distance(c, km.centers()[a]), 0.05);
  }
}

TEST(KMeans, AssignPicksNearest) {
  std::vector<Point> pts = {{0.0}, {1.0}};
  KMeans km(2, 7);
  km.fit(pts);
  EXPECT_NE(km.assign(std::vector<double>{0.01}),
            km.assign(std::vector<double>{0.99}));
}

TEST(KMeans, KLargerThanPointsClamps) {
  std::vector<Point> pts = {{0.0}, {1.0}};
  KMeans km(10, 8);
  km.fit(pts);
  EXPECT_LE(km.k(), 2u);
}

TEST(OnlineQuantizer, CreatesQuantaForDistantQueries) {
  OnlineQuantizer q(16, 0.1);
  q.observe(std::vector<double>{0.1, 0.1});
  q.observe(std::vector<double>{0.9, 0.9});
  EXPECT_EQ(q.size(), 2u);
}

TEST(OnlineQuantizer, AbsorbsNearbyQueries) {
  OnlineQuantizer q(16, 0.2);
  const auto a = q.observe(std::vector<double>{0.5, 0.5});
  const auto b = q.observe(std::vector<double>{0.52, 0.51});
  EXPECT_EQ(a, b);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.quantum(a).population, 2u);
}

TEST(OnlineQuantizer, CentroidTracksMembers) {
  OnlineQuantizer q(4, 0.5);
  q.observe(std::vector<double>{0.0});
  for (int i = 0; i < 200; ++i) q.observe(std::vector<double>{0.4});
  EXPECT_NEAR(q.quantum(0).center[0], 0.4, 0.1);
}

TEST(OnlineQuantizer, RespectsCapacity) {
  OnlineQuantizer q(2, 0.01);
  Rng rng(9);
  for (int i = 0; i < 100; ++i)
    q.observe(std::vector<double>{rng.uniform(), rng.uniform()});
  EXPECT_EQ(q.size(), 2u);
}

TEST(OnlineQuantizer, PurgeRemovesStaleQuanta) {
  OnlineQuantizer q(8, 0.1);
  q.observe(std::vector<double>{0.0, 0.0});  // becomes stale
  for (int i = 0; i < 50; ++i) q.observe(std::vector<double>{1.0, 1.0});
  std::vector<std::size_t> remap;
  const auto removed = q.purge_stale(10, &remap);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], 0u);
  EXPECT_EQ(remap[0], SIZE_MAX);
  EXPECT_EQ(remap[1], 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(OnlineQuantizer, AssignOnEmptyReturnsSentinel) {
  OnlineQuantizer q(4, 0.1);
  EXPECT_EQ(q.assign(std::vector<double>{0.5}), SIZE_MAX);
  EXPECT_TRUE(std::isinf(q.nearest_distance(std::vector<double>{0.5})));
}

TEST(KnnRegressor, InterpolatesLocally) {
  KnnRegressor m(3);
  for (int i = 0; i <= 10; ++i)
    m.add({i * 0.1}, i * 0.1 * 2.0);  // y = 2x
  EXPECT_NEAR(m.predict(std::vector<double>{0.55}), 1.1, 0.15);
}

TEST(KnnRegressor, ExactOnStoredPoint) {
  KnnRegressor m(1);
  m.add({0.5}, 7.0);
  m.add({0.9}, 1.0);
  EXPECT_NEAR(m.predict(std::vector<double>{0.5}), 7.0, 1e-6);
}

TEST(KnnRegressor, EmptyThrows) {
  KnnRegressor m(3);
  EXPECT_THROW(m.predict(std::vector<double>{0.0}), std::logic_error);
}

TEST(Gbm, FitsNonlinearFunction) {
  Rng rng(10);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 1500; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    x.push_back({a, b});
    y.push_back(std::sin(6.0 * a) + (b > 0.5 ? 2.0 : 0.0));
  }
  GbmParams params;
  params.num_trees = 200;
  params.max_depth = 3;
  GbmRegressor m(params);
  m.fit(x, y);
  double sse = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = m.predict(x[i]) - y[i];
    sse += e * e;
  }
  EXPECT_LT(sse / static_cast<double>(x.size()), 0.02);
}

TEST(Gbm, BeatsLinearOnStepFunction) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform();
    x.push_back({a});
    y.push_back(a > 0.5 ? 10.0 : 0.0);
  }
  LinearModel lin;
  lin.fit(x, y);
  GbmRegressor gbm;
  gbm.fit(x, y);
  double lin_sse = 0, gbm_sse = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    lin_sse += std::pow(lin.predict(x[i]) - y[i], 2);
    gbm_sse += std::pow(gbm.predict(x[i]) - y[i], 2);
  }
  EXPECT_LT(gbm_sse, lin_sse / 10.0);
}

TEST(Gbm, ConstantTargetShortCircuits) {
  std::vector<std::vector<double>> x(20, {1.0});
  std::vector<double> y(20, 3.0);
  GbmRegressor m;
  m.fit(x, y);
  EXPECT_LE(m.num_trees(), 1u);
  EXPECT_NEAR(m.predict(std::vector<double>{1.0}), 3.0, 1e-9);
}

TEST(Gbm, PredictBeforeFitThrows) {
  GbmRegressor m;
  EXPECT_THROW(m.predict(std::vector<double>{1.0}), std::logic_error);
}

// --- GbmFitDiff: the presorted one-pass split search against the old
// per-node sort and per-threshold rescan (bench/gbm_reference.h) ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct GbmCase {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  GbmParams params;
};

/// Features mix four kinds: continuous, duplicate-heavy (4 levels, one of
/// them a randomly signed zero), constant (a mix of +0.0 and -0.0, which
/// compare equal) and continuous with ~25% randomly signed zeros. The
/// parameter combination cycles with the seed, so each (rows, dims) pair
/// sees every max_thresholds x min_leaf x subsample combination.
GbmCase make_gbm_case(std::uint64_t seed, std::size_t rows, std::size_t dims) {
  Rng rng(seed * 1000003 + rows * 131 + dims);
  const auto signed_zero = [&] { return rng.bernoulli(0.5) ? 0.0 : -0.0; };
  std::vector<std::size_t> kind(dims);
  for (auto& k : kind) k = rng.uniform_index(4);
  GbmCase c;
  c.x.assign(rows, std::vector<double>(dims));
  const bool levelled_y = rng.bernoulli(0.25);
  for (std::size_t i = 0; i < rows; ++i) {
    double y = rng.normal(0.0, 0.1);
    for (std::size_t f = 0; f < dims; ++f) {
      double& v = c.x[i][f];
      switch (kind[f]) {
        case 0: v = rng.uniform(-1.0, 1.0); break;
        case 1: {
          const double levels[] = {-1.0, signed_zero(), 0.5, 2.0};
          v = levels[rng.uniform_index(4)];
          break;
        }
        case 2: v = signed_zero(); break;
        default: v = rng.bernoulli(0.25) ? signed_zero() : rng.normal(); break;
      }
      const double term = f % 2 == 0 ? std::sin(3.0 * v) : v * v;
      y += term / static_cast<double>(f + 1);
    }
    c.y.push_back(levelled_y ? std::round(4.0 * y) / 4.0 : y);
  }
  const std::size_t combo = (seed + rows + dims) % 24;
  const std::size_t thresholds[] = {1, 7, 32, 64};
  const std::size_t min_leaf[] = {1, 3, 4};
  c.params.num_trees = 6;
  c.params.max_depth = 2 + seed % 3;
  c.params.learning_rate = seed % 2 == 0 ? 0.1 : 0.3;
  c.params.max_thresholds = thresholds[combo % 4];
  c.params.min_leaf = min_leaf[(combo / 4) % 3];
  c.params.subsample = combo < 12 ? 1.0 : 0.7;
  return c;
}

/// Fits both implementations from same-seed streams and requires identical
/// trees (children, feature, leaf-value and threshold bits), bitwise-equal
/// predictions at every training row and the same stream position after.
/// A zero threshold may differ in sign only: the old per-node std::sort
/// leaves +0.0/-0.0 in an unspecified order, and x <= +0.0 equals
/// x <= -0.0 for every x, which the partition check below confirms.
/// Returns the number of such zero-sign differences.
std::size_t expect_same_fit(const GbmCase& c, std::uint64_t stream) {
  Rng rng_fast(stream), rng_ref(stream);
  GbmRegressor fast(c.params);
  reference::GbmReference ref(c.params);
  fast.fit(c.x, c.y, &rng_fast);
  ref.fit(c.x, c.y, &rng_ref);
  EXPECT_EQ(rng_fast.next_u64(), rng_ref.next_u64());
  const auto& ft = GbmTestAccess::trees(fast);
  const auto& rt = ref.trees();
  std::size_t zero_sign = 0;
  EXPECT_EQ(ft.size(), rt.size());
  if (ft.size() != rt.size()) return zero_sign;
  for (std::size_t t = 0; t < ft.size(); ++t) {
    EXPECT_EQ(ft[t].size(), rt[t].size()) << "tree " << t;
    if (ft[t].size() != rt[t].size()) return zero_sign;
    for (std::size_t k = 0; k < ft[t].size(); ++k) {
      const auto& a = ft[t][k];
      const auto& b = rt[t][k];
      EXPECT_EQ(a.left, b.left) << "tree " << t << " node " << k;
      EXPECT_EQ(a.right, b.right) << "tree " << t << " node " << k;
      EXPECT_EQ(a.feature, b.feature) << "tree " << t << " node " << k;
      EXPECT_EQ(bits(a.value), bits(b.value)) << "tree " << t << " node " << k;
      if (bits(a.threshold) == bits(b.threshold)) continue;
      EXPECT_TRUE(a.threshold == 0.0 && b.threshold == 0.0)
          << "tree " << t << " node " << k << ": " << a.threshold << " vs "
          << b.threshold;
      ++zero_sign;
      for (const auto& row : c.x)
        EXPECT_EQ(row[a.feature] <= a.threshold, row[b.feature] <= b.threshold);
    }
  }
  for (std::size_t i = 0; i < c.x.size(); ++i)
    EXPECT_EQ(bits(fast.predict(c.x[i])), bits(ref.predict(c.x[i])))
        << "row " << i;
  return zero_sign;
}

class GbmFitDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GbmFitDiff, TreesAndPredictionsBitIdenticalToReference) {
  const std::size_t rows = GetParam();
  std::size_t zero_sign = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed)
    for (std::size_t dims = 1; dims <= 8; ++dims) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " rows " << rows << " dims " << dims);
      zero_sign += expect_same_fit(make_gbm_case(seed, rows, dims), seed + 1);
      if (HasFailure()) return;
    }
  RecordProperty("zero_sign_thresholds", static_cast<int>(zero_sign));
}

// The per-quantum configuration the agent refits with (60 trees, depth 3,
// min_leaf 3, 32 thresholds, no subsampling) on 5 continuous features.
TEST_P(GbmFitDiff, QuantumParamsBitIdenticalToReference) {
  const std::size_t rows = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed + 77);
    GbmCase c;
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<double> row(5);
      for (auto& v : row) v = rng.uniform();
      c.y.push_back(std::sin(6.0 * row[0]) + row[1] * row[2] +
                    rng.normal(0.0, 0.05));
      c.x.push_back(std::move(row));
    }
    c.params = DatalessAgent::quantum_gbm_params();
    expect_same_fit(c, seed);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, GbmFitDiff,
                         ::testing::Values(8, 9, 31, 63, 64, 200, 512));

// A NaN feature value satisfies no threshold (x <= thr is false), so it
// routes like +inf; thresholds come from non-NaN values only, and a column
// with fewer than two distinct non-NaN values is never split on.
TEST(Gbm, NanFeaturesAreDeterministicAndRouteRight) {
  Rng rng(21);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < 200; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    y.push_back((a > 0.5 ? 3.0 : 0.0) + b);
    x.push_back({rng.bernoulli(0.2) ? nan : a, i == 7 ? 0.25 : nan,
                 rng.bernoulli(0.1) ? nan : b});
  }
  for (const double subsample : {1.0, 0.7}) {
    SCOPED_TRACE(::testing::Message() << "subsample " << subsample);
    GbmParams params;
    params.num_trees = 30;
    params.subsample = subsample;
    Rng ra(5), rb(5);
    GbmRegressor a(params), b(params);
    a.fit(x, y, &ra);
    b.fit(x, y, &rb);
    ASSERT_GT(a.num_trees(), 0u);
    const auto& ta = GbmTestAccess::trees(a);
    const auto& tb = GbmTestAccess::trees(b);
    ASSERT_EQ(ta.size(), tb.size());
    bool split_any = false;
    for (std::size_t t = 0; t < ta.size(); ++t) {
      ASSERT_EQ(ta[t].size(), tb[t].size());
      for (std::size_t k = 0; k < ta[t].size(); ++k) {
        EXPECT_EQ(bits(ta[t][k].threshold), bits(tb[t][k].threshold));
        EXPECT_EQ(bits(ta[t][k].value), bits(tb[t][k].value));
        if (ta[t][k].left < 0) continue;
        split_any = true;
        EXPECT_NE(ta[t][k].feature, 1u);  // one non-NaN value: never split
        EXPECT_FALSE(std::isnan(ta[t][k].threshold));
      }
    }
    EXPECT_TRUE(split_any);
    for (const auto& row : x) {
      const double p = a.predict(row);
      EXPECT_TRUE(std::isfinite(p));
      EXPECT_EQ(bits(p), bits(b.predict(row)));
      std::vector<double> inf_row = row;
      for (auto& v : inf_row)
        if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
      EXPECT_EQ(bits(p), bits(a.predict(inf_row)));
    }
  }
}

// The NaN rule at one node, against a brute-force stump: candidate
// thresholds are the quantile positions of each feature's sorted non-NaN
// values, and a threshold's left side is the rows with x <= thr, summed in
// row order (NaN rows always go right).
TEST(Gbm, NanRuleMatchesBruteForceStump) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed + 300);
    const std::size_t rows = 40, dims = 3;
    std::vector<std::vector<double>> x(rows, std::vector<double>(dims));
    std::vector<double> y(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (auto& v : x[i]) v = rng.bernoulli(0.3) ? nan : rng.uniform();
      y[i] = (std::isnan(x[i][0]) ? 2.0 : 5.0 * x[i][0]) + rng.normal(0.0, 0.1);
    }
    GbmParams params;
    params.num_trees = 1;
    params.max_depth = 1;
    params.min_leaf = 3;
    params.max_thresholds = 7;
    GbmRegressor m(params);
    m.fit(x, y);

    double mean = 0.0;
    for (const double v : y) mean += v;
    mean /= static_cast<double>(rows);
    std::vector<double> res(rows);
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      res[i] = y[i] - mean;
      sum += res[i];
      sum_sq += res[i] * res[i];
    }
    const double parent_sse = sum_sq - sum * sum / static_cast<double>(rows);
    double best_gain = 1e-12, best_thr = 0.0;
    std::uint32_t best_f = 0;
    for (std::uint32_t f = 0; f < dims; ++f) {
      std::vector<double> vals;
      for (const auto& row : x)
        if (!std::isnan(row[f])) vals.push_back(row[f]);
      std::sort(vals.begin(), vals.end());
      if (vals.size() < 2 || vals.front() == vals.back()) continue;
      const std::size_t nv = vals.size();
      const std::size_t steps = std::min(params.max_thresholds, nv - 1);
      for (std::size_t s = 1; s <= steps; ++s) {
        const double thr = vals[s * (nv - 1) / (steps + 1)];
        double lsum = 0.0, lsq = 0.0;
        std::size_t ln = 0;
        for (std::size_t i = 0; i < rows; ++i)
          if (x[i][f] <= thr) {
            lsum += res[i];
            lsq += res[i] * res[i];
            ++ln;
          }
        const std::size_t rn = rows - ln;
        if (ln < params.min_leaf || rn < params.min_leaf) continue;
        const double rsum = sum - lsum, rsq = sum_sq - lsq;
        const double gain = parent_sse - (lsq - lsum * lsum / ln) -
                            (rsq - rsum * rsum / rn);
        if (gain > best_gain) {
          best_gain = gain;
          best_f = f;
          best_thr = thr;
        }
      }
    }
    const auto& tree = GbmTestAccess::trees(m).at(0);
    ASSERT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree[0].feature, best_f);
    EXPECT_EQ(bits(tree[0].threshold), bits(best_thr));
  }
}

TEST(AdwinLite, DetectsShiftAndKeepsRecent) {
  AdwinLiteDetector d(64, 0.01);
  Rng rng(13);
  bool alarmed = false;
  for (int i = 0; i < 200; ++i) alarmed |= d.add(rng.normal(0.0, 0.1));
  EXPECT_FALSE(alarmed);
  for (int i = 0; i < 200 && !alarmed; ++i)
    alarmed = d.add(rng.normal(3.0, 0.1));
  EXPECT_TRUE(alarmed);
}

TEST(AdwinLite, QuietOnStationaryStream) {
  AdwinLiteDetector d(64, 0.001);
  Rng rng(14);
  int alarms = 0;
  for (int i = 0; i < 5000; ++i)
    if (d.add(rng.normal(1.0, 0.3))) ++alarms;
  EXPECT_LE(alarms, 2);
}

TEST(Drift, InvalidParamsThrow) {
  EXPECT_THROW(AdwinLiteDetector(2, 0.01), std::invalid_argument);
  EXPECT_THROW(AdwinLiteDetector(64, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace sea
