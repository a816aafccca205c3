// Unit tests: ML substrate (linear models, quantizers, kNN models, GBM,
// drift detectors).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/drift.h"
#include "ml/gbm.h"
#include "ml/kmeans.h"
#include "ml/knn_model.h"
#include "ml/linear.h"
#include "ml/matrix.h"

namespace sea {
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
