// Unit + property tests: query model, feature extraction, aggregate state.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"
#include "sea/aggregate.h"
#include "sea/query.h"
#include "test_util.h"

namespace sea {
namespace {

TEST(Query, ValidateAcceptsGoodQueries) {
  auto q = testing::range_count_query(0, 1, 0, 1);
  EXPECT_NO_THROW(q.validate());

  AnalyticalQuery radius;
  radius.selection = SelectionType::kRadius;
  radius.subspace_cols = {0, 1};
  radius.ball = {{0.5, 0.5}, 0.1};
  EXPECT_NO_THROW(radius.validate());

  AnalyticalQuery knn;
  knn.selection = SelectionType::kNearestNeighbors;
  knn.subspace_cols = {0};
  knn.knn_point = {0.5};
  knn.knn_k = 5;
  EXPECT_NO_THROW(knn.validate());
}

TEST(Query, ValidateRejectsBadQueries) {
  AnalyticalQuery q;
  EXPECT_THROW(q.validate(), std::invalid_argument);  // no cols

  q.subspace_cols = {0, 1};
  q.range.lo = {0.0};  // dims mismatch
  q.range.hi = {1.0};
  EXPECT_THROW(q.validate(), std::invalid_argument);

  AnalyticalQuery knn;
  knn.selection = SelectionType::kNearestNeighbors;
  knn.subspace_cols = {0};
  knn.knn_point = {0.5};
  knn.knn_k = 0;
  EXPECT_THROW(knn.validate(), std::invalid_argument);
}

// Compares with NaN are false, so the plain bound checks (`lo > hi`,
// `radius < 0`) would let a NaN selection through to the model features.
TEST(Query, ValidateRejectsNaNSelections) {
  const double nan = std::nan("");
  const Rect domain{{0.0, 0.0}, {1.0, 1.0}};
  std::vector<AnalyticalQuery> bad;
  for (const int slot : {0, 1, 2, 3}) {
    auto q = testing::range_count_query(0.1, 0.9, 0.1, 0.9);
    (slot < 2 ? q.range.lo : q.range.hi)[slot % 2] = nan;
    bad.push_back(q);
  }
  AnalyticalQuery radius;
  radius.selection = SelectionType::kRadius;
  radius.subspace_cols = {0, 1};
  radius.ball = {{0.5, 0.5}, nan};
  bad.push_back(radius);
  radius.ball = {{0.5, nan}, 0.1};
  bad.push_back(radius);
  AnalyticalQuery knn;
  knn.selection = SelectionType::kNearestNeighbors;
  knn.subspace_cols = {0, 1};
  knn.knn_point = {nan, 0.5};
  knn.knn_k = 5;
  bad.push_back(knn);
  for (const AnalyticalQuery& q : bad) {
    SCOPED_TRACE(q.describe());
    EXPECT_THROW(q.validate(), std::invalid_argument);
    EXPECT_THROW(extract_features(q, domain), std::invalid_argument);
  }
  // Infinite bounds and a zero radius stay valid.
  auto wide = testing::range_count_query(
      -std::numeric_limits<double>::infinity(), 1.0, 0.0,
      std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(wide.validate());
  radius.ball = {{0.5, 0.5}, 0.0};
  EXPECT_NO_THROW(radius.validate());
}

TEST(Query, SignatureSeparatesTaskFamilies) {
  auto a = testing::range_count_query(0, 1, 0, 1);
  auto b = a;
  EXPECT_EQ(a.signature(), b.signature());
  b.analytic = AnalyticType::kAvg;
  b.target_col = 2;
  EXPECT_NE(a.signature(), b.signature());
  auto c = a;
  c.selection = SelectionType::kRadius;
  c.ball = {{0.5, 0.5}, 0.1};
  EXPECT_NE(a.signature(), c.signature());
}

TEST(Query, SignatureIgnoresGeometry) {
  const auto a = testing::range_count_query(0.1, 0.2, 0.1, 0.2);
  const auto b = testing::range_count_query(0.7, 0.9, 0.5, 0.8);
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(Query, SelectionCenter) {
  const auto q = testing::range_count_query(0.2, 0.4, 0.6, 1.0);
  const Point c = q.selection_center();
  EXPECT_NEAR(c[0], 0.3, 1e-12);
  EXPECT_NEAR(c[1], 0.8, 1e-12);
}

TEST(Query, DescribeMentionsKeyFacts) {
  AnalyticalQuery q;
  q.selection = SelectionType::kRadius;
  q.analytic = AnalyticType::kCorrelation;
  q.subspace_cols = {0, 1};
  q.ball = {{0.5, 0.5}, 0.25};
  q.target_col = 0;
  q.target_col2 = 2;
  const auto s = q.describe();
  EXPECT_NE(s.find("correlation"), std::string::npos);
  EXPECT_NE(s.find("radius"), std::string::npos);
}

TEST(Features, PositionNormalizedToUnitCube) {
  const Rect domain{{-10, 0}, {10, 100}};
  auto q = testing::range_count_query(-10, 0, 0, 50);  // centre (-5, 25)
  const auto f = extract_features(q, domain);
  EXPECT_NEAR(f.position[0], 0.25, 1e-12);
  EXPECT_NEAR(f.position[1], 0.25, 1e-12);
}

TEST(Features, ModelAppendsExtentAndVolume) {
  const Rect domain{{0, 0}, {1, 1}};
  auto q = testing::range_count_query(0.2, 0.6, 0.3, 0.5);
  const auto f = extract_features(q, domain);
  ASSERT_EQ(f.model.size(), 5u);  // 2 position + 2 widths + volume
  EXPECT_NEAR(f.model[2], 0.4, 1e-12);
  EXPECT_NEAR(f.model[3], 0.2, 1e-12);
  EXPECT_NEAR(f.model[4], 0.08, 1e-12);
}

TEST(Features, RadiusAppendsExtentAndVolume) {
  const Rect domain{{0, 0}, {1, 1}};
  AnalyticalQuery q;
  q.selection = SelectionType::kRadius;
  q.subspace_cols = {0, 1};
  q.ball = {{0.5, 0.5}, 0.2};
  const auto f = extract_features(q, domain);
  ASSERT_EQ(f.model.size(), 4u);
  EXPECT_NEAR(f.model[2], 0.2, 1e-12);
  EXPECT_NEAR(f.model[3], 0.04, 1e-12);  // r^2
}

TEST(Features, KnnUsesLogK) {
  const Rect domain{{0}, {1}};
  AnalyticalQuery q;
  q.selection = SelectionType::kNearestNeighbors;
  q.subspace_cols = {0};
  q.knn_point = {0.5};
  q.knn_k = 10;
  const auto f10 = extract_features(q, domain);
  q.knn_k = 100;
  const auto f100 = extract_features(q, domain);
  EXPECT_GT(f100.model.back(), f10.model.back());
}

TEST(Features, DomainMismatchThrows) {
  const Rect domain{{0}, {1}};
  auto q = testing::range_count_query(0, 1, 0, 1);
  EXPECT_THROW(extract_features(q, domain), std::invalid_argument);
}

TEST(AggregateState, CountSumAvg) {
  AggregateState s;
  s.add(1.0, 0.0);
  s.add(2.0, 0.0);
  s.add(3.0, 0.0);
  EXPECT_DOUBLE_EQ(s.finalize(AnalyticType::kCount), 3.0);
  EXPECT_DOUBLE_EQ(s.finalize(AnalyticType::kSum), 6.0);
  EXPECT_DOUBLE_EQ(s.finalize(AnalyticType::kAvg), 2.0);
}

TEST(AggregateState, VarianceMatchesDirect) {
  Rng rng(7);
  AggregateState s;
  RunningStats direct;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(5.0, 2.0);
    s.add(v, 0.0);
    direct.add(v);
  }
  EXPECT_NEAR(s.finalize(AnalyticType::kVariance), direct.variance(), 1e-6);
}

TEST(AggregateState, CorrelationAndRegression) {
  AggregateState s;
  Rng rng(8);
  RunningCovariance direct;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    const double y = 2.5 * x + rng.normal(0.0, 0.1);
    s.add(x, y);
    direct.add(x, y);
  }
  EXPECT_NEAR(s.finalize(AnalyticType::kCorrelation), direct.correlation(),
              1e-9);
  EXPECT_NEAR(s.finalize(AnalyticType::kRegressionSlope), direct.slope(),
              1e-9);
  EXPECT_NEAR(s.finalize(AnalyticType::kRegressionIntercept),
              direct.intercept(), 1e-9);
}

TEST(AggregateState, DegenerateCasesReturnZero) {
  AggregateState empty;
  EXPECT_EQ(empty.finalize(AnalyticType::kAvg), 0.0);
  EXPECT_EQ(empty.finalize(AnalyticType::kVariance), 0.0);
  EXPECT_EQ(empty.finalize(AnalyticType::kCorrelation), 0.0);
  AggregateState constant;
  constant.add(1.0, 1.0);
  constant.add(1.0, 2.0);
  EXPECT_EQ(constant.finalize(AnalyticType::kRegressionSlope), 0.0);
}

// Property: merge must equal a single-pass aggregate for every analytic,
// for any split of the stream (this is what makes distributed execution
// correct).
class AggregateMergeProperty : public ::testing::TestWithParam<AnalyticType> {
};

TEST_P(AggregateMergeProperty, MergeEqualsSinglePass) {
  const AnalyticType type = GetParam();
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    AggregateState whole;
    std::vector<AggregateState> parts(4);
    for (int i = 0; i < 500; ++i) {
      const double t = rng.normal(1.0, 2.0);
      const double u = 0.5 * t + rng.normal(0.0, 0.3);
      whole.add(t, u);
      parts[rng.uniform_index(4)].add(t, u);
    }
    AggregateState merged;
    for (const auto& p : parts) merged.merge(p);
    EXPECT_EQ(merged.count, whole.count);
    EXPECT_NEAR(merged.finalize(type), whole.finalize(type), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAnalytics, AggregateMergeProperty,
    ::testing::Values(AnalyticType::kCount, AnalyticType::kSum,
                      AnalyticType::kAvg, AnalyticType::kVariance,
                      AnalyticType::kCorrelation,
                      AnalyticType::kRegressionSlope,
                      AnalyticType::kRegressionIntercept));

TEST(EnumStrings, AllNamed) {
  EXPECT_STREQ(to_string(SelectionType::kRange), "range");
  EXPECT_STREQ(to_string(SelectionType::kRadius), "radius");
  EXPECT_STREQ(to_string(SelectionType::kNearestNeighbors), "knn");
  EXPECT_STREQ(to_string(AnalyticType::kCount), "count");
  EXPECT_STREQ(to_string(AnalyticType::kVariance), "variance");
}

TEST(EnumHelpers, TargetRequirements) {
  EXPECT_FALSE(needs_target(AnalyticType::kCount));
  EXPECT_TRUE(needs_target(AnalyticType::kSum));
  EXPECT_FALSE(needs_second_target(AnalyticType::kAvg));
  EXPECT_TRUE(needs_second_target(AnalyticType::kCorrelation));
}

}  // namespace
}  // namespace sea
