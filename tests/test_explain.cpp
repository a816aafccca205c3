// Tests: explanations (RT4.2) and higher-level data-less exploration
// (RT4.1).
#include <gtest/gtest.h>

#include "sea/explain.h"
#include "test_util.h"
#include "workload/workload.h"

namespace sea {
namespace {

using testing::brute_force_answer;
using testing::small_dataset;

struct ExplainFixture : public ::testing::Test {
  Table table = small_dataset(5000, 2, 61);
  AgentConfig cfg = [] {
    AgentConfig c;
    c.min_samples_to_predict = 15;
    c.refit_interval = 8;
    c.max_relative_error = 0.4;
    return c;
  }();
  DatalessAgent agent{cfg, [this](const std::vector<std::size_t>& cols) {
                        return table_bounds(table, cols);
                      }};
  Point hotspot = {0.5, 0.5};

  /// Trains on radius-count queries with varying radii around the hotspot.
  void train_radius_counts(std::size_t n = 400) {
    Rng rng(62);
    for (std::size_t i = 0; i < n; ++i) {
      AnalyticalQuery q;
      q.selection = SelectionType::kRadius;
      q.analytic = AnalyticType::kCount;
      q.subspace_cols = {0, 1};
      q.ball.center = {hotspot[0] + rng.normal(0, 0.02),
                       hotspot[1] + rng.normal(0, 0.02)};
      q.ball.radius = rng.uniform(0.02, 0.35);
      agent.observe(q, brute_force_answer(table, q));
    }
  }

  AnalyticalQuery radius_query(double r) const {
    AnalyticalQuery q;
    q.selection = SelectionType::kRadius;
    q.analytic = AnalyticType::kCount;
    q.subspace_cols = {0, 1};
    q.ball.center = hotspot;
    q.ball.radius = r;
    return q;
  }
};

TEST_F(ExplainFixture, RadiusExplanationApproximatesAgent) {
  train_radius_counts();
  Explainer explainer(agent);
  const auto e = explainer.explain(radius_query(0.1),
                                   ExplainParameter::kRadius, 0.05, 0.3);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->segments.empty());
  EXPECT_EQ(e->parameter, "radius");
  // The explanation must reproduce the agent's own predictions closely —
  // that is its contract: answer whole families of what-if queries.
  double scale = 1.0;
  for (double r = 0.06; r <= 0.29; r += 0.02)
    scale = std::max(scale,
                     std::abs(agent.predict_unchecked(radius_query(r)).value));
  for (double r = 0.06; r <= 0.29; r += 0.02) {
    const double from_agent = agent.predict_unchecked(radius_query(r)).value;
    EXPECT_NEAR(e->evaluate(r), from_agent, 0.15 * scale);
  }
}

TEST_F(ExplainFixture, ExplanationTracksGroundTruthShape) {
  train_radius_counts();
  Explainer explainer(agent);
  const auto e = explainer.explain(radius_query(0.1),
                                   ExplainParameter::kRadius, 0.05, 0.3);
  ASSERT_TRUE(e.has_value());
  // Count grows with radius: the explanation should be increasing overall.
  EXPECT_GT(e->evaluate(0.28), e->evaluate(0.07));
  // And roughly match the true counts (a shape check, not a precision
  // check: the explanation inherits the agent's model error).
  for (double r = 0.08; r <= 0.28; r += 0.05) {
    const double truth = brute_force_answer(table, radius_query(r));
    EXPECT_NEAR(e->evaluate(r), truth, std::max(80.0, 0.4 * truth));
  }
}

TEST_F(ExplainFixture, SegmentCountBounded) {
  train_radius_counts();
  ExplainConfig ec;
  ec.max_segments = 3;
  Explainer explainer(agent, ec);
  const auto e = explainer.explain(radius_query(0.1),
                                   ExplainParameter::kRadius, 0.05, 0.3);
  ASSERT_TRUE(e.has_value());
  EXPECT_LE(e->segments.size(), 3u);
}

TEST_F(ExplainFixture, ExplanationIsCompact) {
  train_radius_counts();
  Explainer explainer(agent);
  const auto e = explainer.explain(radius_query(0.1),
                                   ExplainParameter::kRadius, 0.05, 0.3);
  ASSERT_TRUE(e.has_value());
  // A handful of (lo, hi, slope, intercept) tuples vs thousands of tuples.
  EXPECT_LT(e->byte_size(), 512u);
}

TEST_F(ExplainFixture, ToStringMentionsParameter) {
  train_radius_counts();
  Explainer explainer(agent);
  const auto e = explainer.explain(radius_query(0.1),
                                   ExplainParameter::kRadius, 0.05, 0.3);
  ASSERT_TRUE(e.has_value());
  EXPECT_NE(e->to_string().find("radius"), std::string::npos);
}

TEST_F(ExplainFixture, UntrainedAgentYieldsNoExplanation) {
  Explainer explainer(agent);  // no training at all
  const auto e = explainer.explain(radius_query(0.1),
                                   ExplainParameter::kRadius, 0.05, 0.3);
  EXPECT_FALSE(e.has_value());
}

TEST_F(ExplainFixture, ParameterSelectionValidated) {
  train_radius_counts();
  Explainer explainer(agent);
  EXPECT_THROW(
      explainer.explain(radius_query(0.1), ExplainParameter::kWidth, 0, 1),
      std::invalid_argument);
  EXPECT_THROW(
      explainer.explain(radius_query(0.1), ExplainParameter::kRadius, 0.3,
                        0.1),
      std::invalid_argument);
}

TEST_F(ExplainFixture, WidthExplanationForRangeQueries) {
  // Train on range-count with varying width in dim 0.
  Rng rng(63);
  for (int i = 0; i < 400; ++i) {
    AnalyticalQuery q;
    q.selection = SelectionType::kRange;
    q.analytic = AnalyticType::kCount;
    q.subspace_cols = {0, 1};
    const double w = rng.uniform(0.05, 0.4);
    q.range.lo = {0.5 - w / 2, 0.3};
    q.range.hi = {0.5 + w / 2, 0.7};
    agent.observe(q, brute_force_answer(table, q));
  }
  AnalyticalQuery base;
  base.selection = SelectionType::kRange;
  base.analytic = AnalyticType::kCount;
  base.subspace_cols = {0, 1};
  base.range.lo = {0.45, 0.3};
  base.range.hi = {0.55, 0.7};
  Explainer explainer(agent);
  const auto e =
      explainer.explain(base, ExplainParameter::kWidth, 0.08, 0.35, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->parameter, "width");
  EXPECT_GT(e->evaluate(0.3), e->evaluate(0.1));  // wider => more rows
}

TEST(Explanation, EvaluateClampsOutsideRange) {
  Explanation e;
  e.parameter = "radius";
  e.segments.push_back({0.1, 0.2, 10.0, 0.0});
  e.segments.push_back({0.2, 0.3, 20.0, -2.0});
  EXPECT_DOUBLE_EQ(e.evaluate(0.15), 1.5);
  EXPECT_DOUBLE_EQ(e.evaluate(0.25), 3.0);
  EXPECT_DOUBLE_EQ(e.evaluate(0.05), 0.5);   // clamp to first segment
  EXPECT_DOUBLE_EQ(e.evaluate(0.9), 16.0);   // clamp to last segment
}

TEST(Explanation, EmptyThrows) {
  Explanation e;
  EXPECT_THROW(e.evaluate(0.5), std::logic_error);
}

TEST_F(ExplainFixture, FindInterestingSubspacesFindsDenseRegion) {
  // Train count models over the whole domain so exploration can predict
  // anywhere.
  Rng rng(64);
  const Rect domain = table_bounds(table, std::vector<std::size_t>{0, 1});
  for (int i = 0; i < 1200; ++i) {
    AnalyticalQuery q;
    q.selection = SelectionType::kRadius;
    q.analytic = AnalyticType::kCount;
    q.subspace_cols = {0, 1};
    q.ball.center = {rng.uniform(domain.lo[0], domain.hi[0]),
                     rng.uniform(domain.lo[1], domain.hi[1])};
    q.ball.radius = rng.uniform(0.05, 0.15);
    agent.observe(q, brute_force_answer(table, q));
  }
  AnalyticalQuery proto;
  proto.selection = SelectionType::kRadius;
  proto.analytic = AnalyticType::kCount;
  proto.subspace_cols = {0, 1};
  proto.ball.center = {0.0, 0.0};
  proto.ball.radius = 0.1;

  const auto findings = find_interesting_subspaces(
      agent, proto, domain, /*radius=*/0.1, /*threshold=*/50.0,
      /*greater=*/true, /*grid_per_dim=*/8);
  ASSERT_FALSE(findings.empty());
  // Every reported subspace should really be (roughly) above threshold.
  std::size_t truly_dense = 0;
  for (const auto& f : findings) {
    AnalyticalQuery check = proto;
    check.ball = f.region;
    if (brute_force_answer(table, check) > 25.0) ++truly_dense;
  }
  EXPECT_GT(static_cast<double>(truly_dense) /
                static_cast<double>(findings.size()),
            0.6);
}

TEST_F(ExplainFixture, KnnExplanationTracksK) {
  // Train on kNN-sum queries: sum over the k nearest grows ~linearly in k.
  Rng rng(65);
  for (int i = 0; i < 400; ++i) {
    AnalyticalQuery q;
    q.selection = SelectionType::kNearestNeighbors;
    q.analytic = AnalyticType::kSum;
    q.subspace_cols = {0, 1};
    q.target_col = 2;
    q.knn_point = {hotspot[0] + rng.normal(0, 0.02),
                   hotspot[1] + rng.normal(0, 0.02)};
    q.knn_k = static_cast<std::size_t>(rng.uniform_int(10, 200));
    agent.observe(q, brute_force_answer(table, q));
  }
  AnalyticalQuery base;
  base.selection = SelectionType::kNearestNeighbors;
  base.analytic = AnalyticType::kSum;
  base.subspace_cols = {0, 1};
  base.target_col = 2;
  base.knn_point = hotspot;
  base.knn_k = 50;
  Explainer explainer(agent);
  const auto e = explainer.explain(base, ExplainParameter::kK, 20, 180);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->parameter, "k");
  EXPECT_GT(e->evaluate(150), e->evaluate(30));  // more neighbours, more sum
  // Rough magnitude check against ground truth at k=100.
  AnalyticalQuery probe = base;
  probe.knn_k = 100;
  const double truth = brute_force_answer(table, probe);
  EXPECT_NEAR(e->evaluate(100), truth, std::max(30.0, 0.35 * truth));
}

TEST_F(ExplainFixture, FindInterestingSubspacesValidatesArgs) {
  AnalyticalQuery proto;
  proto.subspace_cols = {0, 1};
  const Rect domain{{0, 0}, {1, 1}};
  EXPECT_THROW(
      find_interesting_subspaces(agent, proto, domain, 0.1, 0, true, 0),
      std::invalid_argument);
  const Rect bad{{0}, {1}};
  EXPECT_THROW(
      find_interesting_subspaces(agent, proto, bad, 0.1, 0, true, 4),
      std::invalid_argument);
}

}  // namespace
}  // namespace sea
