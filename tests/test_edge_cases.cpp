// Edge cases and failure injection across module boundaries: tiny and
// degenerate datasets, single-node clusters, empty relations, extreme
// parameter values — the configurations a downstream user will hit first.
#include <gtest/gtest.h>

#include <cmath>

#include "aqp/sampling.h"
#include "common/rng.h"
#include "aqp/stat_cache.h"
#include "ops/imputation.h"
#include "ops/rank_join.h"
#include "sea/agent.h"
#include "sea/exact.h"
#include "sea/served.h"
#include "test_util.h"

namespace sea {
namespace {

using testing::brute_force_answer;
using testing::small_dataset;

TEST(EdgeCases, SingleNodeClusterWorksEndToEnd) {
  const Table t = small_dataset(500, 2, 261);
  Cluster c = testing::make_cluster(t, "t", 1);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.3, 0.7, 0.3, 0.7);
  const double truth = brute_force_answer(t, q);
  EXPECT_NEAR(exec.execute(q, ExecParadigm::kMapReduce).answer, truth, 1e-9);
  EXPECT_NEAR(exec.execute(q, ExecParadigm::kCoordinatorIndexed).answer,
              truth, 1e-9);
}

TEST(EdgeCases, MoreNodesThanRows) {
  Table t{Schema({"x0", "x1"})};
  t.append_row(std::vector<double>{0.5, 0.5});
  t.append_row(std::vector<double>{0.6, 0.6});
  Cluster c = testing::make_cluster(t, "t", 8);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.0, 1.0, 0.0, 1.0);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kMapReduce).answer, 2.0);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorIndexed).answer, 2.0);
}

TEST(EdgeCases, SingleRowTable) {
  Table t{Schema({"x0", "x1"})};
  t.append_row(std::vector<double>{0.5, 0.5});
  Cluster c = testing::make_cluster(t, "t", 2);
  ExactExecutor exec(c, "t");
  AnalyticalQuery knn;
  knn.selection = SelectionType::kNearestNeighbors;
  knn.subspace_cols = {0, 1};
  knn.knn_point = {0.1, 0.1};
  knn.knn_k = 5;  // more than exists
  EXPECT_EQ(exec.execute(knn, ExecParadigm::kMapReduce).qualifying_tuples,
            1u);
  EXPECT_EQ(
      exec.execute(knn, ExecParadigm::kCoordinatorIndexed).qualifying_tuples,
      1u);
}

TEST(EdgeCases, ConstantColumnDataset) {
  // Zero-variance attributes must not break indexes, histograms or models.
  Table t{Schema({"x0", "x1", "y"})};
  for (int i = 0; i < 200; ++i)
    t.append_row(std::vector<double>{0.5, 0.5, 1.0});
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  AnalyticalQuery q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorIndexed).answer,
            200.0);
  q.analytic = AnalyticType::kVariance;
  q.target_col = 2;
  EXPECT_EQ(exec.execute(q, ExecParadigm::kMapReduce).answer, 0.0);
  q.analytic = AnalyticType::kCorrelation;
  q.target_col = 0;
  q.target_col2 = 2;
  EXPECT_EQ(exec.execute(q, ExecParadigm::kMapReduce).answer, 0.0);
}

TEST(EdgeCases, AgentOnDegenerateDomain) {
  // All data at one point: the domain collapses; features must not NaN.
  Table t{Schema({"x0", "x1"})};
  for (int i = 0; i < 100; ++i)
    t.append_row(std::vector<double>{0.5, 0.5});
  AgentConfig cfg;
  cfg.min_samples_to_predict = 5;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return table_bounds(t, cols);
  });
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  for (int i = 0; i < 30; ++i) agent.observe(q, 100.0);
  const auto p = agent.maybe_predict(q);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(std::isnan(p->value));
  EXPECT_NEAR(p->value, 100.0, 1.0);
}

TEST(EdgeCases, ServedAnalyticsZeroBootstrap) {
  const Table t = small_dataset(500, 2, 262);
  Cluster c = testing::make_cluster(t, "t", 2);
  ExactExecutor exec(c, "t");
  AgentConfig cfg;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 0;  // cold agent declines; loop must still work
  ServedAnalytics served(agent, exec, sc);
  const auto a = served.serve(testing::range_count_query(0.2, 0.8, 0.2, 0.8));
  EXPECT_FALSE(a.data_less);
  EXPECT_NEAR(a.value,
              brute_force_answer(t, testing::range_count_query(0.2, 0.8,
                                                               0.2, 0.8)),
              1e-9);
}

// A batch holding one invalid (NaN) query throws before any query of it is
// served: no ServeStats counter moves and the agent observes nothing, so
// conservation still holds.
TEST(EdgeCases, ServeBatchRejectsNaNQueryBeforeAnyWork) {
  const Table t = small_dataset(500, 2, 264);
  Cluster c = testing::make_cluster(t, "t", 2);
  ExactExecutor exec(c, "t");
  AgentConfig cfg;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServedAnalytics served(agent, exec);
  const auto good = testing::range_count_query(0.2, 0.8, 0.2, 0.8);
  for (int i = 0; i < 5; ++i) served.serve(good);
  const ServeStats before = served.stats();
  const std::uint64_t observed = agent.stats().observations;
  ASSERT_GT(before.queries, 0u);
  ASSERT_GT(observed, 0u);

  auto nan_radius = good;
  nan_radius.selection = SelectionType::kRadius;
  nan_radius.ball = {{0.5, 0.5}, std::nan("")};
  auto nan_bound = good;
  nan_bound.range.hi[1] = std::nan("");
  for (const AnalyticalQuery& bad : {nan_radius, nan_bound}) {
    const std::vector<AnalyticalQuery> batch = {good, bad, good};
    EXPECT_THROW(served.serve_batch(batch), std::invalid_argument);
    EXPECT_THROW(served.serve(bad), std::invalid_argument);
  }
  const ServeStats& after = served.stats();
#define SEA_EXPECT_SAME(field) EXPECT_EQ(after.field, before.field) << #field;
  SEA_SERVE_STATS_FIELDS(SEA_EXPECT_SAME)
#undef SEA_EXPECT_SAME
  EXPECT_TRUE(after.conserved());
  EXPECT_EQ(agent.stats().observations, observed);
}

TEST(EdgeCases, RankJoinOneSidedEmptyRelation) {
  invalidate_rank_join_indexes();
  Table r = make_scored_relation(200, 10, 1.0, 263);
  Table s{Schema({"key", "score", "payload"})};
  Cluster cluster(2, Network::single_zone(2));
  cluster.load_table("R", r);
  cluster.load_table("S", s);
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 5;
  EXPECT_TRUE(rank_join_mapreduce(cluster, spec).topk.empty());
  EXPECT_TRUE(rank_join_surgical(cluster, spec).topk.empty());
  invalidate_rank_join_indexes();
}

TEST(EdgeCases, RankJoinKLargerThanResults) {
  invalidate_rank_join_indexes();
  Table r{Schema({"key", "score", "payload"})};
  Table s{Schema({"key", "score", "payload"})};
  r.append_row(std::vector<double>{1.0, 0.9, 0.0});
  r.append_row(std::vector<double>{2.0, 0.8, 0.0});
  s.append_row(std::vector<double>{1.0, 0.7, 0.0});
  Cluster cluster(2, Network::single_zone(2));
  cluster.load_table("R", r);
  cluster.load_table("S", s);
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 100;
  const auto mr = rank_join_mapreduce(cluster, spec);
  const auto sur = rank_join_surgical(cluster, spec);
  ASSERT_EQ(mr.topk.size(), 1u);
  ASSERT_EQ(sur.topk.size(), 1u);
  EXPECT_NEAR(mr.topk[0].combined, 1.6, 1e-12);
  EXPECT_NEAR(sur.topk[0].combined, 1.6, 1e-12);
  invalidate_rank_join_indexes();
}

TEST(EdgeCases, ImputationAllMissingTarget) {
  // Every target value missing: no complete rows to learn from, but the
  // operators must not crash or hang.
  Table t = small_dataset(200, 2, 264);
  for (std::size_t r = 0; r < t.num_rows(); ++r)
    t.set(r, 2, std::nan(""));
  Cluster c = testing::make_cluster(t, "t", 2);
  ImputationSpec spec;
  spec.table = "t";
  spec.target_col = 2;
  spec.feature_cols = {0, 1};
  const auto mr = impute_mapreduce(c, spec);
  const auto idx = impute_indexed(c, spec);
  EXPECT_EQ(mr.values.size(), 200u);
  EXPECT_EQ(idx.values.size(), 200u);
  // With no candidates the imputed value degrades to 0 — defined behaviour.
  for (const auto& v : idx.values) EXPECT_FALSE(std::isnan(v.value));
}

TEST(EdgeCases, SamplingRateOneKeepsEverything) {
  const Table t = small_dataset(500, 2, 265);
  Cluster c = testing::make_cluster(t, "t", 2);
  SamplingConfig sc;
  sc.sample_rate = 1.0;
  SamplingEngine eng(c, "t", sc);
  eng.build();
  EXPECT_EQ(eng.sample_rows(), 500u);
  auto q = testing::range_count_query(0.0, 1.0, 0.0, 1.0);
  EXPECT_NEAR(eng.answer(q).value, 500.0, 1e-6);
}

TEST(EdgeCases, StatCacheSingleCell) {
  const Table t = small_dataset(300, 2, 266);
  Cluster c = testing::make_cluster(t, "t", 2);
  GridStatCache cache(c, "t", {0, 1}, 2, 0, 1);
  cache.build();
  const Rect domain = table_bounds(t, std::vector<std::size_t>{0, 1});
  auto q = testing::range_count_query(domain.lo[0] - 1, domain.hi[0] + 1,
                                      domain.lo[1] - 1, domain.hi[1] + 1);
  const auto a = cache.answer(q);
  ASSERT_TRUE(a.has_value());
  EXPECT_NEAR(*a, 300.0, 1.0);
}

TEST(EdgeCases, ExtremeQueryGeometry) {
  const Table t = small_dataset(1000, 2, 267);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  // Zero-width (point) range.
  auto point_q = testing::range_count_query(0.5, 0.5, 0.5, 0.5);
  EXPECT_EQ(exec.execute(point_q, ExecParadigm::kMapReduce).answer,
            exec.execute(point_q, ExecParadigm::kCoordinatorIndexed).answer);
  // Zero-radius ball.
  AnalyticalQuery ball_q;
  ball_q.selection = SelectionType::kRadius;
  ball_q.subspace_cols = {0, 1};
  ball_q.ball = {{0.5, 0.5}, 0.0};
  EXPECT_EQ(exec.execute(ball_q, ExecParadigm::kMapReduce).answer,
            exec.execute(ball_q, ExecParadigm::kCoordinatorIndexed).answer);
  // Enormous range (covers everything).
  auto huge_q = testing::range_count_query(-1e12, 1e12, -1e12, 1e12);
  EXPECT_EQ(exec.execute(huge_q, ExecParadigm::kMapReduce).answer, 1000.0);
}

TEST(EdgeCases, IndexesHandleMassiveDuplication) {
  // 90% of points identical: k-d splits degenerate, grid piles one cell.
  Table t{Schema({"x0", "x1"})};
  Rng rng(270);
  for (int i = 0; i < 2000; ++i) {
    if (rng.bernoulli(0.9))
      t.append_row(std::vector<double>{0.5, 0.5});
    else
      t.append_row(std::vector<double>{rng.uniform(), rng.uniform()});
  }
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.49, 0.51, 0.49, 0.51);
  const double truth = brute_force_answer(t, q);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kMapReduce).answer, truth);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorIndexed).answer,
            truth);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorGrid).answer, truth);

  AnalyticalQuery knn;
  knn.selection = SelectionType::kNearestNeighbors;
  knn.subspace_cols = {0, 1};
  knn.knn_point = {0.5, 0.5};
  knn.knn_k = 50;
  EXPECT_EQ(exec.execute(knn, ExecParadigm::kMapReduce).qualifying_tuples,
            50u);
  EXPECT_EQ(
      exec.execute(knn, ExecParadigm::kCoordinatorIndexed).qualifying_tuples,
      50u);
}

TEST(EdgeCases, GeoAgentPurgesStaleQuantaUnderDrift) {
  // RT5.3: "shifts in the user interests ... should lead to purging
  // 'older' models". Enabled via the agent's purge_idle knob.
  const Table t = small_dataset(2000, 2, 271);
  AgentConfig cfg;
  cfg.min_samples_to_predict = 8;
  cfg.create_distance = 0.05;
  cfg.purge_idle = 100;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return table_bounds(t, cols);
  });
  // Old interest.
  for (int i = 0; i < 30; ++i) {
    auto q = testing::range_count_query(0.1, 0.2 + i * 1e-4, 0.1, 0.2);
    agent.observe(q, brute_force_answer(t, q));
  }
  // New interest, long enough for the old quantum to go stale.
  for (int i = 0; i < 600; ++i) {
    auto q = testing::range_count_query(0.7, 0.8 + (i % 7) * 1e-3, 0.7, 0.8);
    agent.observe(q, brute_force_answer(t, q));
  }
  EXPECT_GE(agent.stats().quanta_purged, 1u);
  // The new interest still serves.
  auto q = testing::range_count_query(0.7, 0.8, 0.7, 0.8);
  EXPECT_TRUE(agent.maybe_predict(q).has_value());
}

TEST(EdgeCases, AgentSurvivesContradictoryObservations) {
  // The same query with wildly different answers (e.g. volatile data):
  // residuals blow up, the agent must keep declining rather than serving.
  const Table t = small_dataset(500, 2, 268);
  AgentConfig cfg;
  cfg.min_samples_to_predict = 10;
  cfg.max_relative_error = 0.2;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return table_bounds(t, cols);
  });
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  Rng rng(269);
  for (int i = 0; i < 100; ++i)
    agent.observe(q, rng.uniform(0.0, 10000.0));
  EXPECT_FALSE(agent.try_predict(q).has_value());
}

}  // namespace
}  // namespace sea
