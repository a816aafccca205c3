// Tests: big-data-less operators — rank-join, imputation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "ops/imputation.h"
#include "ops/rank_join.h"
#include "test_util.h"

namespace sea {
namespace {

using testing::small_dataset;

/// Brute-force rank-join ground truth over two plain tables.
std::vector<JoinResult> brute_rank_join(const Table& r, const Table& s,
                                        std::size_t k) {
  std::vector<JoinResult> all;
  for (std::size_t i = 0; i < r.num_rows(); ++i) {
    for (std::size_t j = 0; j < s.num_rows(); ++j) {
      const auto rk = static_cast<std::uint64_t>(std::llround(r.at(i, 0)));
      const auto sk = static_cast<std::uint64_t>(std::llround(s.at(j, 0)));
      if (rk != sk) continue;
      all.push_back(JoinResult{rk, r.at(i, 1), s.at(j, 1),
                               r.at(i, 1) + s.at(j, 1)});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const JoinResult& a, const JoinResult& b) {
              return a.combined > b.combined;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

struct RankJoinFixture : public ::testing::Test {
  Table r = make_scored_relation(3000, 60, 0.9, 91);
  Table s = make_scored_relation(3000, 60, 0.9, 92);
  Cluster cluster{4, Network::single_zone(4)};

  void SetUp() override {
    invalidate_rank_join_indexes();
    cluster.load_table("R", r);
    cluster.load_table("S", s);
  }
};

TEST_F(RankJoinFixture, MapReduceMatchesBruteForce) {
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 10;
  const auto got = rank_join_mapreduce(cluster, spec);
  const auto truth = brute_rank_join(r, s, 10);
  ASSERT_EQ(got.topk.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(got.topk[i].combined, truth[i].combined, 1e-9);
}

TEST_F(RankJoinFixture, SurgicalMatchesBruteForce) {
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 10;
  const auto got = rank_join_surgical(cluster, spec);
  const auto truth = brute_rank_join(r, s, 10);
  ASSERT_EQ(got.topk.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(got.topk[i].combined, truth[i].combined, 1e-9);
}

TEST_F(RankJoinFixture, SurgicalConsumesTinyPrefix) {
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 10;
  const auto got = rank_join_surgical(cluster, spec);
  // The whole point of [30]: only a small prefix of R is ever pulled.
  EXPECT_LT(got.r_tuples_consumed, r.num_rows() / 4);
  EXPECT_GT(got.s_probes, 0u);
}

TEST_F(RankJoinFixture, SurgicalMovesFarFewerBytes) {
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 10;
  const auto mr = rank_join_mapreduce(cluster, spec);
  rank_join_surgical(cluster, spec);  // warm-up: one-time bloom bootstrap
  const auto surgical = rank_join_surgical(cluster, spec);
  EXPECT_LT(surgical.report.shuffle_bytes + surgical.report.result_bytes,
            (mr.report.shuffle_bytes + mr.report.result_bytes) / 10);
  EXPECT_LT(surgical.report.makespan_ms(), mr.report.makespan_ms());
}

// Property sweep: agreement across k and key skew.
struct RjParam {
  std::size_t k;
  double skew;
};

class RankJoinProperty : public ::testing::TestWithParam<RjParam> {};

TEST_P(RankJoinProperty, ParadigmsAgreeOnTopScores) {
  const auto p = GetParam();
  invalidate_rank_join_indexes();
  const Table r = make_scored_relation(1500, 40, p.skew, 93);
  const Table s = make_scored_relation(1500, 40, p.skew, 94);
  Cluster cluster(3, Network::single_zone(3));
  cluster.load_table("R", r);
  cluster.load_table("S", s);
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = p.k;
  const auto a = rank_join_mapreduce(cluster, spec);
  const auto b = rank_join_surgical(cluster, spec);
  ASSERT_EQ(a.topk.size(), b.topk.size());
  for (std::size_t i = 0; i < a.topk.size(); ++i)
    EXPECT_NEAR(a.topk[i].combined, b.topk[i].combined, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RankJoinProperty,
                         ::testing::Values(RjParam{1, 0.5}, RjParam{5, 0.5},
                                           RjParam{20, 0.5}, RjParam{1, 1.2},
                                           RjParam{10, 1.2},
                                           RjParam{50, 0.9}));

TEST(RankJoin, EmptyIntersectionYieldsEmpty) {
  invalidate_rank_join_indexes();
  // Disjoint key spaces: R keys in [0,10), S keys in [100,110).
  Table r{Schema({"key", "score", "payload"})};
  Table s{Schema({"key", "score", "payload"})};
  Rng rng(95);
  for (int i = 0; i < 100; ++i) {
    r.append_row(std::vector<double>{double(i % 10), rng.uniform(), 0.0});
    s.append_row(
        std::vector<double>{double(100 + i % 10), rng.uniform(), 0.0});
  }
  Cluster cluster(2, Network::single_zone(2));
  cluster.load_table("R", r);
  cluster.load_table("S", s);
  RankJoinSpec spec;
  spec.table_r = "R";
  spec.table_s = "S";
  spec.k = 5;
  EXPECT_TRUE(rank_join_mapreduce(cluster, spec).topk.empty());
  EXPECT_TRUE(rank_join_surgical(cluster, spec).topk.empty());
}

struct ImputationFixture : public ::testing::Test {
  Table table = small_dataset(6000, 2, 96);
  /// Truth per (node, local row) — partitions reorder rows, so the
  /// original row index is not comparable with ImputedValue coordinates.
  std::map<std::pair<NodeId, std::uint32_t>, double> ground_truth;
  Cluster cluster{4, Network::single_zone(4)};
  ImputationSpec spec;

  void SetUp() override {
    // Knock out ~4% of y values, remembering the truth by its future
    // round-robin location: original row r -> (node r%N, local row r/N).
    Rng rng(97);
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      if (rng.bernoulli(0.04)) {
        ground_truth[{static_cast<NodeId>(r % 4),
                      static_cast<std::uint32_t>(r / 4)}] = table.at(r, 2);
        table.set(r, 2, std::nan(""));
      }
    }
    cluster.load_table("t", table);
    spec.table = "t";
    spec.target_col = 2;
    spec.feature_cols = {0, 1};
    spec.k = 5;
  }
};

TEST_F(ImputationFixture, BothMethodsImputeAllMissing) {
  const auto mr = impute_mapreduce(cluster, spec);
  const auto idx = impute_indexed(cluster, spec);
  EXPECT_EQ(mr.values.size(), ground_truth.size());
  EXPECT_EQ(idx.values.size(), ground_truth.size());
}

TEST_F(ImputationFixture, MethodsAgreeWithEachOther) {
  const auto mr = impute_mapreduce(cluster, spec);
  const auto idx = impute_indexed(cluster, spec);
  ASSERT_EQ(mr.values.size(), idx.values.size());
  for (std::size_t i = 0; i < mr.values.size(); ++i) {
    EXPECT_EQ(mr.values[i].node, idx.values[i].node);
    EXPECT_EQ(mr.values[i].row, idx.values[i].row);
    EXPECT_NEAR(mr.values[i].value, idx.values[i].value, 1e-6);
  }
}

TEST_F(ImputationFixture, ImputedValuesNearTruth) {
  // y = 2*x0 + 0.5 + N(0, 0.05): kNN over (x0, x1) should recover y well.
  const auto idx = impute_indexed(cluster, spec);
  ASSERT_EQ(idx.values.size(), ground_truth.size());
  double sse = 0;
  for (const auto& v : idx.values) {
    const auto it = ground_truth.find({v.node, v.row});
    ASSERT_NE(it, ground_truth.end());
    const double e = v.value - it->second;
    sse += e * e;
  }
  EXPECT_LT(std::sqrt(sse / static_cast<double>(idx.values.size())), 0.2);
}

TEST_F(ImputationFixture, IndexedNeedsFarLessCompute) {
  // The MapReduce baseline compares every missing row against every
  // complete row; the indexed path does log-cost probes. Measured compute
  // (not modelled) is the honest comparison here.
  const auto mr = impute_mapreduce(cluster, spec);
  const auto idx = impute_indexed(cluster, spec);
  const double mr_compute = mr.report.map_compute_ms_total +
                            mr.report.reduce_compute_ms_total;
  const double idx_compute = idx.report.coordinator_compute_ms;
  EXPECT_LT(idx_compute, mr_compute / 2.0);
}

TEST_F(ImputationFixture, ApplyWritesBack) {
  const auto idx = impute_indexed(cluster, spec);
  apply_imputation(cluster, spec, idx);
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    const auto col =
        cluster.partition("t", static_cast<NodeId>(n)).column(2);
    for (const double v : col) EXPECT_FALSE(std::isnan(v));
  }
}

TEST(Imputation, NoMissingIsNoop) {
  const Table t = small_dataset(500, 2, 98);
  Cluster c = testing::make_cluster(t, "t", 2);
  ImputationSpec spec;
  spec.table = "t";
  spec.target_col = 2;
  spec.feature_cols = {0, 1};
  EXPECT_TRUE(impute_indexed(c, spec).values.empty());
  EXPECT_TRUE(impute_mapreduce(c, spec).values.empty());
}

TEST(Imputation, NoFeaturesThrows) {
  const Table t = small_dataset(100, 2, 99);
  Cluster c = testing::make_cluster(t, "t", 2);
  ImputationSpec spec;
  spec.table = "t";
  spec.target_col = 2;
  EXPECT_THROW(impute_indexed(c, spec), std::invalid_argument);
}

}  // namespace
}  // namespace sea
