// Unit tests: execution paradigms (MapReduce engine, coordinator-cohort).
#include <gtest/gtest.h>

#include "exec/coordinator.h"
#include "exec/mapreduce.h"
#include "test_util.h"

namespace sea {
namespace {

using testing::small_dataset;

TEST(MapReduce, SumAggregationMatchesDirect) {
  const Table t = small_dataset(1000, 2);
  Cluster c = testing::make_cluster(t, "t", 4);
  MapReduceJob<int, double, double> job;
  job.map = [](NodeId, const Table& part, Emitter<int, double>& out) {
    double s = 0;
    for (const double v : part.column(0)) s += v;
    out.emit(0, s);
  };
  job.reduce = [](const int&, std::vector<double>& vals) {
    double s = 0;
    for (const double v : vals) s += v;
    return s;
  };
  const auto result = run_map_reduce(c, "t", job);
  ASSERT_EQ(result.results.size(), 1u);
  double expected = 0;
  for (const double v : t.column(0)) expected += v;
  EXPECT_NEAR(result.results[0].second, expected, 1e-6);
}

TEST(MapReduce, GroupsByKey) {
  Table t{Schema({"k", "v"})};
  for (int i = 0; i < 100; ++i)
    t.append_row(std::vector<double>{double(i % 5), 1.0});
  Cluster c = testing::make_cluster(t, "t", 3);
  MapReduceJob<int, double, double> job;
  job.map = [](NodeId, const Table& part, Emitter<int, double>& out) {
    for (std::size_t r = 0; r < part.num_rows(); ++r)
      out.emit(static_cast<int>(part.at(r, 0)), part.at(r, 1));
  };
  job.reduce = [](const int&, std::vector<double>& vals) {
    return static_cast<double>(vals.size());
  };
  auto result = run_map_reduce(c, "t", job);
  ASSERT_EQ(result.results.size(), 5u);
  for (const auto& [k, count] : result.results) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 5);
    EXPECT_DOUBLE_EQ(count, 20.0);
  }
}

TEST(MapReduce, ScansWholePartitionsAndCharges) {
  const Table t = small_dataset(1000, 2);
  Cluster c = testing::make_cluster(t, "t", 4);
  MapReduceJob<int, double, double> job;
  job.map = [](NodeId, const Table&, Emitter<int, double>& out) {
    out.emit(0, 1.0);
  };
  job.reduce = [](const int&, std::vector<double>&) { return 0.0; };
  const auto result = run_map_reduce(c, "t", job);
  EXPECT_EQ(c.stats().rows_scanned, 1000u);
  EXPECT_EQ(c.stats().tasks, 4u + result.report.reduce_tasks);
  EXPECT_EQ(result.report.map_tasks, 4u);
  EXPECT_GT(result.report.modelled_overhead_ms, 0.0);
  EXPECT_GT(result.report.shuffle_bytes, 0u);
}

TEST(MapReduce, ReducerCountCapped) {
  const Table t = small_dataset(100, 2);
  Cluster c = testing::make_cluster(t, "t", 4);
  MapReduceJob<int, double, double> job;
  job.num_reducers = 1;
  job.map = [](NodeId node, const Table&, Emitter<int, double>& out) {
    out.emit(static_cast<int>(node), 1.0);
  };
  job.reduce = [](const int&, std::vector<double>&) { return 0.0; };
  const auto result = run_map_reduce(c, "t", job);
  EXPECT_EQ(result.report.reduce_tasks, 1u);
  EXPECT_EQ(result.results.size(), 4u);  // 4 distinct keys, one reducer
}

TEST(ExecReport, MakespanCombinesPhases) {
  ExecReport r;
  r.modelled_overhead_ms = 10;
  r.map_compute_ms_max = 5;
  r.modelled_network_ms_critical = 3;
  r.reduce_compute_ms_max = 2;
  r.coordinator_compute_ms = 1;
  EXPECT_DOUBLE_EQ(r.makespan_ms(), 21.0);
}

TEST(ExecReport, MergeAggregates) {
  ExecReport a, b;
  a.map_compute_ms_max = 5;
  b.map_compute_ms_max = 7;
  a.shuffle_bytes = 100;
  b.shuffle_bytes = 50;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.map_compute_ms_max, 7.0);
  EXPECT_EQ(a.shuffle_bytes, 150u);
}

TEST(ExecReport, MoneyCostCombinesComputeAndTransfer) {
  ExecReport r;
  r.map_compute_ms_total = 3.6e6;  // one node-hour of compute
  r.shuffle_bytes = 1ull << 30;    // one GiB
  CostRates rates;
  rates.usd_per_node_hour = 0.40;
  rates.usd_per_gb_transfer = 0.08;
  EXPECT_NEAR(r.money_cost_usd(rates), 0.48, 1e-9);
  // Zero report costs zero.
  EXPECT_DOUBLE_EQ(ExecReport{}.money_cost_usd(rates), 0.0);
}

TEST(CohortSession, RpcAccountsNetworkAndOverhead) {
  const Table t = small_dataset(100, 2);
  Cluster c = testing::make_cluster(t, "t", 4);
  CohortSession session(c, 0);
  const int value = session.rpc(2, 16, 64, [] { return 42; });
  EXPECT_EQ(value, 42);
  const auto& rep = session.report();
  EXPECT_EQ(rep.rpc_round_trips, 1u);
  EXPECT_EQ(rep.result_bytes, 64u);
  EXPECT_GT(rep.modelled_network_ms, 0.0);
  EXPECT_GT(rep.modelled_overhead_ms, 0.0);
  EXPECT_EQ(c.network().stats().messages, 2u);  // request + response
}

TEST(CohortSession, LocalWorkMeasured) {
  const Table t = small_dataset(10, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  CohortSession session(c, 0);
  const double r = session.local([] {
    double s = 0;
    for (int i = 0; i < 10000; ++i) s += i;
    return s;
  });
  EXPECT_GT(r, 0.0);
  EXPECT_GE(session.report().coordinator_compute_ms, 0.0);
}

TEST(CohortSession, VoidRpcWorks) {
  const Table t = small_dataset(10, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  CohortSession session(c, 0);
  bool ran = false;
  session.rpc(1, 8, 8, [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(session.report().rpc_round_trips, 1u);
}

TEST(CohortSession, ExtraResponseAddsBytes) {
  const Table t = small_dataset(10, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  CohortSession session(c, 0);
  session.extra_response(1, 128);
  EXPECT_EQ(session.report().result_bytes, 128u);
}

TEST(CohortSession, TakeReportResets) {
  const Table t = small_dataset(10, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  CohortSession session(c, 0);
  session.rpc(1, 8, 8, [] { return 0; });
  const ExecReport r = session.take_report();
  EXPECT_EQ(r.rpc_round_trips, 1u);
  EXPECT_EQ(session.report().rpc_round_trips, 0u);
}

TEST(Paradigms, CohortCheaperForSelectiveWork) {
  // The architectural claim in miniature: touching 1 node beats launching
  // tasks at every node when the answer needs one partition only.
  const Table t = small_dataset(10000, 2);
  Cluster c1 = testing::make_cluster(t, "t", 8);
  Cluster c2 = testing::make_cluster(t, "t", 8);

  MapReduceJob<int, double, double> job;
  job.map = [](NodeId, const Table& part, Emitter<int, double>& out) {
    double s = 0;
    for (const double v : part.column(0)) s += v;
    out.emit(0, s);
  };
  job.reduce = [](const int&, std::vector<double>& vals) {
    double s = 0;
    for (const double v : vals) s += v;
    return s;
  };
  const auto mr = run_map_reduce(c1, "t", job);

  CohortSession session(c2, 0);
  session.rpc(3, 16, 8, [&] {
    c2.account_probe(3, 1, 10, 80);
    return 0.0;
  });
  const ExecReport cohort = session.take_report();
  EXPECT_LT(cohort.makespan_ms(), mr.report.makespan_ms());
  EXPECT_LT(c2.stats().rows_scanned, c1.stats().rows_scanned);
}

}  // namespace
}  // namespace sea
