// Tests: exact executor — both paradigms must agree with brute force and
// with each other, while their costs differ in the direction the paper
// argues (P3).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/parallel.h"
#include "sea/exact.h"
#include "test_util.h"

namespace sea {
namespace {

using testing::brute_force_answer;
using testing::nan_last_less;
using testing::small_dataset;

struct Case {
  SelectionType selection;
  AnalyticType analytic;
};

class ExactParadigms : public ::testing::TestWithParam<Case> {};

AnalyticalQuery make_query(const Case& c, Rng& rng, const Rect& domain) {
  AnalyticalQuery q;
  q.selection = c.selection;
  q.analytic = c.analytic;
  q.subspace_cols = {0, 1};
  q.target_col = 2;   // the derived y column
  q.target_col2 = 0;  // dependence vs x0
  Point center(2);
  for (std::size_t i = 0; i < 2; ++i)
    center[i] = rng.uniform(domain.lo[i] + 0.1, domain.hi[i] - 0.1);
  switch (c.selection) {
    case SelectionType::kRange: {
      q.range.lo.resize(2);
      q.range.hi.resize(2);
      for (std::size_t i = 0; i < 2; ++i) {
        const double w = rng.uniform(0.1, 0.3);
        q.range.lo[i] = center[i] - w;
        q.range.hi[i] = center[i] + w;
      }
      break;
    }
    case SelectionType::kRadius:
      q.ball.center = center;
      q.ball.radius = rng.uniform(0.05, 0.25);
      break;
    case SelectionType::kNearestNeighbors:
      q.knn_point = center;
      q.knn_k = static_cast<std::size_t>(rng.uniform_int(5, 60));
      break;
  }
  return q;
}

TEST_P(ExactParadigms, BothParadigmsMatchBruteForce) {
  const Case c = GetParam();
  const Table t = small_dataset(3000, 2, 11);
  Cluster cluster = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(cluster, "t");
  const Rect domain = exec.domain({0, 1});
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    const auto q = make_query(c, rng, domain);
    const double truth = brute_force_answer(t, q);
    const auto mr = exec.execute(q, ExecParadigm::kMapReduce);
    const auto idx = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
    const auto grid = exec.execute(q, ExecParadigm::kCoordinatorGrid);
    EXPECT_NEAR(mr.answer, truth, 1e-6 + 1e-9 * std::abs(truth))
        << q.describe();
    EXPECT_NEAR(idx.answer, truth, 1e-6 + 1e-9 * std::abs(truth))
        << q.describe();
    EXPECT_NEAR(grid.answer, truth, 1e-6 + 1e-9 * std::abs(truth))
        << q.describe();
    EXPECT_EQ(mr.qualifying_tuples, idx.qualifying_tuples);
    EXPECT_EQ(mr.qualifying_tuples, grid.qualifying_tuples);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ExactParadigms,
    ::testing::Values(
        Case{SelectionType::kRange, AnalyticType::kCount},
        Case{SelectionType::kRange, AnalyticType::kSum},
        Case{SelectionType::kRange, AnalyticType::kAvg},
        Case{SelectionType::kRange, AnalyticType::kVariance},
        Case{SelectionType::kRange, AnalyticType::kCorrelation},
        Case{SelectionType::kRange, AnalyticType::kRegressionSlope},
        Case{SelectionType::kRange, AnalyticType::kRegressionIntercept},
        Case{SelectionType::kRadius, AnalyticType::kCount},
        Case{SelectionType::kRadius, AnalyticType::kAvg},
        Case{SelectionType::kRadius, AnalyticType::kCorrelation},
        Case{SelectionType::kNearestNeighbors, AnalyticType::kCount},
        Case{SelectionType::kNearestNeighbors, AnalyticType::kAvg},
        Case{SelectionType::kNearestNeighbors, AnalyticType::kSum}));

TEST(ExactExecutor, IndexedPathTouchesFarFewerRows) {
  const Table t = small_dataset(20000, 2, 17);
  Cluster c1 = testing::make_cluster(t, "t", 8);
  Cluster c2 = testing::make_cluster(t, "t", 8);
  ExactExecutor mr_exec(c1, "t");
  ExactExecutor idx_exec(c2, "t");
  auto q = testing::range_count_query(0.45, 0.55, 0.45, 0.55);
  mr_exec.execute(q, ExecParadigm::kMapReduce);
  idx_exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_EQ(c1.stats().rows_scanned, 20000u);
  EXPECT_LT(c2.stats().rows_scanned, 20000u / 3);
  EXPECT_GT(c2.stats().index_probes, 0u);
}

TEST(ExactExecutor, IndexedShufflesFewerBytes) {
  const Table t = small_dataset(10000, 2, 19);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  const auto mr = exec.execute(q, ExecParadigm::kMapReduce);
  const auto idx = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_LT(idx.report.makespan_ms(), mr.report.makespan_ms());
}

TEST(ExactExecutor, RangePartitionPruningReducesRpcs) {
  const Table t = small_dataset(8000, 2, 23);
  Cluster c = testing::make_cluster(
      t, "t", 8, PartitionSpec{Partitioning::kRangeColumn, 0});
  ExactExecutor exec(c, "t");
  // A sliver in x0 should hit a strict subset of nodes.
  const Rect domain = exec.domain({0, 1});
  const double mid = 0.5 * (domain.lo[0] + domain.hi[0]);
  AnalyticalQuery q = testing::range_count_query(mid, mid + 0.01,
                                                 domain.lo[1], domain.hi[1]);
  const auto r = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_LT(r.report.rpc_round_trips, 8u);
  // And the answer still matches brute force.
  EXPECT_NEAR(r.answer, brute_force_answer(t, q), 1e-9);
}

TEST(ExactExecutor, GridPathAlsoSurgical) {
  const Table t = small_dataset(20000, 2, 18);
  Cluster c = testing::make_cluster(t, "t", 8);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.45, 0.55, 0.45, 0.55);
  c.reset_stats();
  exec.execute(q, ExecParadigm::kCoordinatorGrid);
  // Far fewer rows than a full scan, like the k-d path.
  EXPECT_LT(c.stats().rows_scanned, 20000u / 3);
  EXPECT_GT(c.stats().index_probes, 0u);
}

// A NaN coordinate never satisfies a range or radius predicate, on any
// paradigm: COUNT and SUM over a NaN-laced table agree with brute force
// (Rect::contains, Ball::contains) on MapReduce, the k-d trees, the grid
// and the learned grid. Rows 0-3 open the four round-robin partitions with
// a NaN x (rows 0-1 with a NaN y too), which the grid domains skip.
// Whole-domain probes would take NaN-holding k-d nodes whole if
// containment ignored NaN.
TEST(ExactExecutor, NanCoordinatesNeverQualifyOnAnyParadigm) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t kRows = 3000;
  Rng rng(2203);
  std::vector<std::vector<double>> cols(3, std::vector<double>(kRows));
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < 2; ++j)
      cols[j][i] = rng.uniform() < 0.1 ? kNaN : rng.uniform();
    cols[2][i] = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t i = 0; i < 4; ++i) cols[0][i] = kNaN;
  for (std::size_t i = 0; i < 2; ++i) cols[1][i] = kNaN;
  const Table t =
      Table::from_columns(Schema({"x", "y", "v"}), std::move(cols));
  Cluster cluster = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(cluster, "t");
  constexpr ExecParadigm kParadigms[] = {
      ExecParadigm::kMapReduce, ExecParadigm::kCoordinatorIndexed,
      ExecParadigm::kCoordinatorGrid, ExecParadigm::kCoordinatorLearned};
  for (int trial = 0; trial < 16; ++trial) {
    for (const SelectionType sel :
         {SelectionType::kRange, SelectionType::kRadius}) {
      for (const AnalyticType an : {AnalyticType::kCount, AnalyticType::kSum}) {
        AnalyticalQuery q;
        q.selection = sel;
        q.analytic = an;
        q.subspace_cols = {0, 1};
        q.target_col = 2;
        const double cx = rng.uniform(), cy = rng.uniform();
        const double w = trial == 0 ? 2.0 : rng.uniform(0.05, 0.4);
        q.range = Rect{{cx - w, cy - w}, {cx + w, cy + w}};
        q.ball = Ball{{cx, cy}, w};
        const double truth = brute_force_answer(t, q);
        for (const ExecParadigm p : kParadigms) {
          const auto r = exec.execute(q, p);
          SCOPED_TRACE(std::string(to_string(p)) + " " + q.describe());
          if (an == AnalyticType::kCount)
            EXPECT_EQ(r.answer, truth);
          else
            EXPECT_NEAR(r.answer, truth, 1e-9 * (1.0 + std::abs(truth)));
          EXPECT_FALSE(std::isnan(r.answer));
        }
      }
    }
  }
}

// A NaN in a partition's first row leaves its domain alone: the uniform
// grid over a 100 x 100 lattice (32 cells per axis) with x[0] = NaN
// examines the 6 x 6 lattice points of the two cells per axis that a
// 0.05-wide range touches. A NaN domain would put every point in x-cell 0
// and examine 100 x 6. A partition whose column is all NaN adds nothing to
// domain().
TEST(ExactExecutor, LeadingNanKeepsGridDomainFinite) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> cols(2, std::vector<double>(10000));
  for (std::size_t i = 0; i < 10000; ++i) {
    cols[0][i] = static_cast<double>(i % 100) / 100.0;
    cols[1][i] = static_cast<double>(i / 100) / 100.0;
  }
  cols[0][0] = kNaN;
  const Table t = Table::from_columns(Schema({"x", "y"}), std::move(cols));
  Cluster c = testing::make_cluster(t, "t", 1);
  ExactExecutor exec(c, "t");
  const Rect& dom = exec.domain({0, 1});
  EXPECT_EQ(dom.lo, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(dom.hi, (std::vector<double>{0.99, 0.99}));
  const auto q = testing::range_count_query(0.10, 0.15, 0.10, 0.15);
  c.reset_stats();
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorGrid).answer, 36.0);
  EXPECT_EQ(c.stats().rows_scanned, 36u);

  // Two partitions, one of them all NaN on x: the domain is the other's.
  std::vector<std::vector<double>> two(2, std::vector<double>(4));
  two[0] = {kNaN, 0.25, kNaN, 0.75};
  two[1] = {0.5, 0.5, 0.5, 0.5};
  const Table t2 = Table::from_columns(Schema({"x", "y"}), std::move(two));
  Cluster c2 = testing::make_cluster(t2, "t", 2);
  ExactExecutor exec2(c2, "t");
  const Rect& dom2 = exec2.domain({0});
  EXPECT_EQ(dom2.lo, (std::vector<double>{0.25}));
  EXPECT_EQ(dom2.hi, (std::vector<double>{0.75}));
}

TEST(ExactExecutor, DomainCoversData) {
  const Table t = small_dataset(1000, 2, 29);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  const Rect domain = exec.domain({0, 1});
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GE(t.at(r, 0), domain.lo[0]);
    EXPECT_LE(t.at(r, 0), domain.hi[0]);
  }
}

TEST(ExactExecutor, EmptySubspaceGivesZero) {
  const Table t = small_dataset(500, 2, 31);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(100.0, 101.0, 100.0, 101.0);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kMapReduce).answer, 0.0);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorIndexed).answer, 0.0);
}

TEST(ExactExecutor, UnknownTableThrows) {
  const Table t = small_dataset(10, 2, 33);
  Cluster c = testing::make_cluster(t, "t", 2);
  EXPECT_THROW(ExactExecutor(c, "nope"), std::invalid_argument);
}

TEST(ExactExecutor, InvalidQueryThrows) {
  const Table t = small_dataset(10, 2, 34);
  Cluster c = testing::make_cluster(t, "t", 2);
  ExactExecutor exec(c, "t");
  AnalyticalQuery q;  // no subspace cols
  EXPECT_THROW(exec.execute(q, ExecParadigm::kMapReduce),
               std::invalid_argument);
}

TEST(ExactExecutor, IndexBuildTimeAmortized) {
  const Table t = small_dataset(2000, 2, 35);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  const double after_first = exec.index_build_ms();
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_DOUBLE_EQ(exec.index_build_ms(), after_first);  // cached
}

TEST(ExactExecutor, InvalidateCachesRebuilds) {
  const Table t = small_dataset(2000, 2, 36);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  const double first = exec.index_build_ms();
  exec.invalidate_caches();
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_GT(exec.index_build_ms(), first);
}

TEST(ExactExecutor, StateCarriesMergeableAggregate) {
  const Table t = small_dataset(1000, 2, 37);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  AnalyticalQuery q = testing::range_count_query(0.2, 0.8, 0.2, 0.8);
  q.analytic = AnalyticType::kAvg;
  q.target_col = 2;
  const auto r = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_EQ(r.state.count, r.qualifying_tuples);
  EXPECT_NEAR(r.state.finalize(AnalyticType::kAvg), r.answer, 1e-12);
}

// Accounting pin for the k-d indexed path: a fixed range/radius/kNN x
// COUNT/SUM/AVG/VAR/CORR query stream over two partitionings. The answers
// (bit patterns), qualifying tuples, modelled ExecReport columns and the
// cluster's AccessStats are folded into one FNV-1a digest; the golden
// values were captured from the materialize-then-gather implementation
// the fused probe replaced, so any drift in answers or accounting fails.
struct PinFold {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

TEST(ExactExecutor, KdIndexedAccountingPinned) {
  const Table t = small_dataset(20000, 2, 41);
  PinFold fold;
  std::uint64_t qualifying = 0;
  AccessStats stats;
  for (const Partitioning scheme :
       {Partitioning::kRoundRobin, Partitioning::kRangeColumn}) {
    PartitionSpec spec;
    spec.scheme = scheme;
    spec.partition_column = 0;
    Cluster c = testing::make_cluster(t, "t", 4, spec);
    ExactExecutor exec(c, "t");
    const Rect domain = exec.domain({0, 1});
    Rng rng(4242);
    for (const SelectionType sel :
         {SelectionType::kRange, SelectionType::kRadius,
          SelectionType::kNearestNeighbors}) {
      for (const AnalyticType an :
           {AnalyticType::kCount, AnalyticType::kSum, AnalyticType::kAvg,
            AnalyticType::kVariance, AnalyticType::kCorrelation}) {
        for (int i = 0; i < 6; ++i) {
          AnalyticalQuery q = make_query(Case{sel, an}, rng, domain);
          if (i % 3 == 2) {  // wide probes: whole subtrees fall inside
            for (std::size_t d = 0; d < 2; ++d) {
              if (sel == SelectionType::kRange) {
                q.range.lo[d] -= 1.0;
                q.range.hi[d] += 1.0;
              }
            }
            q.ball.radius *= 6.0;
          }
          const ExactResult r =
              exec.execute(q, ExecParadigm::kCoordinatorIndexed);
          fold.f64(r.answer);
          fold.u64(r.qualifying_tuples);
          fold.u64(r.state.count);
          for (const double v : {r.state.sum_t, r.state.sum_tt, r.state.sum_u,
                                 r.state.sum_uu, r.state.sum_tu})
            fold.f64(v);
          const ExecReport& rep = r.report;
          for (const double v :
               {rep.modelled_network_ms, rep.modelled_network_ms_critical,
                rep.modelled_overhead_ms, rep.modelled_backoff_ms})
            fold.f64(v);
          for (const std::uint64_t v :
               {rep.shuffle_bytes, rep.result_bytes, rep.map_tasks,
                rep.reduce_tasks, rep.rpc_round_trips})
            fold.u64(v);
          qualifying += r.qualifying_tuples;
        }
      }
    }
    stats.merge(c.stats());
  }
  fold.u64(stats.rows_scanned);
  fold.u64(stats.bytes_read);
  fold.u64(stats.index_probes);
  fold.u64(stats.node_touches);
  fold.f64(stats.modelled_overhead_ms);
  EXPECT_EQ(qualifying, 979522ull);
  EXPECT_EQ(stats.rows_scanned, 1016499ull);
  EXPECT_EQ(stats.bytes_read, 24395976ull);
  EXPECT_EQ(stats.index_probes, 646ull);
  EXPECT_EQ(fold.h, 0xb09990cb96d3cb69ull) << std::hex << fold.h;
}

/// Every bit of an indexed execution: answer, aggregate state and report.
std::uint64_t result_bits(const ExactResult& r) {
  PinFold fold;
  fold.f64(r.answer);
  fold.u64(r.qualifying_tuples);
  fold.u64(r.state.count);
  for (const double v : {r.state.sum_t, r.state.sum_tt, r.state.sum_u,
                         r.state.sum_uu, r.state.sum_tu})
    fold.f64(v);
  const ExecReport& rep = r.report;
  for (const double v :
       {rep.modelled_network_ms, rep.modelled_network_ms_critical,
        rep.modelled_overhead_ms, rep.modelled_backoff_ms})
    fold.f64(v);
  for (const std::uint64_t v :
       {rep.shuffle_bytes, rep.result_bytes, rep.map_tasks, rep.reduce_tasks,
        rep.rpc_round_trips})
    fold.u64(v);
  return fold.h;
}

// Rows written after the first build: invalidate_caches() makes the next
// indexed query rebuild every partition's tree, and those trees must
// answer exactly like a freshly constructed executor's — bit for bit, at
// SEA_THREADS 1 and 8. The rebuild is charged to index_build_ms() once,
// by the first query after the write; later queries hit the cache.
TEST(ExactExecutor, RebuildAfterWritesMatchesFreshExecutor) {
  const std::size_t before = configured_threads();
  std::vector<std::vector<std::uint64_t>> bits_by_threads;
  for (const std::size_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    set_configured_threads(threads);
    const Table t = small_dataset(12000, 2, 43);
    Cluster c = testing::make_cluster(t, "t", 4);
    ExactExecutor exec(c, "t");
    const Rect domain = exec.domain({0, 1});
    Rng rng(44);
    std::vector<AnalyticalQuery> queries;
    for (const SelectionType sel :
         {SelectionType::kRange, SelectionType::kRadius,
          SelectionType::kNearestNeighbors})
      for (const AnalyticType an :
           {AnalyticType::kCount, AnalyticType::kAvg,
            AnalyticType::kCorrelation})
        queries.push_back(make_query(Case{sel, an}, rng, domain));
    for (const auto& q : queries)
      exec.execute(q, ExecParadigm::kCoordinatorIndexed);

    // The write: every partition drops its oldest 5% and gains new rows.
    Rng wr(45);
    for (std::size_t n = 0; n < c.num_nodes(); ++n) {
      Table& part = c.mutable_partition("t", static_cast<NodeId>(n));
      part.erase_rows(0, part.num_rows() / 20);
      for (int i = 0; i < 200; ++i) {
        const double x0 = wr.uniform(domain.lo[0], domain.hi[0]);
        const double x1 = wr.uniform(domain.lo[1], domain.hi[1]);
        const double row[] = {x0, x1, 2.0 * x0 - x1 + wr.normal(0.0, 0.1)};
        part.append_row(row);
      }
    }
    exec.invalidate_caches();
    const double built_before = exec.index_build_ms();
    ExactExecutor fresh(c, "t");
    std::vector<std::uint64_t> bits;
    double built_after = 0.0, fresh_built = 0.0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ExactResult r =
          exec.execute(queries[i], ExecParadigm::kCoordinatorIndexed);
      const ExactResult f =
          fresh.execute(queries[i], ExecParadigm::kCoordinatorIndexed);
      EXPECT_EQ(result_bits(r), result_bits(f)) << "query " << i;
      bits.push_back(result_bits(r));
      if (i == 0) {
        EXPECT_GT(exec.index_build_ms(), built_before);
        EXPECT_GT(fresh.index_build_ms(), 0.0);
        built_after = exec.index_build_ms();
        fresh_built = fresh.index_build_ms();
      } else {
        EXPECT_EQ(exec.index_build_ms(), built_after);
        EXPECT_EQ(fresh.index_build_ms(), fresh_built);
      }
    }
    bits_by_threads.push_back(std::move(bits));
  }
  EXPECT_EQ(bits_by_threads[0], bits_by_threads[1]);
  set_configured_threads(before);
}

/// Branchy reference for one range/radius map task: one gathered row at a
/// time, the row scan's own predicates, qualifying rows added in order.
AggregateState naive_map(const Table& part, const AnalyticalQuery& q) {
  AggregateState agg;
  Point p;
  const double r2 = q.ball.radius * q.ball.radius;
  for (std::size_t r = 0; r < part.num_rows(); ++r) {
    part.gather(r, q.subspace_cols, p);
    bool in = true;
    if (q.selection == SelectionType::kRange) {
      for (std::size_t j = 0; j < p.size(); ++j) {
        if (!(p[j] >= q.range.lo[j] && p[j] <= q.range.hi[j])) {
          in = false;
          break;
        }
      }
    } else {
      in = squared_distance(p, q.ball.center) <= r2;
    }
    if (!in) continue;
    agg.add(needs_target(q.analytic) ? part.at(r, q.target_col) : 0.0,
            needs_second_target(q.analytic) ? part.at(r, q.target_col2)
                                            : 0.0);
  }
  return agg;
}

struct NaiveCand {
  double dist, t, u;
};

/// Reference MapReduce kNN: each partition's k nearest by a full sort on
/// (distance, row), concatenated in node order; the k nearest of those by
/// a stable sort on distance, folded in that order.
AggregateState naive_knn(const Cluster& c, const AnalyticalQuery& q,
                         std::size_t& shuffled) {
  std::vector<NaiveCand> all;
  Point p;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    const Table& part = c.partition("t", static_cast<NodeId>(n));
    std::vector<std::pair<double, std::size_t>> d2;
    for (std::size_t r = 0; r < part.num_rows(); ++r) {
      part.gather(r, q.subspace_cols, p);
      d2.emplace_back(squared_distance(p, q.knn_point), r);
    }
    std::sort(d2.begin(), d2.end(), [](const auto& a, const auto& b) {
      if (nan_last_less(a.first, b.first)) return true;
      if (nan_last_less(b.first, a.first)) return false;
      return a.second < b.second;
    });
    for (std::size_t i = 0; i < std::min(q.knn_k, d2.size()); ++i) {
      const std::size_t r = d2[i].second;
      all.push_back(
          {std::sqrt(d2[i].first),
           needs_target(q.analytic) ? part.at(r, q.target_col) : 0.0,
           needs_second_target(q.analytic) ? part.at(r, q.target_col2)
                                           : 0.0});
    }
  }
  shuffled = all.size();
  std::stable_sort(all.begin(), all.end(),
                   [](const NaiveCand& a, const NaiveCand& b) {
                     return nan_last_less(a.dist, b.dist);
                   });
  AggregateState agg;
  for (std::size_t i = 0; i < std::min(q.knn_k, all.size()); ++i)
    agg.add(all[i].t, all[i].u);
  return agg;
}

bool same_state(const AggregateState& a, const AggregateState& b) {
  return std::memcmp(&a, &b, sizeof(AggregateState)) == 0;
}

class ExactMapDiff : public ::testing::TestWithParam<std::size_t> {};

// 100 seeds over d-column tables (clustered, duplicate-heavy, +-0.0 and
// NaN-bearing data) split round-robin over three nodes, so each partition
// holds 0, 1, 2047, 2048 or 2049 rows (or one more). Every range, radius
// and kNN query x COUNT/SUM/AVG/VAR/CORR through the MapReduce path must
// return the AggregateState of the branchy reference byte for byte — the
// merge order of the reduce and the coordinator included — with k up to
// past the partition size, at SEA_THREADS 1 and 8. The shuffle carries
// one 48-byte state per map task, or one 24-byte candidate per kNN row.
TEST_P(ExactMapDiff, FusedMapsMatchBranchyReference) {
  const std::size_t d = GetParam();
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kPerNode[] = {0, 1, 2047, 2048, 2049};
  constexpr AnalyticType kAnalytics[] = {
      AnalyticType::kCount, AnalyticType::kSum, AnalyticType::kAvg,
      AnalyticType::kVariance, AnalyticType::kCorrelation};
  const std::size_t before = configured_threads();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const testing::ScanData kind =
        testing::kScanDataKinds[(seed + d) % std::size(testing::kScanDataKinds)];
    const std::size_t rows = kNodes * kPerNode[seed % std::size(kPerNode)] +
                             (seed / 5) % kNodes;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " kind=" + std::to_string(static_cast<int>(kind)) +
                 " rows=" + std::to_string(rows));
    const Table t = testing::scan_table(kind, rows, d, seed * 613 + d);
    Cluster c = testing::make_cluster(t, "t", kNodes);
    ExactExecutor exec(c, "t");
    Rng rng(seed * 7 + d);
    for (const AnalyticType an : kAnalytics) {
      const testing::ScanGeometry g = testing::scan_geometry(
          c.partition("t", 0), d, rng);
      AnalyticalQuery q;
      q.analytic = an;
      q.subspace_cols.resize(d);
      std::iota(q.subspace_cols.begin(), q.subspace_cols.end(),
                std::size_t{0});
      q.target_col = d;
      q.target_col2 = d + 1;
      q.range = g.rect;
      q.ball = g.ball;
      q.knn_point = g.center;
      q.knn_k = g.k;
      for (const SelectionType sel :
           {SelectionType::kRange, SelectionType::kRadius,
            SelectionType::kNearestNeighbors}) {
        q.selection = sel;
        SCOPED_TRACE(q.describe());
        AggregateState want;
        std::size_t shuffled = kNodes;
        std::size_t kv_bytes = AggregateState::kWireBytes;
        if (sel == SelectionType::kNearestNeighbors) {
          // The reducer's state, merged once more by the coordinator.
          want.merge(naive_knn(c, q, shuffled));
          kv_bytes = 3 * sizeof(double);
        } else {
          AggregateState reduced;
          for (std::size_t n = 0; n < kNodes; ++n) {
            const Table& part = c.partition("t", static_cast<NodeId>(n));
            const AggregateState map = naive_map(part, q);
            EXPECT_TRUE(same_state(scan_aggregate(part, q), map)) << n;
            reduced.merge(map);
          }
          want.merge(reduced);
        }
        for (const std::size_t threads : {1, 8}) {
          set_configured_threads(threads);
          const ExactResult r = exec.execute(q, ExecParadigm::kMapReduce);
          EXPECT_TRUE(same_state(r.state, want)) << threads;
          EXPECT_EQ(r.qualifying_tuples, want.count) << threads;
          EXPECT_EQ(r.report.shuffle_bytes, shuffled * kv_bytes) << threads;
        }
        set_configured_threads(before);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ExactMapDiff, ::testing::Values(1, 2, 3, 5));

// The MapReduce kNN reduce merges the per-node runs instead of stable
// sorting them. Tie-heavy data: the same lattice points (one in eight
// NaN, so NaN distances) land in all eight partitions with different
// targets, so every distance ties across nodes and the fold order decides
// the bits. The state must equal the stable-sort reference byte for byte.
TEST(ExactMapReduce, KnnReduceMergeMatchesStableSortOnCrossNodeTies) {
  constexpr std::size_t kNodes = 8;
  Rng rng(515);
  std::vector<std::vector<double>> cols(4);
  for (std::size_t p = 0; p < 60; ++p) {
    const bool nan = rng.uniform_index(8) == 0;
    const auto coord = [&] {
      return nan ? std::nan("")
                 : 0.25 * static_cast<double>(rng.uniform_index(5));
    };
    const double x = coord();
    const double y = coord();
    // Round-robin partitioning puts one copy on each node.
    for (std::size_t copy = 0; copy < kNodes; ++copy) {
      cols[0].push_back(x);
      cols[1].push_back(y);
      cols[2].push_back(rng.uniform(-1.0, 1.0));
      cols[3].push_back(rng.uniform(-1.0, 1.0));
    }
  }
  const Table t =
      Table::from_columns(Schema({"x", "y", "t", "u"}), std::move(cols));
  Cluster c = testing::make_cluster(t, "t", kNodes);
  ExactExecutor exec(c, "t");
  for (const AnalyticType an :
       {AnalyticType::kSum, AnalyticType::kAvg, AnalyticType::kCorrelation}) {
    for (const std::size_t k : {1, 5, 30, 59, 60, 61, 200, 480, 500}) {
      AnalyticalQuery q;
      q.selection = SelectionType::kNearestNeighbors;
      q.analytic = an;
      q.subspace_cols = {0, 1};
      q.target_col = 2;
      q.target_col2 = 3;
      q.knn_point = {0.5, 0.25};
      q.knn_k = k;
      SCOPED_TRACE(q.describe());
      std::size_t shuffled = 0;
      AggregateState want;
      want.merge(naive_knn(c, q, shuffled));
      const ExactResult r = exec.execute(q, ExecParadigm::kMapReduce);
      EXPECT_TRUE(same_state(r.state, want));
      EXPECT_EQ(r.qualifying_tuples, std::min<std::size_t>(k, t.num_rows()));
    }
  }
}

}  // namespace
}  // namespace sea
