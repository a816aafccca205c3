// Tests: deterministic parallel execution (DESIGN.md "Concurrency model").
//
// Every suite here runs the same seeded computation serially
// (SEA_THREADS=0) and on an 8-worker pool and asserts bit-for-bit equal
// results AND bit-for-bit equal side counters (fault injections, retries,
// serve statistics) — the determinism contract the fault-injection
// framework from PR 1 depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "exec/mapreduce.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "index/score_index.h"
#include "ml/gbm.h"
#include "sea/agent.h"
#include "sea/exact.h"
#include "sea/served.h"
#include "test_util.h"
#include "workload/workload.h"

namespace sea {
namespace {

using testing::brute_force_answer;
using testing::make_cluster;
using testing::small_dataset;

/// Runs `f` under a fixed worker count and restores serial mode after.
template <typename F>
auto with_threads(std::size_t threads, F&& f) {
  set_configured_threads(threads);
  auto result = f();
  set_configured_threads(0);
  return result;
}

// --- ParallelFor / ParallelChunks primitives ---

TEST(ParallelFor, EveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
    set_configured_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  set_configured_threads(0);
}

TEST(ParallelChunks, ChunksAreContiguousAndCoverRange) {
  set_configured_threads(8);
  std::vector<std::atomic<int>> hits(257);
  ParallelChunks(hits.size(), [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  set_configured_threads(0);
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  set_configured_threads(8);
  std::atomic<int> total{0};
  ParallelFor(16, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // A nested region must not re-enter the pool (it would deadlock a
    // fully occupied pool) — it runs inline on this worker.
    ParallelFor(16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 256);
  EXPECT_FALSE(in_parallel_region());
  set_configured_threads(0);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  set_configured_threads(8);
  EXPECT_THROW(ParallelFor(64,
                           [&](std::size_t i) {
                             if (i == 33)
                               throw std::runtime_error("body failed");
                           }),
               std::runtime_error);
  // The region flag must be restored even after a throwing body.
  EXPECT_FALSE(in_parallel_region());
  set_configured_threads(0);
}

// --- MapReduce: identical results and fault counters at any thread count ---

struct MrOutcome {
  std::vector<std::pair<int, double>> results;
  std::uint64_t shuffle_bytes, result_bytes, map_tasks, reduce_tasks;
  std::uint64_t retries, dropped, rerouted;
  double backoff_ms, network_ms, overhead_ms;
  std::uint64_t fault_ticks, fault_drops, fault_spikes;

  bool operator==(const MrOutcome&) const = default;
};

MrOutcome run_faulty_job(const Table& table) {
  Cluster cluster(4, Network::single_zone(4));
  PartitionSpec spec;
  spec.replicas = 2;
  cluster.load_table("t", table, spec);
  FaultPlan plan;
  plan.seed = 404;
  plan.drop_probability = 0.12;
  plan.spike_probability = 0.05;
  // Non-overlapping windows: with replicas=2 a shard held by nodes 1 and 2
  // must always retain one live holder.
  plan.flaps = {{1, 2, 7}, {2, 9, 14}};
  FaultInjector inj(plan);
  inj.attach(cluster);
  RetryPolicy policy;
  policy.max_attempts = 8;
  cluster.set_retry_policy(policy);

  MapReduceJob<int, double, double> job;
  job.map = [](NodeId, const Table& part, Emitter<int, double>& out) {
    for (std::size_t r = 0; r < part.num_rows(); ++r)
      out.emit(static_cast<int>(part.at(r, 0) * 8.0), part.at(r, 1));
  };
  job.reduce = [](const int&, std::vector<double>& vals) {
    double s = 0;
    for (const double v : vals) s += v;
    return s;
  };

  ExecReport total;
  std::vector<std::pair<int, double>> results;
  for (int round = 0; round < 4; ++round) {
    auto out = run_map_reduce(cluster, "t", job);
    total.merge(out.report);
    results.insert(results.end(), out.results.begin(), out.results.end());
  }
  const FaultStats fs = inj.stats();
  inj.detach(cluster);
  return MrOutcome{std::move(results),
                   total.shuffle_bytes,
                   total.result_bytes,
                   total.map_tasks,
                   total.reduce_tasks,
                   total.retries,
                   total.dropped_messages,
                   total.tasks_rerouted,
                   total.modelled_backoff_ms,
                   total.modelled_network_ms,
                   total.modelled_overhead_ms,
                   fs.ticks,
                   fs.drops,
                   fs.spikes};
}

TEST(MapReduceDeterminism, SerialAndParallelAgreeUnderFaults) {
  const Table table = small_dataset(4000, 2, 77);
  const MrOutcome serial =
      with_threads(0, [&] { return run_faulty_job(table); });
  const MrOutcome parallel =
      with_threads(8, [&] { return run_faulty_job(table); });
  EXPECT_GT(serial.retries + serial.dropped, 0u) << "faults must be active";
  EXPECT_GT(serial.rerouted, 0u) << "flaps must have rerouted tasks";
  EXPECT_EQ(serial, parallel);
}

TEST(MapReduceDeterminism, WallClockIsMeasuredSeparatelyFromModel) {
  const Table table = small_dataset(2000, 2, 5);
  Cluster cluster = make_cluster(table, "t", 4);
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
  const auto out = run_map_reduce(cluster, "t", job);
  EXPECT_GT(out.report.wall_ms, 0.0);
  // Modelled makespan is independent of how fast this host ran the job.
  ExecReport copy = out.report;
  copy.wall_ms = 0.0;
  EXPECT_EQ(copy.makespan_ms(), out.report.makespan_ms());
}

// --- Indexed exact execution: one parallel probe cell per shard ---

enum class IndexedScenario { kClean, kHedged, kFlap };

/// Answer bits, state bytes and every ExecReport column except the
/// measured ms, for range/radius/kNN x COUNT/AVG/CORR on the k-d, grid and
/// learned paths, plus the cluster's probe counters at the end.
std::vector<std::uint64_t> run_indexed(std::size_t threads,
                                       IndexedScenario scenario) {
  set_configured_threads(threads);
  const Table table = small_dataset(6000, 3, 31);
  PartitionSpec spec;
  spec.replicas = 2;
  Cluster cluster = make_cluster(table, "t", 8, spec);
  FaultPlan plan;
  plan.seed = 29;
  if (scenario == IndexedScenario::kHedged) {
    HedgeConfig hc;
    hc.enabled = true;
    hc.quantile = 0.9;
    hc.multiplier = 1.2;
    hc.min_samples = 2;  // a fresh session per query: arm within it
    cluster.set_hedge_config(hc);
    plan.spike_probability = 0.2;
    plan.spike_multiplier = 20.0;
  } else if (scenario == IndexedScenario::kFlap) {
    plan.flaps = {{3, 3, 6}, {5, 46, 52}};  // down mid-query, then back
  }
  FaultInjector inj(plan);
  if (scenario != IndexedScenario::kClean) inj.attach(cluster);
  ExactExecutor exec(cluster, "t");
  std::vector<std::uint64_t> out;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const ExecParadigm p :
       {ExecParadigm::kCoordinatorIndexed, ExecParadigm::kCoordinatorGrid,
        ExecParadigm::kCoordinatorLearned}) {
    for (const SelectionType sel :
         {SelectionType::kRange, SelectionType::kRadius,
          SelectionType::kNearestNeighbors}) {
      for (const AnalyticType an : {AnalyticType::kCount, AnalyticType::kAvg,
                                    AnalyticType::kCorrelation}) {
        AnalyticalQuery q;
        q.selection = sel;
        q.analytic = an;
        q.subspace_cols = {0, 1};
        q.target_col = 3;
        q.target_col2 = 2;
        q.range = Rect{{0.2, 0.1}, {0.7, 0.8}};
        q.ball = Ball{{0.45, 0.5}, 0.25};
        q.knn_point = {0.4, 0.6};
        q.knn_k = 40;
        const ExactResult r = exec.execute(q, p);
        std::uint64_t state[sizeof(AggregateState) / 8];
        std::memcpy(state, &r.state, sizeof(state));
        out.insert(out.end(), std::begin(state), std::end(state));
        const ExecReport& e = r.report;
        out.insert(out.end(),
                   {bits(r.answer), r.qualifying_tuples,
                    bits(e.modelled_network_ms),
                    bits(e.modelled_network_ms_critical),
                    bits(e.modelled_overhead_ms), e.shuffle_bytes,
                    e.result_bytes, e.map_tasks, e.reduce_tasks,
                    e.rpc_round_trips, e.retries, e.dropped_messages,
                    e.tasks_rerouted, bits(e.modelled_backoff_ms),
                    e.retry_budget_exhausted, e.hedged_rpcs, e.hedges_won,
                    e.breaker_fast_fails, e.recoveries,
                    e.shard_restore_bytes});
      }
    }
  }
  if (scenario != IndexedScenario::kClean) inj.detach(cluster);
  const AccessStats& a = cluster.stats();
  out.insert(out.end(), {a.tasks, a.node_touches, a.rows_scanned,
                         a.bytes_read, a.index_probes,
                         bits(a.modelled_overhead_ms)});
  set_configured_threads(0);
  return out;
}

/// run_indexed's per-execution record: the state words, then 20 values
/// (answer, qualifying tuples, then the ExecReport columns in order).
constexpr std::size_t kStateWords = sizeof(AggregateState) / 8;
constexpr std::size_t kRecordWords = kStateWords + 20;
constexpr std::size_t kReroutedColumn = 12;  // ExecReport::tasks_rerouted
constexpr std::size_t kHedgedColumn = 15;    // ExecReport::hedged_rpcs

/// Sum of one record column over all 27 executions.
std::uint64_t indexed_column_sum(const std::vector<std::uint64_t>& run,
                                 std::size_t column) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i + kRecordWords <= run.size(); i += kRecordWords)
    sum += run[i + kStateWords + column];
  return sum;
}

// Every probe is a pure function of (query, shard), so computing them all
// as one parallel region before the serial RPC replay changes no answer
// bit, modelled column or counter at any SEA_THREADS; under hedged reads
// and a mid-query flap every replica the replay reaches returns the same
// cell, so the answers equal the fault-free ones.
TEST(IndexedDeterminism, ProbeCellsAreThreadCountInvariant) {
  const auto clean = run_indexed(1, IndexedScenario::kClean);
  for (const IndexedScenario s :
       {IndexedScenario::kClean, IndexedScenario::kHedged,
        IndexedScenario::kFlap}) {
    SCOPED_TRACE(static_cast<int>(s));
    const auto serial = run_indexed(1, s);
    EXPECT_EQ(serial, run_indexed(2, s));
    EXPECT_EQ(serial, run_indexed(8, s));
    // State bytes, answer and qualifying tuples match the clean run.
    ASSERT_EQ(serial.size(), clean.size());
    for (std::size_t i = 0; i + kRecordWords <= serial.size();
         i += kRecordWords)
      EXPECT_TRUE(std::equal(serial.begin() + i,
                             serial.begin() + i + kStateWords + 2,
                             clean.begin() + i))
          << "execution " << i / kRecordWords;
  }
  EXPECT_GT(indexed_column_sum(run_indexed(1, IndexedScenario::kHedged),
                               kHedgedColumn),
            0u)
      << "spikes must trigger hedged reads";
  EXPECT_GT(indexed_column_sum(run_indexed(1, IndexedScenario::kFlap),
                               kReroutedColumn),
            0u)
      << "the flaps must reroute RPCs";
}

// --- Index builds: serial and parallel structures answer identically ---

std::vector<Point> clustered_points(std::size_t n, std::uint64_t seed) {
  const Table t = small_dataset(n, 3, seed);
  std::vector<Point> pts(t.num_rows());
  const std::vector<std::size_t> cols{0, 1, 2};
  Point p;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    t.gather(r, cols, p);
    pts[r] = p;
  }
  return pts;
}

TEST(KdTreeDeterminism, SerialAndParallelBuildsAnswerIdentically) {
  const auto pts = clustered_points(10000, 9);
  const KdTree serial =
      with_threads(0, [&] { return KdTree(pts); });
  const KdTree parallel =
      with_threads(8, [&] { return KdTree(pts); });

  const Rect domain = [&] {
    Rect r;
    r.lo = pts[0];
    r.hi = pts[0];
    for (const auto& p : pts)
      for (std::size_t d = 0; d < p.size(); ++d) {
        r.lo[d] = std::min(r.lo[d], p[d]);
        r.hi[d] = std::max(r.hi[d], p[d]);
      }
    return r;
  }();
  Rng rng(33);
  for (int i = 0; i < 25; ++i) {
    Rect q;
    q.lo.resize(3);
    q.hi.resize(3);
    for (std::size_t d = 0; d < 3; ++d) {
      const double a = rng.uniform(domain.lo[d], domain.hi[d]);
      const double b = rng.uniform(domain.lo[d], domain.hi[d]);
      q.lo[d] = std::min(a, b);
      q.hi[d] = std::max(a, b);
    }
    KdQueryCost cs, cp;
    EXPECT_EQ(serial.range_query(q, &cs), parallel.range_query(q, &cp));
    // Identical visit counts prove the trees are structurally identical,
    // not merely equivalent.
    EXPECT_EQ(cs.nodes_visited, cp.nodes_visited);
    EXPECT_EQ(cs.points_examined, cp.points_examined);

    Point center(3);
    for (std::size_t d = 0; d < 3; ++d)
      center[d] = rng.uniform(domain.lo[d], domain.hi[d]);
    EXPECT_EQ(serial.knn(center, 12), parallel.knn(center, 12));
    EXPECT_EQ(serial.radius_query(Ball{center, 0.4}),
              parallel.radius_query(Ball{center, 0.4}));
  }
}

TEST(ScoreIndexDeterminism, TieHeavyRankOrderIsThreadCountInvariant) {
  // Coarsely quantized scores force massive ties: the strict (score desc,
  // row asc) total order must resolve them identically in the serial sort
  // and the parallel chunk-sort + merge.
  Table t{Schema({"key", "score", "payload"})};
  Rng rng(123);
  for (std::size_t i = 0; i < 20000; ++i)
    t.append_row(std::vector<double>{double(i % 997),
                                     std::floor(rng.uniform() * 10.0),
                                     rng.uniform()});
  const ScoreIndex serial =
      with_threads(0, [&] { return ScoreIndex(t, 0, 1, 2); });
  const ScoreIndex parallel =
      with_threads(8, [&] { return ScoreIndex(t, 0, 1, 2); });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial.by_rank(r).row, parallel.by_rank(r).row);
    EXPECT_EQ(serial.by_rank(r).score, parallel.by_rank(r).score);
  }
  // Ranks must be genuinely sorted (descending, ties by source row).
  for (std::size_t r = 1; r < serial.size(); ++r) {
    const auto& a = serial.by_rank(r - 1);
    const auto& b = serial.by_rank(r);
    EXPECT_TRUE(a.score > b.score || (a.score == b.score && a.row < b.row));
  }
}

TEST(GridIndexDeterminism, CellContentsAreThreadCountInvariant) {
  const auto pts = clustered_points(12000, 11);
  Rect domain;
  domain.lo = {-10, -10, -10};
  domain.hi = {10, 10, 10};
  const GridIndex serial =
      with_threads(0, [&] { return GridIndex(pts, domain, 8); });
  const GridIndex parallel =
      with_threads(8, [&] { return GridIndex(pts, domain, 8); });
  Rng rng(44);
  for (int i = 0; i < 25; ++i) {
    Point center(3);
    for (std::size_t d = 0; d < 3; ++d) center[d] = rng.uniform(-3.0, 3.0);
    GridQueryCost cs, cp;
    EXPECT_EQ(serial.radius_query(Ball{center, 1.5}, &cs),
              parallel.radius_query(Ball{center, 1.5}, &cp));
    EXPECT_EQ(cs.points_examined, cp.points_examined);
    EXPECT_EQ(serial.knn(center, 9), parallel.knn(center, 9));
  }
}

// --- Agent: batched observe/refit is thread-count invariant ---

struct AgentProbe {
  std::vector<double> values, abs_errors;
  std::uint64_t observations, drift_alarms;

  bool operator==(const AgentProbe&) const = default;
};

AgentProbe train_and_probe(const Table& table, std::size_t batch_rounds) {
  AgentConfig cfg;
  cfg.min_samples_to_predict = 12;
  cfg.refit_interval = 8;
  cfg.max_relative_error = 0.3;
  cfg.create_distance = 0.06;
  cfg.model_kind = QuantumModelKind::kAuto;
  cfg.auto_select_model = true;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& c) {
    return table_bounds(table, c);
  });

  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 2;
  wc.seed = 77;
  wc.hotspot_anchors = sample_anchor_points(table, wc.subspace_cols, 16, 78);
  QueryWorkload workload(wc, table_bounds(table, std::vector<std::size_t>{0, 1}));

  for (std::size_t round = 0; round < batch_rounds; ++round) {
    std::vector<std::pair<AnalyticalQuery, double>> batch;
    for (int i = 0; i < 64; ++i) {
      const auto q = workload.next();
      batch.emplace_back(q, brute_force_answer(table, q));
    }
    agent.observe_batch(batch);
  }

  AgentProbe probe{{}, {}, agent.stats().observations,
                   agent.stats().drift_alarms};
  for (int i = 0; i < 50; ++i) {
    const auto q = workload.next();
    if (const auto p = agent.maybe_predict(q)) {
      probe.values.push_back(p->value);
      probe.abs_errors.push_back(p->expected_abs_error);
    } else {
      probe.values.push_back(std::numeric_limits<double>::quiet_NaN());
      probe.abs_errors.push_back(-1.0);
    }
  }
  // NaN != NaN would break the comparison; encode missing as sentinel.
  for (auto& v : probe.values)
    if (std::isnan(v)) v = -1e308;
  return probe;
}

TEST(AgentDeterminism, BatchedTrainingIsThreadCountInvariant) {
  const Table table = small_dataset(4000, 2, 41);
  const AgentProbe serial =
      with_threads(0, [&] { return train_and_probe(table, 6); });
  const AgentProbe parallel =
      with_threads(8, [&] { return train_and_probe(table, 6); });
  EXPECT_GT(serial.observations, 300u);
  std::size_t usable = 0;
  for (const double v : serial.values)
    if (v != -1e308) ++usable;
  EXPECT_GT(usable, 10u) << "agent should be warm enough to predict";
  EXPECT_EQ(serial, parallel);
}

TEST(AgentDeterminism, BatchAndSerialObserveConvergeOnSamePairs) {
  // observe_batch defers refits to the batch boundary, so mid-batch
  // residual bookkeeping may differ from N sequential observe() calls —
  // but the stored training pairs and quantization must match exactly.
  const Table table = small_dataset(2000, 2, 43);
  AgentConfig cfg;
  cfg.refit_interval = 8;
  const auto make = [&] {
    return DatalessAgent(cfg, [&](const std::vector<std::size_t>& c) {
      return table_bounds(table, c);
    });
  };
  DatalessAgent one_by_one = make();
  DatalessAgent batched = make();

  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.seed = 9;
  QueryWorkload workload(wc, table_bounds(table, std::vector<std::size_t>{0, 1}));
  std::vector<std::pair<AnalyticalQuery, double>> batch;
  for (int i = 0; i < 100; ++i) {
    const auto q = workload.next();
    batch.emplace_back(q, brute_force_answer(table, q));
  }
  for (const auto& [q, truth] : batch) one_by_one.observe(q, truth);
  batched.observe_batch(batch);
  EXPECT_EQ(one_by_one.stats().observations, batched.stats().observations);
  const std::string sig = batch[0].first.signature();
  EXPECT_EQ(one_by_one.num_quanta(sig), batched.num_quanta(sig));
}

// --- Serving loop: batched serving is thread-count invariant ---

struct ServeOutcome {
  std::vector<std::tuple<double, bool, bool, bool>> answers;
  std::uint64_t queries, data_less, exact_executed, exact_failures;
  std::uint64_t degraded, failed;
  std::uint64_t agent_served, agent_declined;

  bool operator==(const ServeOutcome&) const = default;
};

ServeOutcome run_serve_batches(const Table& table) {
  Cluster cluster(4, Network::single_zone(4));
  PartitionSpec spec;
  spec.replicas = 2;
  cluster.load_table("t", table, spec);
  FaultPlan plan;
  plan.seed = 17;
  plan.drop_probability = 0.08;
  plan.flaps = {{2, 30, 60}};
  FaultInjector inj(plan);
  inj.attach(cluster);
  RetryPolicy policy;
  policy.max_attempts = 8;
  cluster.set_retry_policy(policy);

  ExactExecutor exec(cluster, "t");
  AgentConfig cfg;
  cfg.min_samples_to_predict = 12;
  cfg.refit_interval = 8;
  cfg.max_relative_error = 0.3;
  cfg.create_distance = 0.06;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 120;
  sc.audit_fraction = 0.25;
  ServedAnalytics served(agent, exec, sc);

  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 2;
  wc.seed = 21;
  wc.hotspot_anchors = sample_anchor_points(table, wc.subspace_cols, 16, 20);
  QueryWorkload workload(wc, exec.domain({0, 1}));

  ServeOutcome out{};
  for (int round = 0; round < 8; ++round) {
    std::vector<AnalyticalQuery> batch;
    for (int i = 0; i < 50; ++i) batch.push_back(workload.next());
    for (const auto& a : served.serve_batch(batch))
      out.answers.emplace_back(a.value, a.data_less, a.degraded, a.failed);
  }
  const ServeStats& st = served.stats();
  out.queries = st.queries;
  out.data_less = st.data_less_served;
  out.exact_executed = st.exact_executed;
  out.exact_failures = st.exact_failures;
  out.degraded = st.degraded_served;
  out.failed = st.failed;
  EXPECT_TRUE(st.conserved())
      << "query conservation violated: " << st.queries << " != "
      << st.data_less_served << "+" << st.exact_answered << "+" << st.shed
      << "+" << st.failed;
  out.agent_served = agent.stats().predictions_served;
  out.agent_declined = agent.stats().predictions_declined;
  inj.detach(cluster);
  return out;
}

TEST(ServeBatchDeterminism, AnswersAndStatsAreThreadCountInvariant) {
  const Table table = small_dataset(3000, 2, 49);
  const ServeOutcome serial =
      with_threads(0, [&] { return run_serve_batches(table); });
  const ServeOutcome parallel =
      with_threads(8, [&] { return run_serve_batches(table); });
  EXPECT_EQ(serial.queries, 400u);
  EXPECT_GT(serial.data_less, 0u) << "agent should go data-less";
  EXPECT_EQ(serial, parallel);
}

TEST(ServeBatch, MatchesServeOnFaultFreeCluster) {
  const Table table = small_dataset(2000, 2, 50);
  Cluster cluster = make_cluster(table, "t", 4);
  ExactExecutor exec(cluster, "t");
  AgentConfig cfg;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 5;
  sc.audit_fraction = 0.0;
  ServedAnalytics served(agent, exec, sc);
  std::vector<AnalyticalQuery> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back(testing::range_count_query(0.3, 0.7, 0.3, 0.7));
  const auto answers = served.serve_batch(batch);
  ASSERT_EQ(answers.size(), batch.size());
  const double truth = brute_force_answer(table, batch[0]);
  for (const auto& a : answers) {
    EXPECT_FALSE(a.failed);
    if (!a.data_less) EXPECT_NEAR(a.value, truth, 1e-9);
  }
  EXPECT_EQ(served.stats().queries, 10u);
}

// --- GBM stochastic subsampling: stream-seeded, so reproducible ---

TEST(GbmSubsample, SameStreamSameModel) {
  const Table t = small_dataset(600, 2, 13);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    xs.push_back({t.at(r, 0), t.at(r, 1)});
    ys.push_back(t.at(r, 2));
  }
  GbmParams params;
  params.num_trees = 30;
  params.subsample = 0.6;
  Rng a(91), b(91);
  GbmRegressor ga(params), gb(params);
  ga.fit(xs, ys, &a);
  gb.fit(xs, ys, &b);
  for (std::size_t r = 0; r < 40; ++r)
    EXPECT_EQ(ga.predict(xs[r]), gb.predict(xs[r]));
  // The stream really was consumed (subsampling happened).
  Rng fresh(91);
  EXPECT_NE(a.next_u64(), fresh.next_u64());
}

}  // namespace
}  // namespace sea
