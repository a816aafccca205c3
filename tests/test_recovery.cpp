// Tests: crash-recovery subsystem — durable checkpoints + WAL replay,
// replica anti-entropy, chaos-schedule generation, and the E17 acceptance
// scenario (ISSUE: crash-recovery tentpole; paper availability axis, P4).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "fault/outage.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/chaos.h"
#include "recovery/checkpoint.h"
#include "recovery/replica.h"
#include "sea/exact.h"
#include "sea/served.h"
#include "test_util.h"
#include "workload/workload.h"

namespace sea::recovery {
namespace {

using sea::testing::brute_force_answer;
using sea::testing::range_count_query;
using sea::testing::small_dataset;

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

TEST(CheckpointStore, CheckpointTruncatesCoveredWalPrefix) {
  CheckpointStore store;
  const AnalyticalQuery q = range_count_query(0.0, 1.0, 0.0, 1.0);
  for (std::uint64_t v = 1; v <= 5; ++v)
    store.append_wal(7, WalRecord{v, q, static_cast<double>(v)});
  ASSERT_EQ(store.wal(7).size(), 5u);
  EXPECT_EQ(store.stats().wal_appends, 5u);
  EXPECT_FALSE(store.checkpoint(7).has_value());
  EXPECT_GT(store.wal_bytes(7), 0u);

  store.put_checkpoint(7, CheckpointRecord{"blob", 3, 10.0});
  ASSERT_TRUE(store.checkpoint(7).has_value());
  EXPECT_EQ(store.checkpoint(7)->version, 3u);
  ASSERT_EQ(store.wal(7).size(), 2u);
  EXPECT_EQ(store.wal(7).front().version, 4u);
  EXPECT_EQ(store.stats().wal_truncated, 3u);

  // A newer checkpoint epoch: truncation is *deferred* to the oldest
  // retained epoch (v3, with the default retention of 2), so the WAL
  // keeps the records a fallback load from v3 would need. The newest blob
  // is what a plain load returns.
  store.put_checkpoint(7, CheckpointRecord{"blob2", 5, 20.0});
  ASSERT_EQ(store.wal(7).size(), 2u);
  EXPECT_EQ(store.wal(7).front().version, 4u);
  EXPECT_EQ(store.checkpoint(7)->blob, "blob2");
  EXPECT_EQ(store.stats().checkpoints_taken, 2u);
  EXPECT_EQ(store.retained_checkpoints(7), 2u);

  // A third epoch evicts v3; now v5 is the oldest retained epoch and the
  // records it covers finally go.
  store.put_checkpoint(7, CheckpointRecord{"blob3", 5, 30.0});
  EXPECT_TRUE(store.wal(7).empty());
  EXPECT_EQ(store.wal_bytes(7), 0u);
  EXPECT_EQ(store.retained_checkpoints(7), 2u);

  // Unknown node: empty WAL, no checkpoint, no crash.
  EXPECT_TRUE(store.wal(99).empty());
  EXPECT_FALSE(store.checkpoint(99).has_value());

  // Retention 1 restores eager truncation for comparison experiments.
  CheckpointStore eager;
  eager.set_checkpoint_retention(1);
  for (std::uint64_t v = 1; v <= 5; ++v)
    eager.append_wal(3, WalRecord{v, q, static_cast<double>(v)});
  eager.put_checkpoint(3, CheckpointRecord{"b", 5, 10.0});
  EXPECT_TRUE(eager.wal(3).empty());
  EXPECT_THROW(eager.set_checkpoint_retention(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ModelReplicaSet
// ---------------------------------------------------------------------------

struct ReplicaSetFixture : public ::testing::Test {
  Table table = small_dataset(2000, 2, 311);
  Rng qrng{41};

  ReplicaSetConfig base_config(std::vector<NodeId> nodes) {
    ReplicaSetConfig cfg;
    cfg.nodes = std::move(nodes);
    cfg.agent.min_samples_to_predict = 8;
    cfg.agent.create_distance = 0.3;
    return cfg;
  }

  ModelReplicaSet::DomainProvider domain() {
    return [this](const std::vector<std::size_t>& cols) {
      return table_bounds(table, cols);
    };
  }

  AnalyticalQuery next_query() {
    const double lo0 = qrng.uniform(0.0, 0.6);
    const double lo1 = qrng.uniform(0.0, 0.6);
    return range_count_query(lo0, lo0 + 0.35, lo1, lo1 + 0.35);
  }

  /// A reusable ground-truth stream so twin replica sets can be fed
  /// byte-identical observation sequences.
  std::vector<std::pair<AnalyticalQuery, double>> stream(int n) {
    std::vector<std::pair<AnalyticalQuery, double>> s;
    s.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const AnalyticalQuery q = next_query();
      s.emplace_back(q, brute_force_answer(table, q));
    }
    return s;
  }

  static void feed(ModelReplicaSet& rs,
                   const std::vector<std::pair<AnalyticalQuery, double>>& s,
                   double ms_per = 1.0) {
    for (const auto& [q, truth] : s) {
      rs.observe(q, truth);
      rs.advance(ms_per);
    }
  }

  static std::string model_bytes(ModelReplicaSet& rs) {
    std::stringstream out;
    rs.primary()->serialize(out);
    return out.str();
  }
};

TEST_F(ReplicaSetFixture, RejectsEmptyAndDuplicateNodeLists) {
  EXPECT_THROW(ModelReplicaSet(base_config({}), domain()),
               std::invalid_argument);
  EXPECT_THROW(ModelReplicaSet(base_config({1, 2, 1}), domain()),
               std::invalid_argument);
}

TEST_F(ReplicaSetFixture, ObserveAppliesToLiveReplicasAndLogsWal) {
  ReplicaSetConfig cfg = base_config({1, 2});
  cfg.checkpoint_interval_ms = 0.0;  // never truncate
  ModelReplicaSet rs(cfg, domain());
  feed(rs, stream(20));
  EXPECT_EQ(rs.committed_version(), 20u);
  EXPECT_EQ(rs.replica_version(1), 20u);
  EXPECT_EQ(rs.replica_version(2), 20u);
  EXPECT_EQ(rs.store().wal(1).size(), 20u);
  EXPECT_EQ(rs.store().wal(2).size(), 20u);
  EXPECT_EQ(rs.stats().checkpoints, 0u);
  ASSERT_NE(rs.primary(), nullptr);
  EXPECT_FALSE(rs.primary_stale());
}

TEST_F(ReplicaSetFixture, CheckpointsFollowTheModelledClock) {
  ReplicaSetConfig cfg = base_config({1});
  cfg.checkpoint_interval_ms = 10.0;
  ModelReplicaSet rs(cfg, domain());
  feed(rs, stream(40), /*ms_per=*/1.0);  // ~40ms of modelled time
  EXPECT_GE(rs.stats().checkpoints, 3u);
  EXPECT_GT(rs.stats().checkpoint_bytes, 0u);
  EXPECT_GT(rs.stats().modelled_checkpoint_ms, 0.0);
  ASSERT_TRUE(rs.store().checkpoint(1).has_value());
  // The WAL holds only the suffix past the oldest retained snapshot.
  EXPECT_LT(rs.store().wal(1).size(), 40u);
}

TEST_F(ReplicaSetFixture, RestartReplaysCheckpointPlusWalThenCatchesUp) {
  ReplicaSetConfig cfg = base_config({1, 2});
  cfg.checkpoint_interval_ms = 25.0;
  cfg.cutover_updates = 16;
  ModelReplicaSet rs(cfg, domain());
  feed(rs, stream(120));
  ASSERT_GT(rs.stats().checkpoints, 0u);

  rs.on_crash(1, 0);
  EXPECT_FALSE(rs.replica_up(1));
  EXPECT_EQ(rs.replica_version(1), 0u);
  EXPECT_EQ(rs.stats().crashes, 1u);
  // The peer keeps absorbing the committed stream while node 1 is down.
  feed(rs, stream(60));
  EXPECT_EQ(rs.replica_version(2), 180u);

  rs.on_restart(1, 0);
  rs.settle();
  EXPECT_FALSE(rs.any_recovering());
  EXPECT_EQ(rs.replica_version(1), rs.committed_version());
  EXPECT_EQ(rs.stats().recoveries, 1u);

  ASSERT_EQ(rs.recovery_events().size(), 1u);
  const RecoveryEvent& ev = rs.recovery_events().front();
  EXPECT_EQ(ev.node, 1u);
  EXPECT_GT(ev.checkpoint_version, 0u);  // snapshot was used
  EXPECT_GT(ev.replayed_updates, 0u);    // plus the WAL suffix
  EXPECT_GT(ev.delta_updates, 0u);       // plus anti-entropy for the gap
  EXPECT_EQ(ev.target_version, 180u);
  // The recovery duration is exactly the sum of its modelled charges, so
  // it is bounded by the config knobs applied to the event's counters.
  const double bound =
      cfg.checkpoint_load_ms_per_kb *
          static_cast<double>(ev.checkpoint_bytes) / 1024.0 +
      cfg.replay_ms_per_update *
          static_cast<double>(ev.replayed_updates + ev.delta_updates) +
      static_cast<double>(ev.rounds) * cfg.transfer_base_ms +
      cfg.transfer_ms_per_kb * static_cast<double>(ev.transferred_bytes) /
          1024.0;
  EXPECT_GT(ev.recovery_ms(), 0.0);
  EXPECT_LE(ev.recovery_ms(), bound + 1e-9);
}

TEST_F(ReplicaSetFixture, FullLogReplayIsBitIdenticalToNeverCrashed) {
  // Checkpointing disabled: a restart replays the entire history from
  // genesis. The recovered replica must be byte-for-byte the model a
  // never-crashed twin holds (replicas are pure functions of the
  // observation sequence).
  ReplicaSetConfig cfg = base_config({1});
  cfg.checkpoint_interval_ms = 0.0;
  ModelReplicaSet rs(cfg, domain());
  ModelReplicaSet twin(cfg, domain());
  const auto s = stream(80);
  feed(rs, s);
  feed(twin, s);

  rs.on_crash(1, 0);
  EXPECT_EQ(rs.primary(), nullptr);  // no live replica: model path is out
  rs.on_restart(1, 0);
  rs.settle();
  ASSERT_EQ(rs.recovery_events().size(), 1u);
  EXPECT_EQ(rs.recovery_events().front().checkpoint_version, 0u);
  EXPECT_EQ(rs.recovery_events().front().replayed_updates, 80u);
  EXPECT_EQ(rs.replica_version(1), twin.replica_version(1));
  EXPECT_EQ(model_bytes(rs), model_bytes(twin));
}

TEST_F(ReplicaSetFixture, CoordinatorLogCatchUpWhenNoPeerIsAlive) {
  // Single-replica deployment: updates committed while the lone replica is
  // down have no live peer to anti-entropy from — the coordinator's own
  // committed log is the fallback source, and recovery still terminates.
  ReplicaSetConfig cfg = base_config({1});
  cfg.checkpoint_interval_ms = 0.0;
  cfg.cutover_updates = 8;
  ModelReplicaSet rs(cfg, domain());
  ModelReplicaSet twin(cfg, domain());
  const auto before = stream(30);
  const auto during = stream(40);
  feed(rs, before);
  feed(twin, before);
  rs.on_crash(1, 0);
  feed(rs, during);  // committed with zero replicas up
  feed(twin, during);
  EXPECT_EQ(rs.committed_version(), 70u);
  rs.on_restart(1, 0);
  rs.settle();
  EXPECT_FALSE(rs.any_recovering());
  EXPECT_EQ(rs.replica_version(1), 70u);
  EXPECT_GT(rs.stats().anti_entropy_rounds, 0u);
  EXPECT_EQ(rs.stats().full_state_transfers, 0u);  // log-sourced, not peer
  // Anti-entropy backfills the WAL, so the durable log is a contiguous
  // prefix of history again...
  EXPECT_EQ(rs.store().wal(1).size(), 70u);
  // ...and the recovered model is bit-identical to the straight-through twin.
  EXPECT_EQ(model_bytes(rs), model_bytes(twin));
}

TEST_F(ReplicaSetFixture, CheckpointingStrictlyShortensRecovery) {
  // The E17 claim at the library level: same stream, same crash, same
  // seed — the only difference is the snapshot cadence.
  ReplicaSetConfig on = base_config({1, 2});
  on.checkpoint_interval_ms = 20.0;
  on.replay_ms_per_update = 1.0;  // make replay the dominant cost
  ReplicaSetConfig off = on;
  off.checkpoint_interval_ms = 0.0;
  ModelReplicaSet a(on, domain());
  ModelReplicaSet b(off, domain());
  const auto warm = stream(200);
  const auto gap = stream(40);
  feed(a, warm);
  feed(b, warm);
  a.on_crash(1, 0);
  b.on_crash(1, 0);
  feed(a, gap);
  feed(b, gap);
  a.on_restart(1, 0);
  b.on_restart(1, 0);
  a.settle();
  b.settle();
  ASSERT_EQ(a.recovery_events().size(), 1u);
  ASSERT_EQ(b.recovery_events().size(), 1u);
  EXPECT_GT(a.stats().checkpoints, 0u);
  EXPECT_EQ(b.stats().checkpoints, 0u);
  EXPECT_LT(a.stats().replayed_updates, b.stats().replayed_updates);
  EXPECT_LT(a.recovery_events().front().recovery_ms(),
            b.recovery_events().front().recovery_ms());
}

TEST_F(ReplicaSetFixture, RecoveryDeltaDrainsOnce) {
  ReplicaSetConfig cfg = base_config({1, 2});
  cfg.checkpoint_interval_ms = 0.0;
  ModelReplicaSet rs(cfg, domain());
  feed(rs, stream(40));
  rs.on_crash(1, 0);
  feed(rs, stream(10));
  rs.on_restart(1, 0);
  rs.settle();
  const auto d = rs.take_recovery_delta();
  EXPECT_EQ(d.recoveries, 1u);
  EXPECT_GT(d.replayed_updates, 0u);
  const auto drained = rs.take_recovery_delta();
  EXPECT_EQ(drained.recoveries, 0u);
  EXPECT_EQ(drained.replayed_updates, 0u);
}

TEST_F(ReplicaSetFixture, MetricsMirrorStatsFromAttachment) {
  ReplicaSetConfig cfg = base_config({1, 2});
  cfg.checkpoint_interval_ms = 15.0;
  ModelReplicaSet rs(cfg, domain());
  feed(rs, stream(30));  // pre-attachment activity must not be counted
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  rs.bind_obs(&tracer, &reg);
  const std::uint64_t checkpoints_before = rs.stats().checkpoints;
  rs.on_crash(1, 0);
  feed(rs, stream(40));
  rs.on_restart(1, 0);
  rs.settle();
  EXPECT_EQ(reg.counter("recovery.crashes").value(), 1u);
  EXPECT_EQ(reg.counter("recovery.recoveries").value(), 1u);
  EXPECT_EQ(reg.counter("recovery.checkpoints").value(),
            rs.stats().checkpoints - checkpoints_before);
  EXPECT_EQ(reg.counter("recovery.replayed_updates").value(),
            rs.recovery_events().front().replayed_updates);
  EXPECT_GT(tracer.spans().size(), 0u);  // checkpoint / wal_replay spans
}

// ---------------------------------------------------------------------------
// ServedAnalytics x ModelReplicaSet integration
// ---------------------------------------------------------------------------

/// Agent/workload recipe that reliably reaches confident data-less serving
/// (mirrors the Fig. 2 integration pipeline): hotspot queries so quanta
/// accumulate enough samples, plus the tuned agent knobs.
AgentConfig warm_agent_config() {
  AgentConfig cfg;
  cfg.min_samples_to_predict = 12;
  cfg.refit_interval = 8;
  cfg.max_relative_error = 0.3;
  cfg.create_distance = 0.06;
  return cfg;
}

WorkloadConfig hotspot_workload_config(const Table& table,
                                       std::uint64_t seed) {
  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.analytic = AnalyticType::kCount;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 3;
  wc.seed = seed;
  wc.hotspot_anchors =
      sample_anchor_points(table, wc.subspace_cols, 24, seed + 1);
  return wc;
}

struct ServedRecoveryFixture : public ::testing::Test {
  Table table = small_dataset(3000, 2, 281);
  Cluster cluster{4, Network::single_zone(4)};

  void SetUp() override {
    PartitionSpec spec;
    spec.replicas = 2;
    cluster.load_table("t", table, spec);
  }
};

TEST_F(ServedRecoveryFixture, ServesThroughModelHostCrashAndFlagsStale) {
  ExactExecutor exec(cluster, "t");
  const AgentConfig acfg = warm_agent_config();
  DatalessAgent agent(acfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig scfg;
  scfg.bootstrap_queries = 150;
  scfg.audit_fraction = 0.3;  // keep ground truth flowing post-bootstrap
  ServedAnalytics served(agent, exec, scfg);
  QueryWorkload workload(hotspot_workload_config(table, 162),
                         exec.domain({0, 1}));

  ReplicaSetConfig rcfg;
  rcfg.nodes = {1, 2};  // home on node 1, peer on node 2
  rcfg.agent = acfg;
  rcfg.checkpoint_interval_ms = 50.0;
  rcfg.cutover_updates = 1;       // force a timed anti-entropy round
  rcfg.transfer_base_ms = 200.0;  // long catch-up window => stale serves
  ModelReplicaSet rs(rcfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  served.set_model_provider(&rs);

  // Warm: ground truth flows through the provider into both replicas.
  for (int i = 0; i < 400; ++i) served.serve(workload.next());
  ASSERT_GT(rs.committed_version(), 150u);
  ASSERT_GT(served.stats().data_less_served, 0u);
  EXPECT_EQ(served.stats().stale_model_serves, 0u);

  // Home crash: serving fails over to the up-to-date peer — not stale.
  rs.on_crash(1, 0);
  for (int i = 0; i < 30; ++i) {
    const ServedAnswer a = served.serve(workload.next());
    EXPECT_FALSE(a.stale_model);
  }

  // Home restart: it replays its pre-crash state and serves again (home
  // affinity) while anti-entropy closes the gap — those model answers are
  // stale and must say so.
  rs.on_restart(1, 0);
  ASSERT_TRUE(rs.replica_recovering(1));
  std::uint64_t stale = 0;
  for (int i = 0; i < 60; ++i)
    stale += served.serve(workload.next()).stale_model;
  EXPECT_GT(stale, 0u);
  EXPECT_EQ(served.stats().stale_model_serves, stale);

  // Fully caught up: staleness ends; recovery counters drained into the
  // serving layer's stats.
  rs.settle();
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(served.serve(workload.next()).stale_model);
  const ServeStats& st = served.stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_GT(st.replayed_updates, 0u);
  EXPECT_TRUE(st.conserved());
}

// ---------------------------------------------------------------------------
// serve() is a one-element serve_batch(): differential check
// ---------------------------------------------------------------------------

/// What one serve produced, reduced to comparable bits.
struct ServeOutcome {
  std::uint64_t value_bits = 0;
  bool data_less = false, audited = false, stale_model = false;
  bool degraded = false, shed = false, fenced = false, failed = false;

  bool operator==(const ServeOutcome&) const = default;
};

struct ServeDiffRun {
  std::vector<ServeOutcome> outcomes;
  ServeStats stats;
  RecoveryStats rec;
};

/// Drives one seeded system through a stream that reaches every rung of
/// the outcome ladder: bootstrap, audited and shed serves, a node-down
/// outage with degraded serves and an untrained signature that fails, then
/// a replicated model provider with a home crash-restart. `batched` serves
/// each query as a size-1 serve_batch() instead of serve().
ServeDiffRun run_serve_diff(bool batched) {
  const Table table = small_dataset(3000, 2, 281);
  Cluster cluster(4, Network::single_zone(4));
  PartitionSpec spec;
  spec.replicas = 2;
  cluster.load_table("t", table, spec);
  ExactExecutor exec(cluster, "t");
  const AgentConfig acfg = warm_agent_config();
  DatalessAgent agent(acfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig scfg;
  scfg.bootstrap_queries = 150;
  scfg.audit_fraction = 0.3;
  scfg.queue_capacity_ms = 20.0;
  scfg.drain_ms_per_query = 1.0;
  ServedAnalytics served(agent, exec, scfg);
  QueryWorkload workload(hotspot_workload_config(table, 162),
                         exec.domain({0, 1}));
  // A signature no model ever trains on: unanswerable during the outage.
  AnalyticalQuery untrained = range_count_query(0.1, 0.9, 0.1, 0.9);
  untrained.subspace_cols = {1, 0};

  ServeDiffRun run;
  const auto serve = [&](const AnalyticalQuery& q) {
    ServedAnswer a;
    if (batched) {
      a = served.serve_batch({&q, 1}).front();
    } else {
      try {
        a = served.serve(q);
      } catch (const NoLiveReplicaError&) {
        a.failed = true;
      }
    }
    run.outcomes.push_back({std::bit_cast<std::uint64_t>(a.value),
                            a.data_less, a.audited, a.stale_model,
                            a.degraded, a.shed, a.fenced, a.failed});
    if (a.failed) run.outcomes.back().value_bits = 0;
  };

  // Own agent: bootstrap, then warm serving with audits and shedding.
  for (int i = 0; i < 300; ++i) serve(workload.next());
  // Outage: shard 1's holders (nodes 1 and 2) both down.
  cluster.set_node_down(1, true);
  cluster.set_node_down(2, true);
  for (int i = 0; i < 40; ++i) serve(i % 8 == 0 ? untrained : workload.next());
  cluster.set_node_down(1, false);
  cluster.set_node_down(2, false);

  // Replicated model: truth flows through the provider, checkpoints fall
  // due on its modelled clock, and the home replica crashes and restarts.
  ReplicaSetConfig rcfg;
  rcfg.nodes = {1, 2};
  rcfg.agent = acfg;
  rcfg.checkpoint_interval_ms = 20.0;
  rcfg.cutover_updates = 1;
  rcfg.transfer_base_ms = 200.0;
  ModelReplicaSet rs(rcfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  served.set_model_provider(&rs);
  for (int i = 0; i < 300; ++i) serve(workload.next());
  rs.on_crash(1, 0);
  for (int i = 0; i < 30; ++i) serve(workload.next());
  rs.on_restart(1, 0);
  for (int i = 0; i < 60; ++i) serve(workload.next());
  rs.settle();
  for (int i = 0; i < 10; ++i) serve(workload.next());
  served.set_model_provider(nullptr);

  run.stats = served.stats();
  run.rec = rs.stats();
  return run;
}

TEST(ServedAnalytics, ServeMatchesOneElementBatches) {
  const ServeDiffRun single = run_serve_diff(/*batched=*/false);
  const ServeDiffRun batch = run_serve_diff(/*batched=*/true);

  // The stream really reaches every rung of the ladder.
  const ServeStats& st = single.stats;
  EXPECT_TRUE(st.conserved());
  EXPECT_GT(st.exact_answered, 0u);
  EXPECT_GT(st.data_less_served, 0u);
  EXPECT_GT(st.shed, 0u);
  EXPECT_GT(st.degraded_served, 0u);
  EXPECT_GT(st.failed, 0u);
  EXPECT_GT(st.stale_model_serves, 0u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_GT(st.replayed_updates, 0u);
  EXPECT_GT(single.rec.checkpoints, 0u);
  EXPECT_TRUE(std::any_of(single.outcomes.begin(), single.outcomes.end(),
                          [](const ServeOutcome& o) { return o.audited; }));

  ASSERT_EQ(single.outcomes.size(), batch.outcomes.size());
  for (std::size_t i = 0; i < single.outcomes.size(); ++i)
    EXPECT_TRUE(single.outcomes[i] == batch.outcomes[i]) << "query " << i;
#define EXPECT_SAME_STAT(field) \
  EXPECT_EQ(single.stats.field, batch.stats.field) << #field;
  SEA_SERVE_STATS_FIELDS(EXPECT_SAME_STAT)
#undef EXPECT_SAME_STAT
  EXPECT_EQ(single.rec.crashes, batch.rec.crashes);
  EXPECT_EQ(single.rec.recoveries, batch.rec.recoveries);
  EXPECT_EQ(single.rec.replayed_updates, batch.rec.replayed_updates);
  EXPECT_EQ(single.rec.anti_entropy_rounds, batch.rec.anti_entropy_rounds);
  EXPECT_EQ(single.rec.anti_entropy_updates, batch.rec.anti_entropy_updates);
  EXPECT_EQ(single.rec.checkpoints, batch.rec.checkpoints);
  EXPECT_EQ(single.rec.checkpoint_bytes, batch.rec.checkpoint_bytes);
  EXPECT_EQ(single.rec.modelled_recovery_ms, batch.rec.modelled_recovery_ms);
}

// ---------------------------------------------------------------------------
// ChaosSchedule
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, SameSeedYieldsIdenticalValidatedPlan) {
  ChaosConfig cc;
  cc.seed = 77;
  const ChaosSchedule a = make_chaos_schedule(cc);
  const ChaosSchedule b = make_chaos_schedule(cc);
  EXPECT_EQ(a.crash_nodes, b.crash_nodes);
  EXPECT_EQ(a.flap_nodes, b.flap_nodes);
  EXPECT_EQ(a.grey_nodes, b.grey_nodes);
  ASSERT_EQ(a.plan.node_crashes.size(), cc.crashes);
  ASSERT_EQ(b.plan.node_crashes.size(), cc.crashes);
  for (std::size_t i = 0; i < cc.crashes; ++i) {
    EXPECT_EQ(a.plan.node_crashes[i].crash_at, b.plan.node_crashes[i].crash_at);
    EXPECT_EQ(a.plan.node_crashes[i].restart_at,
              b.plan.node_crashes[i].restart_at);
  }
  EXPECT_NO_THROW(a.plan.validate());
  EXPECT_DOUBLE_EQ(a.load_multiplier, cc.load_multiplier);

  // Fault roles are dealt to disjoint node sets, none of them protected.
  std::vector<NodeId> all;
  all.insert(all.end(), a.crash_nodes.begin(), a.crash_nodes.end());
  all.insert(all.end(), a.flap_nodes.begin(), a.flap_nodes.end());
  all.insert(all.end(), a.grey_nodes.begin(), a.grey_nodes.end());
  EXPECT_EQ(all.size(), cc.crashes + cc.flaps + cc.grey_nodes);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_NE(all[i], 0u);  // node 0 is protected by default
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_NE(all[i], all[j]);
  }
}

TEST(ChaosSchedule, RejectsInfeasibleConfigs) {
  ChaosConfig few;
  few.num_nodes = 3;  // 2 eligible, but crashes+flaps+grey needs 4
  EXPECT_THROW(make_chaos_schedule(few), std::invalid_argument);

  ChaosConfig inverted;
  inverted.min_crash_down_ticks = 100;
  inverted.max_crash_down_ticks = 50;
  EXPECT_THROW(make_chaos_schedule(inverted), std::invalid_argument);

  ChaosConfig short_horizon;
  short_horizon.horizon_ticks = 10;
  EXPECT_THROW(make_chaos_schedule(short_horizon), std::invalid_argument);
}

TEST(ChaosSchedule, PartitionWindowsAreDisjointForEverySeed) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosConfig cc;
    cc.seed = seed;
    cc.partitions = 3;
    cc.min_partition_ticks = 40;
    cc.max_partition_ticks = 120;
    const ChaosSchedule s = make_chaos_schedule(cc);
    ASSERT_EQ(s.plan.partitions.size(), 3u);
    EXPECT_NO_THROW(s.plan.validate());
    for (const NetworkPartition& p : s.plan.partitions) {
      EXPECT_FALSE(p.zone_cut);
      // Default side: a minority of the 8-node cluster, never node 0.
      EXPECT_EQ(p.nodes.size(), 3u);
      for (const NodeId n : p.nodes) EXPECT_NE(n, 0u);
      EXPECT_GE(p.start_at, 1u);
      EXPECT_LE(p.heal_at, cc.horizon_ticks);
      const std::uint64_t len = p.heal_at - p.start_at;
      EXPECT_GE(len, cc.min_partition_ticks);
      EXPECT_LE(len, cc.max_partition_ticks);
    }
  }
}

TEST(ChaosSchedule, ZoneCutPartitionsCarryTheZone) {
  ChaosConfig cc;
  cc.partitions = 2;
  cc.partition_zone_cut = true;
  cc.partition_zone = 1;
  const ChaosSchedule s = make_chaos_schedule(cc);
  ASSERT_EQ(s.plan.partitions.size(), 2u);
  for (const NetworkPartition& p : s.plan.partitions) {
    EXPECT_TRUE(p.zone_cut);
    EXPECT_EQ(p.zone, 1u);
    EXPECT_TRUE(p.nodes.empty());
  }
}

TEST(ChaosSchedule, RejectsInfeasiblePartitionConfigs) {
  ChaosConfig tight;
  tight.partitions = 4;
  tight.horizon_ticks = 400;  // 99-tick segments < max_partition_ticks
  tight.max_partition_ticks = 120;
  EXPECT_THROW(make_chaos_schedule(tight), std::invalid_argument);

  ChaosConfig inverted;
  inverted.partitions = 1;
  inverted.min_partition_ticks = 80;
  inverted.max_partition_ticks = 40;
  EXPECT_THROW(make_chaos_schedule(inverted), std::invalid_argument);

  ChaosConfig whole_cluster;
  whole_cluster.partitions = 1;
  whole_cluster.partition_side_nodes = 8;  // cuts nobody off from nobody
  EXPECT_THROW(make_chaos_schedule(whole_cluster), std::invalid_argument);
}

TEST(ChaosSchedule, DumpJsonReproducesTheDerivedPlan) {
  ChaosConfig cc;
  cc.seed = 77;
  cc.partitions = 2;
  const ChaosSchedule s = make_chaos_schedule(cc);
  const std::string j = s.dump_json();
  EXPECT_NE(j.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(j.find("\"crashes\":["), std::string::npos);
  EXPECT_NE(j.find("\"flaps\":["), std::string::npos);
  EXPECT_NE(j.find("\"grey\":["), std::string::npos);
  EXPECT_NE(j.find("\"partitions\":["), std::string::npos);
  std::ostringstream first_cut;
  first_cut << "\"start_at\":" << s.plan.partitions[0].start_at;
  EXPECT_NE(j.find(first_cut.str()), std::string::npos);
  // Same seed, same dump: the line is a complete repro token.
  EXPECT_EQ(j, make_chaos_schedule(cc).dump_json());
}

TEST(ChaosSchedule, SeedSweepsFromEnvironment) {
  ::unsetenv("SEA_CHAOS_SEED");
  EXPECT_EQ(chaos_seed_from_env(5), 5u);
  ::setenv("SEA_CHAOS_SEED", "123", 1);
  EXPECT_EQ(chaos_seed_from_env(5), 123u);
  ::setenv("SEA_CHAOS_SEED", "not-a-number", 1);
  EXPECT_EQ(chaos_seed_from_env(5), 5u);
  ::unsetenv("SEA_CHAOS_SEED");
}

// ---------------------------------------------------------------------------
// ChaosScenario — the E17 acceptance run: >= 2 crash-restarts, 10% drops,
// a grey node, and 2x offered load, served end-to-end with defenses on.
// ---------------------------------------------------------------------------

struct ChaosRun {
  ServeStats serve;
  RecoveryStats rec;
  std::vector<RecoveryEvent> events;
  std::uint64_t committed = 0;
  bool home_recovered = false;
  std::string trace_json;
  std::string metrics_json;
  std::string schedule_json;
};

ChaosRun run_chaos(double checkpoint_interval_ms, std::uint64_t seed) {
  ChaosConfig cc;
  cc.seed = seed;
  cc.num_nodes = 8;
  const ChaosSchedule sched = make_chaos_schedule(cc);

  Table table = small_dataset(3000, 2, 271);
  Cluster cluster(8, Network::single_zone(8));
  PartitionSpec spec;
  spec.replicas = 2;
  cluster.load_table("t", table, spec);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  cluster.set_observability(&tracer, &metrics);

  RetryPolicy rp;
  rp.max_attempts = 6;
  cluster.set_retry_policy(rp);
  // Short cooldown: under the chaos drop rates a grey node's shard-mate
  // occasionally trips too, and failed queries barely advance the modelled
  // clock — a long cooldown would leave both replicas dark for hundreds of
  // queries.
  BreakerConfig bc;
  bc.enabled = true;
  bc.failure_threshold = 6;
  bc.cooldown_ms = 8.0;
  cluster.set_breaker_config(bc);

  ExactExecutor exec(cluster, "t");
  const AgentConfig acfg = warm_agent_config();
  DatalessAgent agent(acfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig scfg;
  scfg.bootstrap_queries = 150;
  scfg.audit_fraction = 0.3;
  scfg.deadline_ms = 400.0;
  // Offered load: the chaos load multiplier shrinks the per-arrival queue
  // drain, so 2x load doubles how fast the modelled backlog builds.
  scfg.queue_capacity_ms = 60.0;
  scfg.drain_ms_per_query = 2.0 / sched.load_multiplier;
  ServedAnalytics served(agent, exec, scfg);
  QueryWorkload workload(hotspot_workload_config(table, 164),
                         exec.domain({0, 1}));

  // Model replicas: home on the first chaos crash node (so the crash
  // exercises failover + recovery), peer on protected node 0.
  ReplicaSetConfig rcfg;
  rcfg.nodes = {sched.crash_nodes.front(), 0};
  rcfg.agent = acfg;
  rcfg.checkpoint_interval_ms = checkpoint_interval_ms;
  rcfg.replay_ms_per_update = 0.5;  // full-log replay visibly expensive
  ModelReplicaSet rs(rcfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  rs.bind_obs(&tracer, &metrics);
  served.set_model_provider(&rs);

  // Phase 1: healthy warm-up. Bootstrap + confidence building run before
  // any fault fires (mirroring run_overload_scenario), so the replica set
  // accumulates committed history and modelled clock — the state the
  // chaos crashes then have to recover.
  for (int i = 0; i < 300; ++i) served.serve(workload.next());

  // Phase 2: the storm. Crashes, flaps, drops, the grey node, and the
  // load spike all land on an already-serving stack.
  FaultInjector inj(sched.plan);
  inj.add_crash_listener(&rs);
  inj.attach(cluster);
  for (int i = 0; i < 450; ++i) {
    try {
      served.serve(workload.next());
    } catch (const OutageError&) {
      // Accounted as ServeStats::failed; conservation is asserted below.
    }
    // Arrival clock: confident model answers execute no RPCs (RPCs are
    // what otherwise advance the injector), so tick the fault timeline
    // per arrival too — crash/restart windows must land mid-serving.
    inj.tick(cluster);
    inj.tick(cluster);
  }
  // Drive any fault windows the serve loop did not reach (restarts must
  // fire before the chaos run is judged), then let catch-ups finish.
  while (inj.now() < cc.horizon_ticks + 1) inj.tick(cluster);
  rs.settle();
  inj.remove_crash_listener(&rs);
  inj.detach(cluster);

  ChaosRun out;
  out.serve = served.stats();
  out.rec = rs.stats();
  out.events = rs.recovery_events();
  out.committed = rs.committed_version();
  const NodeId home = sched.crash_nodes.front();
  out.home_recovered = rs.replica_up(home) && !rs.replica_recovering(home) &&
                       rs.replica_version(home) == rs.committed_version();
  out.trace_json = tracer.dump_json();
  out.metrics_json = metrics.snapshot_json();
  out.schedule_json = sched.dump_json();
  return out;
}

TEST(ChaosScenario, EveryQueryAnsweredOrAccountedAndReplicasRecover) {
  const ChaosRun r = run_chaos(300.0, chaos_seed_from_env(0xC4A05));
  // Any failure below prints the full derived schedule: one log line is a
  // complete repro (re-run with SEA_CHAOS_SEED from the dump).
  SCOPED_TRACE("chaos schedule: " + r.schedule_json);
  // 100% answered-or-accounted: the outcome classes partition the queries
  // (300 warm + 450 storm).
  EXPECT_EQ(r.serve.queries, 750u);
  EXPECT_TRUE(r.serve.conserved());
  // The chaos schedule's crash hit the model host and it recovered fully.
  EXPECT_GE(r.rec.crashes, 1u);
  EXPECT_GE(r.rec.recoveries, 1u);
  EXPECT_TRUE(r.home_recovered);
  ASSERT_FALSE(r.events.empty());
  // Every completed recovery is inside the modelled bound its own charges
  // imply (the recovery clock cannot drift from the cost model).
  for (const RecoveryEvent& ev : r.events) {
    const double bound =
        0.01 * static_cast<double>(ev.checkpoint_bytes) / 1024.0 +
        0.5 * static_cast<double>(ev.replayed_updates + ev.delta_updates) +
        static_cast<double>(ev.rounds) * 1.0 +
        0.08 * static_cast<double>(ev.transferred_bytes) / 1024.0;
    EXPECT_LE(ev.recovery_ms(), bound + 1e-9)
        << "node " << ev.node << " recovery exceeded its modelled bound";
  }
  // The storm actually bit: drops happened, and the serving layer kept
  // answering through them.
  EXPECT_GT(r.serve.exact_failures + r.serve.degraded_served +
                r.serve.shed,
            0u);
}

TEST(ChaosScenario, CheckpointingStrictlyReducesStaleServes) {
  // Same seed, same chaos, same queries — only the snapshot cadence
  // differs. Disabled checkpointing means full-log replay from genesis, a
  // much longer stale-serve window for the recovering home.
  const std::uint64_t seed = 0xC4A05;
  const ChaosRun on = run_chaos(100.0, seed);
  const ChaosRun off = run_chaos(0.0, seed);
  SCOPED_TRACE("chaos schedule: " + on.schedule_json);
  EXPECT_GT(on.rec.checkpoints, 0u);
  EXPECT_EQ(off.rec.checkpoints, 0u);
  EXPECT_LT(on.serve.stale_model_serves, off.serve.stale_model_serves);
  EXPECT_TRUE(on.serve.conserved());
  EXPECT_TRUE(off.serve.conserved());
}

TEST(ChaosScenario, TraceAndMetricsByteIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = chaos_seed_from_env(0xC4A05);
  set_configured_threads(1);
  const ChaosRun one = run_chaos(300.0, seed);
  set_configured_threads(8);
  const ChaosRun eight = run_chaos(300.0, seed);
  set_configured_threads(0);  // back to the environment default
  SCOPED_TRACE("chaos schedule: " + one.schedule_json);
  EXPECT_EQ(one.trace_json, eight.trace_json);
  EXPECT_EQ(one.metrics_json, eight.metrics_json);
}

}  // namespace
}  // namespace sea::recovery
