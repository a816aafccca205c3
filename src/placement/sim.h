// Elastic serving simulation under chaos: the E20 harness.
//
// Extends the E18 multi-site model (membership/sim.h) with everything this
// layer adds: queries hash to *quanta*, quanta map to shards through the
// ShardSpace, shards live where the ring + migration overrides say — and
// all of that is *knowledge* that travels per node in droppable messages.
// While the rebalancer splits, merges, and moves shards mid-storm, an
// entry node may route on a stale quantum map or a stale lease route; the
// receiving node re-checks against its own map (remap refusal) and its own
// cached lease TTL (self-fencing), so staleness costs availability, never
// correctness.
//
// The sim is the MigrationCoordinator's listener — the component that
// makes the fencing contract real: on_source_fenced clears the source's
// cached lease before the epoch moves (the no-dual-serve ordering),
// on_committed applies the new quantum map at the participants,
// on_aborted restores the fenced source (via a droppable control leg; an
// undelivered restore heals at natural TTL re-grant).
//
// Every query lands in exactly one outcome bucket (conserved()); every
// authoritative serve is logged with its (quantum, shard, epoch, node,
// tick) and checked omniscient-style against the directory's current
// epoch at serve time (stale_epoch_serves) and post-hoc for dual
// authority (dual_serves()). Per-node serving backlog drains at a fixed
// modelled rate; overload sheds — the pressure signal the rebalancer
// closes its loop on. Everything runs on the serial modelled clock:
// byte-identical at any SEA_THREADS.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "membership/lease.h"
#include "membership/swim.h"
#include "obs/metrics.h"
#include "placement/migration.h"
#include "placement/rebalancer.h"
#include "placement/shard_space.h"
#include "recovery/chaos.h"

namespace sea::placement {

struct ElasticSimConfig {
  /// Queries injected per tick before the chaos load multiplier
  /// (0 = one per node). Entries round-robin; quanta are Zipf-drawn.
  std::size_t base_queries_per_tick = 0;
  double zipf_s = 1.2;
  std::uint64_t workload_seed = 0xE20;
  std::size_t query_bytes = 128;
  std::size_t answer_bytes = 64;
  std::size_t map_broadcast_bytes = 64;
  /// Modelled serving cost per query and per-node drain capacity per
  /// tick; the gap between them under a hotspot is what builds backlog.
  double query_cost_ms = 1.0;
  double drain_ms_per_tick = 4.0;
  /// A holder sheds (refuses) queries while its backlog exceeds this.
  double shed_backlog_ms = 48.0;
};

/// One authoritative serve, with the full routing provenance.
struct ElasticServe {
  std::uint32_t quantum = 0;
  std::uint32_t shard = 0;
  NodeId node = 0;
  std::uint64_t epoch = 0;
  std::uint64_t tick = 0;
};

struct ElasticSimStats {
  std::uint64_t queries = 0;
  std::uint64_t owner_serves = 0;    ///< authoritative answers
  std::uint64_t fenced_serves = 0;   ///< holder's cached lease gone/expired
  std::uint64_t degraded_serves = 0; ///< no route / dropped leg / host down
  std::uint64_t remap_refusals = 0;  ///< holder's map disagrees (mid-split/merge)
  std::uint64_t shed = 0;            ///< holder over backlog threshold
  std::uint64_t entry_down = 0;
  /// Omniscient check at serve time: owner serves under an epoch the
  /// directory had already superseded. The fencing design makes this 0.
  std::uint64_t stale_epoch_serves = 0;

  /// Answered-or-accounted: every query lands in exactly one bucket.
  bool conserved() const noexcept {
    return queries == owner_serves + fenced_serves + degraded_serves +
                          remap_refusals + shed + entry_down;
  }
};

/// Drives rounds of (fault tick, membership, leases, migrations,
/// rebalancing, knowledge propagation, workload). The caller owns every
/// collaborator; pass `rebalancer == nullptr` for the no-rebalance
/// baseline and `schedule == nullptr` for flat load.
class ElasticServingSim final : public MigrationListener {
 public:
  ElasticServingSim(Cluster& cluster, FaultInjector& injector,
                    GossipMembership& membership, LeaseDirectory& directory,
                    MigrationCoordinator& coordinator, ShardSpace& space,
                    Rebalancer* rebalancer,
                    const recovery::ChaosSchedule* schedule,
                    ElasticSimConfig config = {});
  ~ElasticServingSim() override;

  ElasticServingSim(const ElasticServingSim&) = delete;
  ElasticServingSim& operator=(const ElasticServingSim&) = delete;

  /// Backlog gauge + shed counter land here (the rebalancer's pressure
  /// signals — bind the same registry to close the loop). May be null.
  void bind_obs(obs::MetricsRegistry* metrics);

  void step();
  void run(std::size_t rounds);

  const ElasticSimStats& stats() const noexcept { return stats_; }
  const std::vector<ElasticServe>& serve_log() const noexcept {
    return serve_log_;
  }
  /// Post-hoc single-authority audit: ordered serve pairs where two
  /// distinct nodes owner-served the same (shard, epoch). Must be 0.
  std::uint64_t dual_serves() const;

  // MigrationListener — the fencing contract (see header comment).
  void on_source_fenced(const Migration& m, std::uint64_t tick) override;
  void on_committed(const Migration& m, std::uint64_t tick) override;
  void on_aborted(const Migration& m, std::uint64_t tick) override;

 private:
  void serve_one(NodeId entry, std::uint32_t quantum, std::uint64_t tick);
  bool message(NodeId from, NodeId to, std::size_t bytes);
  void announce_leases();
  void broadcast_maps();
  void drain_backlogs();
  void sync_map(NodeId node);
  std::size_t slot(NodeId node, std::size_t shard) const {
    return node * max_shards_ + shard;
  }

  Cluster& cluster_;
  FaultInjector& injector_;
  GossipMembership& membership_;
  LeaseDirectory& directory_;
  MigrationCoordinator& coordinator_;
  ShardSpace& space_;
  Rebalancer* rebalancer_;
  const recovery::ChaosSchedule* schedule_;
  ElasticSimConfig config_;
  std::size_t max_shards_;
  std::size_t queries_per_tick_;
  obs::MetricsRegistry* metrics_ = nullptr;

  Rng workload_rng_;
  ZipfDistribution quantum_dist_;
  std::uint64_t query_seq_ = 0;

  ElasticSimStats stats_;
  std::vector<ElasticServe> serve_log_;

  // Per-node knowledge, updated only by delivered messages (plus the
  // synchronous participant updates the migration protocol itself makes).
  std::vector<NodeId> routing_;               ///< [node][shard] believed holder
  std::vector<std::uint64_t> cached_epoch_;   ///< [node][shard] own lease
  std::vector<std::uint64_t> cached_expires_;
  std::vector<std::uint64_t> announced_epoch_;  ///< per shard
  std::vector<std::uint32_t> node_map_;       ///< [node][quantum] -> shard
  std::vector<std::uint64_t> node_map_version_;
  std::vector<double> backlog_ms_;            ///< per node
};

}  // namespace sea::placement
