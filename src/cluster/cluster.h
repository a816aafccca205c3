// Simulated Big-Data-Analytics-Stack cluster.
//
// Nodes hold *real* in-memory partitions of real data; scans and probes
// really execute. What is modelled (per DESIGN.md) is everything we lack
// hardware for: network transfer (delegated to sea::Network) and the
// per-task overhead each BDAS layer adds (paper §II.A: "each layer adding
// extra overheads at all nodes engaged in task processing").
//
// Executors (src/exec) and operators (src/ops) must route every partition
// access through the accounting calls here so that "nodes touched",
// "rows scanned" and "bytes read" — the quantities the paper's efficiency
// arguments are about — are captured faithfully.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "fault/breaker.h"
#include "fault/outage.h"
#include "fault/retry.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sea {

class FaultInjector;  // src/fault — ticked by executors via the cluster

/// Work was issued against a node currently marked down (a transient flap
/// raced the task placement) or whose circuit breaker is open. Executors
/// catch this and re-route; it is a control-flow signal, not an outage.
class NodeDownError : public std::runtime_error {
 public:
  NodeDownError(NodeId node, const std::string& what)
      : std::runtime_error(what), node(node) {}
  NodeId node;
};

/// Legacy name for the typed outage raised when no holder of a shard is
/// reachable (see fault/outage.h).
using NoLiveReplicaError = ShardUnavailable;

/// Routing authority for epoch-fenced shard leases. Implemented by the
/// membership layer's LeaseDirectory (src/membership); the interface lives
/// here — dependency inversion, like Network's LinkFaultModel — so the
/// cluster can route reads to the current lease holder without linking the
/// membership library. When a router is attached, serving_node() consults
/// it first and falls back to static placement only when no valid lease
/// exists for the shard.
class ShardLeaseRouter {
 public:
  /// Sentinel: no valid lease for this shard right now.
  static constexpr NodeId kNoLeaseHolder = 0xffffffffu;

  virtual ~ShardLeaseRouter() = default;
  /// The node currently holding an unexpired lease on `shard` of `table`,
  /// or kNoLeaseHolder. Must be cheap and side-effect free: the cluster
  /// calls it on every placement decision.
  virtual NodeId lease_holder(const std::string& table,
                              std::size_t shard) const = 0;
};

/// Placement authority for shard replicas. Implemented by the placement
/// layer's RingPlacementAuthority (src/placement) — a consistent-hash ring
/// with per-shard migration overrides; the interface lives here (dependency
/// inversion, like ShardLeaseRouter) so the cluster can consult elastic
/// placement without linking the placement library. When an authority is
/// attached, serving_node() walks its replica order instead of the static
/// (shard + r) % N neighbors, and restart_node() rebuilds crashed nodes
/// where the ring says their shards live.
class ShardPlacementAuthority {
 public:
  /// Sentinel: no holder at this replica rank.
  static constexpr NodeId kNoHolder = 0xffffffffu;

  virtual ~ShardPlacementAuthority() = default;
  /// The r-th replica holder of `shard` of `table` (r = 0 is the primary
  /// candidate). For r < cluster size the ranks enumerate distinct nodes
  /// (a permutation prefix); kNoHolder marks exhausted ranks. Must be
  /// cheap, deterministic, and side-effect free: the cluster calls it on
  /// every placement decision.
  virtual NodeId shard_holder(const std::string& table, std::size_t shard,
                              std::size_t r) const = 0;
};

/// How a logical table is split across storage nodes.
enum class Partitioning {
  kRoundRobin,  ///< row i -> node i % N
  kHashColumn,  ///< node = hash(value of partition_column) % N
  kRangeColumn  ///< contiguous value ranges of partition_column per node
};

struct PartitionSpec {
  Partitioning scheme = Partitioning::kRoundRobin;
  std::size_t partition_column = 0;  ///< for hash/range schemes
  /// Copies of each shard, placed on consecutive nodes (1 = no replicas).
  /// Executors route around down nodes when replicas exist — the
  /// availability dimension of the paper's metric list (P4).
  std::size_t replicas = 1;
};

/// Per-task overhead model for the stack's layers (storage engine,
/// resource manager, execution engine). Applied once per (task, node).
struct BdasCostModel {
  int layers = 3;
  double layer_overhead_ms = 1.5;   ///< per layer, per task, per node
  double task_startup_ms = 4.0;     ///< scheduling/launch per task
  double coordinator_rpc_ms = 0.2;  ///< direct storage RPC (coordinator-cohort)

  double task_overhead_ms() const noexcept {
    return task_startup_ms + layers * layer_overhead_ms;
  }
};

/// Cumulative base-data access accounting.
struct AccessStats {
  std::uint64_t tasks = 0;          ///< tasks launched (per node)
  std::uint64_t node_touches = 0;   ///< node visits (incl. repeats)
  std::uint64_t rows_scanned = 0;   ///< tuples actually examined
  std::uint64_t bytes_read = 0;     ///< bytes of base data read
  std::uint64_t index_probes = 0;   ///< surgical index lookups
  double modelled_overhead_ms = 0.0;

  void merge(const AccessStats& o) noexcept {
    tasks += o.tasks;
    node_touches += o.node_touches;
    rows_scanned += o.rows_scanned;
    bytes_read += o.bytes_read;
    index_probes += o.index_probes;
    modelled_overhead_ms += o.modelled_overhead_ms;
  }
};

/// Combined access + traffic snapshot, so "oracle" executions (benchmark
/// ground-truth audits) can be fully excluded from the accounting.
/// reset_stats() clears both; restore_stats() must restore both too.
struct ClusterStatsSnapshot {
  AccessStats access;
  TrafficStats traffic;
};

/// Crash-recovery accounting: shard re-replication work done to bring
/// crashed nodes back into placement (all quantities modelled, so
/// recovery benchmarks are exactly repeatable).
struct NodeRecoveryStats {
  std::uint64_t crashes = 0;          ///< crash_node calls
  std::uint64_t restarts = 0;         ///< restart_node calls that did work
  std::uint64_t shards_restored = 0;  ///< shard copies re-replicated
  std::uint64_t restore_bytes = 0;    ///< bytes shipped to restarted nodes
  double modelled_restore_ms = 0.0;   ///< transfer time of those rebuilds
};

class Cluster {
 public:
  Cluster(std::size_t num_nodes, Network network, BdasCostModel cost = {});

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  Network& network() noexcept { return network_; }
  const Network& network() const noexcept { return network_; }
  const BdasCostModel& cost_model() const noexcept { return cost_; }

  /// Partitions `table` across the nodes under `name`.
  /// Range partitioning sorts boundaries by equi-count quantiles of the
  /// partition column so partitions are balanced.
  void load_table(const std::string& name, const Table& table,
                  PartitionSpec spec = {});

  /// Places the whole table on a single node (e.g. one constituent system
  /// of a polystore); other nodes hold empty partitions.
  void load_table_at(const std::string& name, const Table& table,
                     NodeId node);

  bool has_table(const std::string& name) const noexcept;
  void drop_table(const std::string& name);

  /// The slice of `name` stored at `node`. Throws if absent.
  const Table& partition(const std::string& name, NodeId node) const;
  Table& mutable_partition(const std::string& name, NodeId node);

  /// Sum of partition rows (logical table cardinality).
  std::size_t table_rows(const std::string& name) const;

  /// Data version of a table partition; bumped by mutable access, used by
  /// the SEA agent's model-staleness logic (paper RT1.4-ii).
  std::uint64_t partition_version(const std::string& name, NodeId node) const;

  /// Partitioning scheme the table was loaded with.
  const PartitionSpec& partition_spec(const std::string& name) const;

  // --- failure injection & failover ---

  /// Marks a node as failed/recovered. Down nodes must not be probed or
  /// assigned tasks; executors route shards to replica holders instead.
  void set_node_down(NodeId node, bool down);
  bool node_is_down(NodeId node) const;

  /// The node currently serving `shard` of `name`: the primary (node id ==
  /// shard) when up, else the first available replica holder (shard + r)
  /// % N. A holder is unavailable when down, when its circuit breaker is
  /// open and still cooling, OR when its local shard copies were wiped by a
  /// crash and not yet rebuilt (placement_lost), so placement routes around
  /// grey-failing and freshly-restarted nodes alike. Throws
  /// ShardUnavailable when no available copy exists.
  NodeId serving_node(const std::string& name, std::size_t shard) const;

  /// The hedged-read backup for `shard` of `name`: the first holder other
  /// than `serving`, in serving_node()'s replica order (the placement
  /// authority's when one is attached) and under its availability rule.
  /// Returns ShardPlacementAuthority::kNoHolder when no such holder exists.
  NodeId backup_node(const std::string& name, std::size_t shard,
                     NodeId serving) const;

  /// The r-th replica holder of `shard` of `name` — the one placement walk
  /// every replica-order consumer (serving, hedging, lease grants) shares:
  /// the attached placement authority's answer when one is set, else the
  /// static (shard + r) % N neighbor. Needs no loaded table. May return
  /// ShardPlacementAuthority::kNoHolder (callers skip that rank).
  NodeId holder_of(const std::string& name, std::size_t shard,
                   std::size_t r) const;

  // --- crash-restart (src/fault NodeCrash schedules) ---

  /// A crash is a down transition that also wipes the node's local state:
  /// until restart_node rebuilds its shard copies, placement routes around
  /// it even once it is back up.
  void crash_node(NodeId node);
  /// Brings a crashed node back up and re-replicates every shard copy it
  /// held from the first live holder; the copy bytes cross the (accounted)
  /// network and are traced as "shard_rebuild" spans. All-or-nothing: when
  /// any copy has no live donor the node stays placement-lost and the
  /// rebuild is retried by restore_lost_placements(). No-ops on a healthy
  /// node. Returns the bytes re-replicated by this call.
  std::uint64_t restart_node(NodeId node);
  /// True while the node's shard copies are wiped and not yet rebuilt.
  bool placement_lost(NodeId node) const;
  /// Retries the shard rebuild for any up-but-placement-lost node (its
  /// donors may have recovered since its restart). Called once per
  /// injector tick; cheap no-op when nothing is lost.
  std::uint64_t restore_lost_placements();
  const NodeRecoveryStats& recovery_stats() const noexcept {
    return recovery_stats_;
  }

  /// Comma-separated ids of currently-down nodes ("none" when all up);
  /// used in failure diagnostics.
  std::string down_nodes_string() const;

  // --- fault-injection & retry wiring (src/fault) ---

  /// The injector (if any) executors must tick at task/RPC boundaries so
  /// transient flap schedules progress. Set via FaultInjector::attach.
  void set_fault_injector(FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return fault_injector_; }

  /// Retry/backoff policy applied by CohortSession::rpc and the MapReduce
  /// engine's message delivery.
  void set_retry_policy(const RetryPolicy& policy) noexcept {
    retry_ = policy;
  }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  /// Per-node circuit breakers (src/fault/breaker.h). Disabled by default;
  /// enable via set_breaker_config. Consulted by CohortSession::rpc and
  /// MapReduce delivery/placement; serving_node skips open breakers.
  void set_breaker_config(const BreakerConfig& config) {
    breakers_.configure(num_nodes_, config);
  }
  CircuitBreakerSet& breakers() noexcept { return breakers_; }
  const CircuitBreakerSet& breakers() const noexcept { return breakers_; }

  /// Hedged replica reads (tail-latency defense) for CohortSession::rpc.
  void set_hedge_config(const HedgeConfig& config) noexcept {
    hedge_ = config;
  }
  const HedgeConfig& hedge_config() const noexcept { return hedge_; }

  /// Attaches (or detaches, with nullptr) a shard-lease routing authority;
  /// serving_node() then prefers the lease holder over static placement.
  /// The caller owns the router and must detach before destroying it.
  void set_lease_router(ShardLeaseRouter* router) noexcept {
    lease_router_ = router;
  }
  ShardLeaseRouter* lease_router() const noexcept { return lease_router_; }

  /// Attaches (or detaches, with nullptr) an elastic placement authority;
  /// serving_node()'s static fallback walk and restart_node()'s rebuild
  /// then consult the authority's replica order instead of the static
  /// (shard + r) % N neighbors. The caller owns the authority and must
  /// detach before destroying it.
  void set_placement_authority(ShardPlacementAuthority* authority) noexcept {
    placement_authority_ = authority;
  }
  ShardPlacementAuthority* placement_authority() const noexcept {
    return placement_authority_;
  }

  // --- observability (src/obs) ---

  /// Attaches a span tracer and/or metrics registry (either may be null).
  /// Executors consult these at the same serial charge points that feed
  /// ExecReport, so traces and metric values are bit-identical across runs
  /// and SEA_THREADS settings. Attach before issuing queries; the caller
  /// owns both objects and they must outlive the attached executions.
  void set_observability(obs::Tracer* tracer,
                         obs::MetricsRegistry* metrics) noexcept {
    tracer_ = tracer;
    metrics_ = metrics;
    breakers_.bind_metrics(metrics);
  }
  obs::Tracer* tracer() const noexcept { return tracer_; }
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }

  /// For range partitioning: nodes whose range of the partition column
  /// intersects [lo, hi]. For other schemes, all nodes holding the table.
  /// Callers must only pass bounds on the table's partition column.
  std::vector<NodeId> nodes_for_range(const std::string& name, double lo,
                                      double hi) const;

  // --- accounting (executors must call these) ---

  /// Records launching one task at `node` and charges BDAS layer overheads.
  void account_task(NodeId node);
  /// Records a full or partial scan at `node`.
  void account_scan(NodeId node, std::uint64_t rows, std::uint64_t bytes);
  /// Records `probes` surgical index lookups (and the rows they touched).
  void account_probe(NodeId node, std::uint64_t probes, std::uint64_t rows,
                     std::uint64_t bytes);

  const AccessStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept {
    stats_ = AccessStats{};
    network_.reset_stats();
  }
  /// Snapshot/restore of the full accounting state — access *and* network
  /// traffic — used to keep benchmark "oracle" executions out of the
  /// accounting. (Restoring only access stats would silently leak oracle
  /// network traffic into the numbers.)
  ClusterStatsSnapshot snapshot_stats() const {
    return ClusterStatsSnapshot{stats_, network_.stats()};
  }
  void restore_stats(const ClusterStatsSnapshot& s) noexcept {
    stats_ = s.access;
    network_.restore_stats(s.traffic);
  }

 private:
  struct StoredTable {
    std::vector<Table> partitions;          // one per node
    std::vector<std::uint64_t> versions;    // one per node
    PartitionSpec spec;
    std::vector<double> range_bounds;       // for kRangeColumn: N+1 edges
  };

  const StoredTable& stored(const std::string& name) const;
  StoredTable& stored(const std::string& name);
  /// Re-replicates every shard copy `node` holds from live holders (tables
  /// in sorted-name order for deterministic traffic/trace order). Returns
  /// the bytes shipped, or 0 — leaving the node placement-lost — when any
  /// copy lacks a live donor.
  std::uint64_t rebuild_placement(NodeId node);
  /// Placement may route to `node`: up, shard copies intact, breaker not
  /// open and cooling.
  bool available(NodeId node) const noexcept {
    return !node_down_[node] && !placement_lost_[node] &&
           !breakers_.open_now(node);
  }

  std::size_t num_nodes_;
  Network network_;
  BdasCostModel cost_;
  std::unordered_map<std::string, StoredTable> tables_;
  std::vector<bool> node_down_;
  std::vector<bool> placement_lost_;
  NodeRecoveryStats recovery_stats_;
  AccessStats stats_;
  FaultInjector* fault_injector_ = nullptr;
  ShardLeaseRouter* lease_router_ = nullptr;
  ShardPlacementAuthority* placement_authority_ = nullptr;
  RetryPolicy retry_;
  CircuitBreakerSet breakers_;
  HedgeConfig hedge_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace sea
