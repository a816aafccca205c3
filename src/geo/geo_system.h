// Global-scale geo-distributed SEA (paper RT5, Fig. 3).
//
// Topology: `num_cores` core storage nodes share one datacenter zone and
// hold the base data; `num_edges` edge nodes sit in their own zones, so
// every edge <-> core message crosses the (accounted) WAN.
//
// Three operating modes, compared in experiment E7:
//  * kForwardAll   — no edge intelligence: every analytical query crosses
//    the WAN to the core, executes exactly, and the answer crosses back.
//  * kEdgeLearning — each edge runs its own DatalessAgent trained on the
//    answers to its forwarded queries; once confident it filters queries
//    from the WAN entirely (RT5.1/RT5.3: models at the edge, base data
//    accessed only when expected local error is high).
//  * kCoreTrainedSync — distributed model building (RT5.2): the core
//    trains one agent on the union of all edges' training queries (their
//    subspaces overlap) and periodically ships the model state to every
//    edge; edges then answer even subspaces they never queried themselves.
//    Model bytes, not data bytes, cross the WAN.
//
// Partition tolerance (RT5.3): `set_wan_partitioned(true)` severs every
// edge from the core (and from its peers). Edges with warm local models
// keep answering — flagged `degraded` since the confidence gate is
// bypassed and no audits can run — and a heal triggers an immediate
// model resync / registry refresh so edges catch up on what they missed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "fault/breaker.h"
#include "sea/agent.h"
#include "sea/exact.h"

namespace sea {

enum class EdgeMode {
  kForwardAll,
  kEdgeLearning,
  kCoreTrainedSync,
  /// kEdgeLearning plus edge collaboration (RT5.1/RT5.4): on a local miss
  /// the edge consults a registry of peer model state (periodically
  /// synced quanta centroids) and routes the query to the best-covering
  /// peer edge before falling back to the core.
  kEdgePeerRouting,
};

const char* to_string(EdgeMode m) noexcept;

struct GeoConfig {
  std::size_t num_cores = 4;
  std::size_t num_edges = 8;
  LinkSpec lan{0.1, 10000.0};   ///< intra-datacenter
  LinkSpec wan{80.0, 100.0};    ///< edge <-> core
  BdasCostModel bdas;
  AgentConfig agent;
  EdgeMode mode = EdgeMode::kEdgeLearning;
  ExecParadigm core_paradigm = ExecParadigm::kCoordinatorIndexed;
  /// kCoreTrainedSync: ship the core agent to all edges every N forwarded
  /// queries.
  std::size_t sync_interval = 64;
  /// Edge agents bootstrap: always forward the first N queries they see.
  std::size_t edge_bootstrap = 30;
  /// kEdgePeerRouting: refresh the peer model-state registry every N
  /// queries (centroid lists cross the WAN).
  std::size_t registry_interval = 200;
  /// kEdgePeerRouting: only route to a peer whose nearest quantum centre
  /// is within this normalized distance of the query.
  double peer_route_distance = 0.08;
  /// Per-edge circuit breaker on the edge->core WAN path: after
  /// `failure_threshold` consecutive core-side outages the edge stops
  /// forwarding (serving degraded locally instead) until the modelled
  /// cooldown elapses — a flaky core stops costing every edge query a
  /// doomed WAN round trip. Disabled by default.
  BreakerConfig wan_breaker;
};

struct GeoAnswer {
  double value = 0.0;
  /// False only when the WAN is partitioned AND the edge has no usable
  /// model — the one case a geo query goes unanswered.
  bool answered = true;
  bool served_at_edge = false;
  bool served_by_peer = false;
  /// Served from the edge model during a WAN partition, bypassing the
  /// confidence gate (value is best-effort; no audit possible).
  bool degraded = false;
  /// kCoreTrainedSync only: the answering edge's model version predates
  /// the core's current version (the core learned updates this edge has
  /// not yet been shipped — e.g. during a partition or after a crash).
  bool stale_model = false;
  double expected_abs_error = 0.0;
  /// Modelled WAN time this query incurred (0 when served at the edge).
  double wan_ms = 0.0;
};

struct GeoStats {
  std::uint64_t queries = 0;
  std::uint64_t served_at_edge = 0;
  std::uint64_t served_by_peer = 0;
  std::uint64_t peer_attempts = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t syncs = 0;
  std::uint64_t sync_bytes = 0;
  std::uint64_t registry_bytes = 0;
  std::uint64_t degraded_at_edge = 0;  ///< answered locally during partition
  std::uint64_t unanswered = 0;        ///< partition + no local model
  std::uint64_t heal_resyncs = 0;      ///< syncs/refreshes forced by a heal
  std::uint64_t wan_breaker_fast_fails = 0;  ///< forwards skipped: breaker open
  std::uint64_t stale_model_serves = 0;  ///< edge answers from an old version
  std::uint64_t edge_crash_resyncs = 0;  ///< resyncs forced by an edge crash
};

class GeoSystem {
 public:
  /// Loads `data` partitioned across the core nodes.
  GeoSystem(GeoConfig config, const Table& data);

  /// A query arriving at edge `edge` (0-based).
  GeoAnswer submit(std::size_t edge, const AnalyticalQuery& query);

  /// Sever (true) or heal (false) all WAN links: edges cannot reach the
  /// core or each other. Healing triggers an immediate model resync
  /// (kCoreTrainedSync) / registry refresh (kEdgePeerRouting) so edges
  /// recover the state they missed.
  void set_wan_partitioned(bool partitioned);
  bool wan_partitioned() const noexcept { return wan_partitioned_; }

  /// Crash of edge node `edge`: its in-memory model (and learned state)
  /// is wiped. The edge keeps receiving queries — they forward, or go
  /// unanswered during a partition — until restart_edge() resyncs it.
  void crash_edge(std::size_t edge);
  /// Restart after crash_edge: kCoreTrainedSync ships the current core
  /// model to just this edge (kEdgePeerRouting refreshes the registry),
  /// counted in stats().edge_crash_resyncs. During a WAN partition the
  /// resync cannot run; the heal's full resync covers it instead.
  void restart_edge(std::size_t edge);

  /// Model-version bookkeeping (kCoreTrainedSync): the core version
  /// increments per absorbed ground truth; an edge's version is set to
  /// the core's at every model ship. An edge serving with an older
  /// version is *stale* (GeoAnswer::stale_model).
  std::uint64_t core_model_version() const noexcept {
    return core_model_version_;
  }
  std::uint64_t edge_model_version(std::size_t edge) const {
    return edge_model_version_.at(edge);
  }

  /// Ground truth with NO cost accounting (for benchmark accuracy audits).
  double oracle(const AnalyticalQuery& query);

  /// Attaches a tracer/metrics registry (either may be null) to the whole
  /// geo system: the internal core cluster (so exact executions trace as
  /// children of the "geo_submit" root span) plus the geo.* metric series.
  /// Caller owns both; they must outlive the system's use of them.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Attaches (or detaches, with nullptr) a shard-lease routing authority
  /// to the internal core cluster (Cluster::set_lease_router): exact
  /// executions then route to current lease holders instead of static
  /// placement. Caller owns the router; it must outlive use.
  void set_lease_router(ShardLeaseRouter* router) noexcept {
    cluster_->set_lease_router(router);
  }

  const GeoStats& stats() const noexcept { return stats_; }
  /// WAN/LAN traffic counters (from the shared network).
  const TrafficStats& traffic() const noexcept {
    return cluster_->network().stats();
  }
  const Cluster& cluster() const noexcept { return *cluster_; }

 private:
  NodeId edge_node(std::size_t edge) const {
    return static_cast<NodeId>(config_.num_cores + edge);
  }
  std::size_t query_wire_bytes(const AnalyticalQuery& q) const {
    return (2 * q.subspace_cols.size() + 6) * sizeof(double);
  }
  void maybe_sync();
  void sync_now();
  /// Ships `blob` (the serialized core agent) to one edge: WAN send +
  /// span + sync_bytes accounting, reconstructs the edge agent, and bumps
  /// its model version to the core's. `tag` must be a string literal.
  void ship_model_to_edge(std::size_t edge, const std::string& blob,
                          const char* tag);
  /// Flags (and counts) a stale edge-model answer; no-op outside
  /// kCoreTrainedSync, where versions are not tracked.
  void note_edge_model_answer(std::size_t edge, GeoAnswer& out);
  void maybe_refresh_registry();
  void refresh_registry_now();
  /// Best peer (!= edge) for the query under the current registry;
  /// SIZE_MAX when none is close enough.
  std::size_t route_peer(std::size_t edge, const AnalyticalQuery& query);

  obs::Tracer* tracer() const noexcept { return cluster_->tracer(); }
  /// submit() minus the root span / outcome tag / metrics sync, which the
  /// public wrapper applies uniformly across all exit paths.
  GeoAnswer submit_impl(std::size_t edge, const AnalyticalQuery& query);
  /// Mirrors the GeoStats deltas since the last call into geo.* counters.
  void sync_metrics();

  GeoConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<ExactExecutor> exec_;
  /// Edge-resident agents (kEdgeLearning: trained locally;
  /// kCoreTrainedSync: replaced wholesale by shipped core snapshots).
  std::vector<DatalessAgent> edge_agents_;
  std::optional<DatalessAgent> core_agent_;  ///< kCoreTrainedSync only
  /// kCoreTrainedSync version clocks (see core_model_version()).
  std::uint64_t core_model_version_ = 0;
  std::vector<std::uint64_t> edge_model_version_;
  std::vector<std::size_t> edge_seen_;       ///< queries per edge
  std::size_t forwarded_since_sync_ = 0;
  /// kEdgePeerRouting: registry snapshot — per edge, per signature, the
  /// quanta centroids it had at the last refresh (RT5.2 model state).
  std::vector<std::unordered_map<std::string, std::vector<Point>>>
      registry_;
  std::vector<std::string> known_signatures_;
  std::size_t since_registry_ = 0;
  bool wan_partitioned_ = false;
  /// One breaker per *edge*, guarding that edge's WAN path to the core
  /// (cooldown clock advanced by the modelled WAN time this edge spends).
  CircuitBreakerSet wan_breakers_;
  GeoStats stats_;
  /// geo.* metric handles (all null until set_observability attaches a
  /// registry); mirrored_ is stats_ as of the last sync_metrics().
  struct GeoMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* served_at_edge = nullptr;
    obs::Counter* served_by_peer = nullptr;
    obs::Counter* peer_attempts = nullptr;
    obs::Counter* forwarded = nullptr;
    obs::Counter* syncs = nullptr;
    obs::Counter* sync_bytes = nullptr;
    obs::Counter* registry_bytes = nullptr;
    obs::Counter* degraded_at_edge = nullptr;
    obs::Counter* unanswered = nullptr;
    obs::Counter* heal_resyncs = nullptr;
    obs::Counter* wan_breaker_fast_fails = nullptr;
    obs::Counter* stale_model_serves = nullptr;
    obs::Counter* edge_crash_resyncs = nullptr;
    obs::Histogram* wan_ms = nullptr;
  };
  GeoMetrics m_;
  GeoStats mirrored_;
};

}  // namespace sea
