#include "placement/sim.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace sea::placement {

namespace {
constexpr NodeId kNone = ShardLeaseRouter::kNoLeaseHolder;
}  // namespace

ElasticServingSim::ElasticServingSim(Cluster& cluster, FaultInjector& injector,
                                     GossipMembership& membership,
                                     LeaseDirectory& directory,
                                     MigrationCoordinator& coordinator,
                                     ShardSpace& space, Rebalancer* rebalancer,
                                     const recovery::ChaosSchedule* schedule,
                                     ElasticSimConfig config)
    : cluster_(cluster),
      injector_(injector),
      membership_(membership),
      directory_(directory),
      coordinator_(coordinator),
      space_(space),
      rebalancer_(rebalancer),
      schedule_(schedule),
      config_(config),
      max_shards_(space.max_shards()),
      queries_per_tick_(config.base_queries_per_tick == 0
                            ? cluster.num_nodes()
                            : config.base_queries_per_tick),
      workload_rng_(config.workload_seed),
      quantum_dist_(space.num_quanta(), config.zipf_s) {
  if (directory_.num_shards() < max_shards_)
    throw std::invalid_argument(
        "ElasticServingSim: lease directory covers fewer shards than the "
        "space's max_shards");
  const std::size_t n = cluster_.num_nodes();
  routing_.assign(n * max_shards_, kNone);
  cached_epoch_.assign(n * max_shards_, 0);
  cached_expires_.assign(n * max_shards_, 0);
  announced_epoch_.assign(max_shards_, 0);
  node_map_.assign(n * space_.num_quanta(), 0);
  node_map_version_.assign(n, 0);
  backlog_ms_.assign(n, 0.0);
  // Everyone starts with the initial map (deployment-time knowledge).
  for (NodeId node = 0; node < n; ++node) sync_map(node);
  coordinator_.add_listener(this);
}

ElasticServingSim::~ElasticServingSim() { coordinator_.remove_listener(this); }

void ElasticServingSim::bind_obs(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

bool ElasticServingSim::message(NodeId from, NodeId to, std::size_t bytes) {
  const SendOutcome sent = cluster_.network().try_send(from, to, bytes);
  return sent.delivered && !cluster_.node_is_down(to);
}

void ElasticServingSim::sync_map(NodeId node) {
  const std::vector<std::uint32_t>& map = space_.map();
  std::copy(map.begin(), map.end(),
            node_map_.begin() +
                static_cast<std::ptrdiff_t>(node * space_.num_quanta()));
  node_map_version_[node] = space_.version();
}

void ElasticServingSim::announce_leases() {
  const std::size_t n = cluster_.num_nodes();
  for (std::size_t shard = 0; shard < max_shards_; ++shard) {
    if (!directory_.shard_active(shard)) continue;
    const ShardLease& l = directory_.lease(shard);
    if (l.epoch == 0) continue;
    const std::size_t holder_slot = slot(l.holder, shard);
    if (cached_epoch_[holder_slot] == l.epoch)
      cached_expires_[holder_slot] = l.expires_at;  // renewal extends TTL
    if (l.epoch <= announced_epoch_[shard]) continue;
    announced_epoch_[shard] = l.epoch;
    cached_epoch_[holder_slot] = l.epoch;
    cached_expires_[holder_slot] = l.expires_at;
    routing_[holder_slot] = l.holder;
    for (NodeId node = 0; node < n; ++node) {
      if (node == l.holder) continue;
      if (message(l.holder, node, config_.answer_bytes))
        routing_[node * max_shards_ + shard] = l.holder;
    }
  }
}

void ElasticServingSim::broadcast_maps() {
  const NodeId coord = coordinator_.config().coordinator_node;
  // The coordinator's host applies map changes as it makes them; everyone
  // else hears about a new version only if the broadcast gets through.
  sync_map(coord);
  for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
    if (node == coord || node_map_version_[node] >= space_.version()) continue;
    if (message(coord, node, config_.map_broadcast_bytes)) sync_map(node);
  }
}

void ElasticServingSim::drain_backlogs() {
  double max_backlog = 0.0;
  for (NodeId node = 0; node < cluster_.num_nodes(); ++node) {
    if (cluster_.node_is_down(node)) {
      backlog_ms_[node] = 0.0;  // a crash wipes the volatile queue
      continue;
    }
    backlog_ms_[node] =
        std::max(0.0, backlog_ms_[node] - config_.drain_ms_per_tick);
    max_backlog = std::max(max_backlog, backlog_ms_[node]);
  }
  if (metrics_) {
    const std::string& name = rebalancer_ ? rebalancer_->config().backlog_gauge
                                          : RebalancerConfig{}.backlog_gauge;
    metrics_->gauge(name).set(max_backlog);
  }
}

void ElasticServingSim::step() {
  injector_.tick(cluster_);
  const std::uint64_t now = injector_.now();
  membership_.advance_to(now);
  directory_.advance_to(now);
  coordinator_.advance_to(now);
  if (rebalancer_) rebalancer_->on_tick(now);
  announce_leases();
  broadcast_maps();
  drain_backlogs();
  const double mult = schedule_ ? schedule_->load_at(now) : 1.0;
  const auto nq = static_cast<std::size_t>(
      static_cast<double>(queries_per_tick_) * mult);
  for (std::size_t i = 0; i < nq; ++i) {
    const auto entry = static_cast<NodeId>(query_seq_ % cluster_.num_nodes());
    ++query_seq_;
    const auto quantum =
        static_cast<std::uint32_t>(quantum_dist_(workload_rng_));
    serve_one(entry, quantum, now);
  }
}

void ElasticServingSim::run(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) step();
}

void ElasticServingSim::serve_one(NodeId entry, std::uint32_t quantum,
                                  std::uint64_t tick) {
  ++stats_.queries;
  if (cluster_.node_is_down(entry)) {
    ++stats_.entry_down;
    return;
  }
  // Route on the entry's own knowledge: its quantum map, then its lease
  // routing cache — either may be stale mid-migration.
  const std::uint32_t shard =
      node_map_[entry * space_.num_quanta() + quantum];
  const NodeId holder = routing_[slot(entry, shard)];
  if (holder == kNone ||
      (holder != entry && !message(entry, holder, config_.query_bytes)) ||
      cluster_.node_is_down(holder)) {
    ++stats_.degraded_serves;
    return;
  }
  // The holder re-derives the shard from its *own* map: if a split/merge
  // moved the quantum since the entry routed, the holder refuses rather
  // than answer for a shard it no longer owns the quantum under.
  if (node_map_[holder * space_.num_quanta() + quantum] != shard) {
    ++stats_.remap_refusals;
    return;
  }
  // Self-fencing against the shared clock, exactly as in E18 — and the
  // hook the migration fence leg uses: a fenced source's cache is zeroed
  // before the epoch moves, so it lands here, never in an owner serve.
  const std::size_t hslot = slot(holder, shard);
  if (cached_epoch_[hslot] == 0 || tick >= cached_expires_[hslot]) {
    ++stats_.fenced_serves;
    return;
  }
  if (backlog_ms_[holder] > config_.shed_backlog_ms) {
    ++stats_.shed;
    if (metrics_) {
      const std::string& name = rebalancer_
                                    ? rebalancer_->config().shed_counter
                                    : RebalancerConfig{}.shed_counter;
      metrics_->counter(name).inc();
    }
    return;
  }
  serve_log_.push_back(
      ElasticServe{quantum, shard, holder, cached_epoch_[hslot], tick});
  // Omniscient audit (the sim can peek at the directory; the nodes never
  // do): serving under a superseded epoch would be a fencing hole.
  if (directory_.lease(shard).epoch > cached_epoch_[hslot])
    ++stats_.stale_epoch_serves;
  backlog_ms_[holder] += config_.query_cost_ms;
  if (rebalancer_) rebalancer_->observe_query(shard, config_.query_cost_ms);
  if (holder == entry || message(holder, entry, config_.answer_bytes))
    ++stats_.owner_serves;
  else
    ++stats_.degraded_serves;
}

void ElasticServingSim::on_source_fenced(const Migration& m,
                                         std::uint64_t /*tick*/) {
  // The source consents by dropping its cached lease for the migrating
  // (move) or retiring (merge) shard — from here on it fences itself, and
  // only then may the coordinator move the epoch.
  cached_epoch_[slot(m.src, m.shard)] = 0;
}

void ElasticServingSim::on_committed(const Migration& m, std::uint64_t tick) {
  (void)tick;
  // Participants applied the commit in-protocol: they learn the new map
  // synchronously. Everyone else waits for the (droppable) broadcast.
  sync_map(m.src);
  sync_map(m.dst);
}

void ElasticServingSim::on_aborted(const Migration& m, std::uint64_t tick) {
  if (!m.source_fenced) return;
  // Abort control leg: the destination releases the source. If the leg is
  // lost (or the source is gone) the source stays fenced — availability
  // cost only — until a natural grant round heals it after TTL expiry.
  if (m.src != m.dst &&
      !message(m.dst, m.src, coordinator_.config().control_bytes))
    return;
  if (!directory_.shard_active(m.shard)) return;
  const ShardLease& l = directory_.lease(m.shard);
  if (l.valid_at(tick) && l.holder == m.src) {
    cached_epoch_[slot(m.src, m.shard)] = l.epoch;
    cached_expires_[slot(m.src, m.shard)] = l.expires_at;
  }
}

std::uint64_t ElasticServingSim::dual_serves() const {
  std::map<std::pair<std::uint64_t, std::uint64_t>, NodeId> first;
  std::uint64_t violations = 0;
  for (const ElasticServe& s : serve_log_) {
    const std::pair<std::uint64_t, std::uint64_t> key{s.shard, s.epoch};
    const auto [it, inserted] = first.emplace(key, s.node);
    if (!inserted && it->second != s.node) ++violations;
  }
  return violations;
}

}  // namespace sea::placement
