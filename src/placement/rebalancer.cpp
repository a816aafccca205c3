#include "placement/rebalancer.h"

#include <algorithm>
#include <stdexcept>

namespace sea::placement {

namespace {
constexpr NodeId kNone = ShardLeaseRouter::kNoLeaseHolder;
}  // namespace

Rebalancer::Rebalancer(MigrationCoordinator& coordinator,
                       LeaseDirectory& directory, ShardSpace& space,
                       Cluster& cluster, RebalancerConfig config)
    : coordinator_(coordinator),
      directory_(directory),
      space_(space),
      cluster_(cluster),
      config_(config),
      window_cost_(space.max_shards(), 0.0),
      ewma_(space.max_shards(), 0.0),
      next_plan_at_(config.period_ticks) {
  if (config_.period_ticks == 0 || config_.window_ticks == 0)
    throw std::invalid_argument("Rebalancer: zero period/window");
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0)
    throw std::invalid_argument("Rebalancer: ewma_alpha must be in (0,1]");
  if (config_.min_active_shards == 0)
    throw std::invalid_argument("Rebalancer: min_active_shards must be > 0");
}

void Rebalancer::observe_query(std::size_t shard, double cost_ms) {
  if (shard >= window_cost_.size())
    throw std::out_of_range("Rebalancer::observe_query: bad shard");
  window_cost_[shard] += cost_ms;
}

NodeId Rebalancer::holder_of(std::size_t shard, std::uint64_t tick) const {
  if (!directory_.shard_active(shard)) return kNone;
  const ShardLease& l = directory_.lease(shard);
  if (l.valid_at(tick)) return l.holder;
  // Unheld right now (e.g. mid-regrant): fall back to where placement says
  // it lives, so load attribution doesn't flicker to "nowhere".
  const ShardPlacementAuthority* authority = cluster_.placement_authority();
  if (authority == nullptr) return kNone;
  return authority->shard_holder(directory_.table(), shard, 0);
}

std::size_t Rebalancer::window_budget(std::uint64_t tick) {
  if (tick >= window_start_ + config_.window_ticks) {
    // Window rolled; align the new window to the period grid.
    window_start_ = tick - (tick % config_.window_ticks);
    window_used_ = 0;
  }
  return config_.migrations_per_window > window_used_
             ? config_.migrations_per_window - window_used_
             : 0;
}

void Rebalancer::on_tick(std::uint64_t tick) {
  while (tick >= next_plan_at_) {
    plan(next_plan_at_);
    next_plan_at_ += config_.period_ticks;
  }
}

void Rebalancer::plan(std::uint64_t tick) {
  ++stats_.plans;
  // 1. Fold the window's observations into the smoothed per-shard load.
  for (std::size_t s = 0; s < ewma_.size(); ++s) {
    if (space_.active(s))
      ewma_[s] = config_.ewma_alpha * window_cost_[s] +
                 (1.0 - config_.ewma_alpha) * ewma_[s];
    else
      ewma_[s] = 0.0;
    window_cost_[s] = 0.0;
  }

  // 2. Attribute shard load to current holders.
  std::vector<double> node_load(cluster_.num_nodes(), 0.0);
  std::vector<NodeId> holder(space_.max_shards(), kNone);
  double total = 0.0;
  std::size_t placed_nodes = 0;
  for (std::size_t s = 0; s < space_.max_shards(); ++s) {
    if (!space_.active(s)) continue;
    holder[s] = holder_of(s, tick);
    total += ewma_[s];
    if (holder[s] != kNone && holder[s] < node_load.size())
      node_load[holder[s]] += ewma_[s];
  }
  for (std::size_t n = 0; n < node_load.size(); ++n)
    if (directory_.node_lease_eligible(static_cast<NodeId>(n))) ++placed_nodes;
  if (placed_nodes == 0) return;
  const double mean_load = total / static_cast<double>(placed_nodes);

  // 3. Pressure signals from the serving layer's registry.
  bool pressure = false;
  if (metrics_) {
    if (metrics_->gauge(config_.backlog_gauge).value() >
        config_.backlog_high_ms)
      pressure = true;
    const std::uint64_t opens =
        metrics_->counter(config_.breaker_counter).value();
    const std::uint64_t shed = metrics_->counter(config_.shed_counter).value();
    if (opens > last_breaker_opens_ || shed > last_shed_) pressure = true;
    last_breaker_opens_ = opens;
    last_shed_ = shed;
  }

  // Hottest eligible node and its load.
  NodeId hot_node = kNone;
  double hot_load = 0.0;
  for (std::size_t n = 0; n < node_load.size(); ++n) {
    if (!directory_.node_lease_eligible(static_cast<NodeId>(n))) continue;
    if (hot_node == kNone || node_load[n] > hot_load) {
      hot_node = static_cast<NodeId>(n);
      hot_load = node_load[n];
    }
  }
  const bool imbalance =
      hot_node != kNone && total > 0.0 &&
      hot_load > config_.imbalance_ratio * std::max(mean_load, 1e-9);

  std::size_t budget = window_budget(tick);
  const auto spend = [&](std::optional<std::size_t> id, std::uint64_t& ok) {
    if (id) {
      ++ok;
      ++window_used_;
      --budget;
    } else {
      ++stats_.requests_refused;
    }
  };

  if (pressure || imbalance) {
    ++stats_.pressure_plans;
    if (budget == 0) {
      ++stats_.window_throttled;
      return;
    }
    if (hot_node == kNone || hot_load <= 0.0) return;
    // Hottest shard on the hottest node (ties: lowest id).
    std::size_t hot_shard = space_.max_shards();
    for (std::size_t s = 0; s < space_.max_shards(); ++s)
      if (holder[s] == hot_node && space_.active(s) &&
          (hot_shard == space_.max_shards() || ewma_[s] > ewma_[hot_shard]))
        hot_shard = s;
    if (hot_shard == space_.max_shards()) return;
    const bool dominant = ewma_[hot_shard] > config_.split_load_share * hot_load;
    if (dominant && space_.quanta_count(hot_shard) >= 2 &&
        space_.active_shards() < space_.max_shards()) {
      // The shard *is* the hotspot: halve it in place so the next plan can
      // move one half off-node.
      spend(coordinator_.request_split(hot_shard, tick),
            stats_.splits_requested);
      return;
    }
    // Coldest eligible node that isn't the hotspot (ties: lowest id).
    NodeId cold_node = kNone;
    for (std::size_t n = 0; n < node_load.size(); ++n) {
      const auto cand = static_cast<NodeId>(n);
      if (cand == hot_node || !directory_.node_lease_eligible(cand)) continue;
      if (cold_node == kNone || node_load[n] < node_load[cold_node])
        cold_node = cand;
    }
    if (cold_node == kNone) return;
    spend(coordinator_.request_move(hot_shard, cold_node, tick),
          stats_.moves_requested);
    return;
  }

  // Calm period: fold fragmented cold shards back together. Candidates in
  // ascending load order; each merge folds the coldest into the
  // next-coldest surviving candidate.
  if (total <= 0.0) return;
  std::vector<std::size_t> cold;
  for (std::size_t s = 0; s < space_.max_shards(); ++s)
    if (space_.active(s) && ewma_[s] < config_.merge_load_share * total)
      cold.push_back(s);
  std::sort(cold.begin(), cold.end(), [&](std::size_t a, std::size_t b) {
    if (ewma_[a] != ewma_[b]) return ewma_[a] < ewma_[b];
    return a < b;
  });
  std::size_t active = space_.active_shards();
  while (cold.size() >= 2 && active > config_.min_active_shards &&
         budget > 0) {
    const std::size_t from = cold[0];
    const std::size_t into = cold[1];
    cold.erase(cold.begin());
    const std::uint64_t before = stats_.merges_requested;
    spend(coordinator_.request_merge(from, into, tick),
          stats_.merges_requested);
    if (stats_.merges_requested > before) --active;
  }
  if (cold.size() >= 2 && active > config_.min_active_shards && budget == 0)
    ++stats_.window_throttled;
}

}  // namespace sea::placement
