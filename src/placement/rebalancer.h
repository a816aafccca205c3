// Closed-loop shard rebalancer: observe -> plan -> act, deterministically.
//
// The rebalancer is the control loop that makes placement *elastic*: it
// watches per-shard serving cost (EWMA over fixed planning periods) plus
// the pressure signals the serving layer already exports through the
// MetricsRegistry (queue backlog, breaker opens, shed queries), and turns
// them into split / move / merge requests against the migration
// coordinator — throttled by a per-window budget so a load storm cannot
// trigger a migration storm.
//
// Planning is pure arithmetic over observed state: no RNG, no wall clock,
// ties broken by lowest id. Same observations in, same plan out — the E20
// byte-identity sweep depends on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "membership/lease.h"
#include "obs/metrics.h"
#include "placement/migration.h"
#include "placement/shard_space.h"

namespace sea::placement {

struct RebalancerConfig {
  /// Plan every `period_ticks`; at most `migrations_per_window` requests
  /// per `window_ticks` (the storm throttle).
  std::uint64_t period_ticks = 16;
  std::uint64_t window_ticks = 96;
  std::size_t migrations_per_window = 3;
  /// EWMA smoothing for per-shard serving cost per period.
  double ewma_alpha = 0.3;
  /// Pressure: plan relief when the backlog gauge exceeds this, or when
  /// breaker-open / shed counters moved since the last plan.
  double backlog_high_ms = 25.0;
  /// Imbalance: plan relief when the hottest node carries more than this
  /// multiple of the mean node load.
  double imbalance_ratio = 1.6;
  /// Split the hottest shard (rather than move it) when it alone carries
  /// more than this share of its node's load — moving a shard that *is*
  /// the hotspot just relocates the problem.
  double split_load_share = 0.55;
  /// Merge candidates: shards carrying under this share of total load,
  /// only in calm periods, never below `min_active_shards`.
  double merge_load_share = 0.02;
  std::size_t min_active_shards = 2;
  /// Registry signals consumed (names bind the control loop to obs).
  std::string backlog_gauge = "placement.backlog_ms";
  std::string breaker_counter = "breaker.opens";
  std::string shed_counter = "placement.shed";
};

struct RebalancerStats {
  std::uint64_t plans = 0;             ///< planning periods evaluated
  std::uint64_t pressure_plans = 0;    ///< periods that saw pressure/imbalance
  std::uint64_t moves_requested = 0;
  std::uint64_t splits_requested = 0;
  std::uint64_t merges_requested = 0;
  std::uint64_t requests_refused = 0;  ///< coordinator said no (budget, dup…)
  std::uint64_t window_throttled = 0;  ///< plans cut short by the window budget
};

class Rebalancer {
 public:
  Rebalancer(MigrationCoordinator& coordinator, LeaseDirectory& directory,
             ShardSpace& space, Cluster& cluster,
             RebalancerConfig config = {});

  /// Signal source for pressure counters/gauges (usually the same registry
  /// the serving loop writes). Null = load-EWMA-only planning.
  void bind_obs(obs::MetricsRegistry* metrics) noexcept { metrics_ = metrics; }

  /// Feed one served query's modelled cost for `shard` into the current
  /// observation window.
  void observe_query(std::size_t shard, double cost_ms);

  /// Drive the control loop to `tick`; plans fire on period boundaries.
  /// Call after MigrationCoordinator::advance_to each tick.
  void on_tick(std::uint64_t tick);

  const RebalancerStats& stats() const noexcept { return stats_; }
  const RebalancerConfig& config() const noexcept { return config_; }

 private:
  void plan(std::uint64_t tick);
  /// Remaining request budget in the window containing `tick`.
  std::size_t window_budget(std::uint64_t tick);
  NodeId holder_of(std::size_t shard, std::uint64_t tick) const;

  MigrationCoordinator& coordinator_;
  LeaseDirectory& directory_;
  ShardSpace& space_;
  Cluster& cluster_;
  RebalancerConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;

  std::vector<double> window_cost_;  ///< ms accumulated since last plan
  std::vector<double> ewma_;         ///< smoothed per-shard ms/period
  std::uint64_t next_plan_at_;
  std::uint64_t window_start_ = 0;
  std::size_t window_used_ = 0;
  std::uint64_t last_breaker_opens_ = 0;
  std::uint64_t last_shed_ = 0;
  RebalancerStats stats_;
};

}  // namespace sea::placement
