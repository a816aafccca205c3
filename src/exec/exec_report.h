// Unified execution report shared by both distributed processing paradigms
// the paper contrasts (RT3.2): MapReduce-style and coordinator-cohort.
//
// Measured compute is real wall-clock; network and BDAS-layer costs are
// modelled (see DESIGN.md "cost accounting, not wall-clock fiction") and
// reported separately so benchmarks can print both raw hardware-independent
// counters (bytes, node touches) and an end-to-end modelled makespan.
#pragma once

#include <cstdint>

namespace sea {

/// Cloud pricing knobs for money-cost accounting (defaults are in the
/// ballpark of on-demand public-cloud list prices).
struct CostRates {
  double usd_per_node_hour = 0.40;   ///< charged on task/RPC busy time
  double usd_per_gb_transfer = 0.08; ///< inter-node transfer
};

struct ExecReport {
  // Real, measured compute.
  /// End-to-end wall clock of the execution call on the driving host,
  /// including any parallel regions (SEA_THREADS). Deliberately
  /// separate from the modelled makespan: wall_ms is where parallel
  /// speedups show up; the cost model stays hardware-independent.
  double wall_ms = 0.0;
  double map_compute_ms_total = 0.0;
  double map_compute_ms_max = 0.0;
  double reduce_compute_ms_total = 0.0;
  double reduce_compute_ms_max = 0.0;
  double coordinator_compute_ms = 0.0;

  // Modelled costs.
  double modelled_network_ms = 0.0;       ///< sum over messages
  double modelled_network_ms_critical = 0.0;  ///< max inbound per receiver
  double modelled_overhead_ms = 0.0;      ///< BDAS layer/task overheads

  // Hardware-independent counters.
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t rpc_round_trips = 0;

  // Fault-recovery accounting (src/fault): deterministic for a fixed
  // FaultPlan seed, so resilience benchmarks are exactly repeatable.
  std::uint64_t retries = 0;           ///< message/RPC re-attempts
  std::uint64_t dropped_messages = 0;  ///< messages lost in flight
  std::uint64_t tasks_rerouted = 0;    ///< tasks moved off a flapped node
  double modelled_backoff_ms = 0.0;    ///< retry backoff waits (modelled)
  /// Failures refused a retry because the session/run retry token budget
  /// (RetryPolicy::retry_budget, the retry-storm guard) was already spent.
  std::uint64_t retry_budget_exhausted = 0;

  // Overload-control accounting (deadlines, breakers, hedges).
  std::uint64_t hedged_rpcs = 0;        ///< backup requests issued
  std::uint64_t hedges_won = 0;         ///< backups that answered first
  std::uint64_t breaker_fast_fails = 0; ///< RPCs short-circuited by a breaker

  // Crash-recovery accounting (src/fault node_crashes + shard rebuild).
  std::uint64_t recoveries = 0;  ///< node restarts observed mid-execution
  std::uint64_t shard_restore_bytes = 0;  ///< bytes re-replicated on restart

  /// End-to-end modelled makespan: parallel map phase, then the critical
  /// shuffle path, then parallel reduce, plus per-phase BDAS overheads and
  /// any retry backoff the coordinator sat through.
  double makespan_ms() const noexcept {
    return modelled_overhead_ms + map_compute_ms_max +
           modelled_network_ms_critical + reduce_compute_ms_max +
           coordinator_compute_ms + modelled_backoff_ms;
  }

  /// Total resource consumption (what a cloud bill would charge for):
  /// all compute everywhere plus all transfer time and backoff waits.
  double total_work_ms() const noexcept {
    return map_compute_ms_total + reduce_compute_ms_total +
           coordinator_compute_ms + modelled_network_ms +
           modelled_overhead_ms + modelled_backoff_ms;
  }

  /// Total *modelled* time of the execution (network + overheads +
  /// backoff) — every term deterministic for a fixed seed, none measured.
  /// This is the quantity deadline budgets and the admission queue charge,
  /// so overload control is bit-identical across SEA_THREADS settings.
  double modelled_ms() const noexcept {
    return modelled_network_ms + modelled_overhead_ms + modelled_backoff_ms;
  }

  /// Estimated money cost under the given cloud rates — the paper's
  /// explicit third metric (P4: "scalability, efficiency, accuracy,
  /// availability, money-costs"; [30] reports money-cost improvements).
  double money_cost_usd(const CostRates& rates) const noexcept;

  void merge(const ExecReport& o) noexcept;
};

}  // namespace sea
