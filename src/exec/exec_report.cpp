#include "exec/exec_report.h"

#include <algorithm>

namespace sea {

// Completeness guard: merge() below must combine every field. ExecReport
// is 24 trivially-copyable 8-byte fields; adding one changes the size and
// fails this assert until merge() is updated to cover the new field.
static_assert(sizeof(ExecReport) == 24 * 8,
              "ExecReport gained/lost a field: update merge() and this guard");

void ExecReport::merge(const ExecReport& o) noexcept {
  wall_ms += o.wall_ms;
  map_compute_ms_total += o.map_compute_ms_total;
  map_compute_ms_max = std::max(map_compute_ms_max, o.map_compute_ms_max);
  reduce_compute_ms_total += o.reduce_compute_ms_total;
  reduce_compute_ms_max =
      std::max(reduce_compute_ms_max, o.reduce_compute_ms_max);
  coordinator_compute_ms += o.coordinator_compute_ms;
  modelled_network_ms += o.modelled_network_ms;
  modelled_network_ms_critical += o.modelled_network_ms_critical;
  modelled_overhead_ms += o.modelled_overhead_ms;
  shuffle_bytes += o.shuffle_bytes;
  result_bytes += o.result_bytes;
  map_tasks += o.map_tasks;
  reduce_tasks += o.reduce_tasks;
  rpc_round_trips += o.rpc_round_trips;
  retries += o.retries;
  dropped_messages += o.dropped_messages;
  tasks_rerouted += o.tasks_rerouted;
  modelled_backoff_ms += o.modelled_backoff_ms;
  retry_budget_exhausted += o.retry_budget_exhausted;
  hedged_rpcs += o.hedged_rpcs;
  hedges_won += o.hedges_won;
  breaker_fast_fails += o.breaker_fast_fails;
  recoveries += o.recoveries;
  shard_restore_bytes += o.shard_restore_bytes;
}

double ExecReport::money_cost_usd(const CostRates& rates) const noexcept {
  // Node busy time: all real compute plus the stack overheads charged to
  // nodes (tasks, RPC handling) and backoff waits — a retrying coordinator
  // still occupies (and bills for) its node.
  const double node_ms = map_compute_ms_total + reduce_compute_ms_total +
                         coordinator_compute_ms + modelled_overhead_ms +
                         modelled_backoff_ms;
  const double node_hours = node_ms / 3.6e6;
  const double gb =
      static_cast<double>(shuffle_bytes + result_bytes) / 1.073741824e9;
  return node_hours * rates.usd_per_node_hour +
         gb * rates.usd_per_gb_transfer;
}

}  // namespace sea
