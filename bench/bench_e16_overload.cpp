// E16: overload control — deadlines, circuit breakers, admission control
// (ISSUE PR3 tentpole; paper P4 availability + P1 bounded latency).
//
// A served workload runs through a storm (ambient message drops, one
// grey-failing node dropping most of its inbound traffic, one flap) while
// the offered load sweeps from comfortable to 4x the service rate. The
// service rate is expressed through the admission queue's drain per
// arrival, calibrated against the healthy modelled cost of one exact
// query. With the defenses on (per-node breakers + per-query deadline +
// load shedding) every query is answered — exact, data-less, shed, or
// explicitly degraded — and the grey node stops eating retry budgets; a
// defenses-off run at the same fault point shows the retry storm the
// breakers end. A same-seed double run checks determinism, and the whole
// sweep lands in BENCH_e16.json for cross-PR tracking.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "fault/breaker.h"
#include "fault/fault.h"
#include "fault/outage.h"
#include "fault/retry.h"
#include "sea/served.h"

namespace sea::bench {
namespace {

constexpr std::size_t kRows = 20000;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kWarmQueries = 400;
constexpr std::size_t kServeQueries = 800;
constexpr NodeId kGreyNode = 5;

struct PointResult {
  ServeStats stats;
  std::uint64_t net_dropped = 0;  ///< failed delivery attempts in the storm
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  double backlog_peak_ms = 0.0;  ///< highest admission backlog in the storm
  double base_cost_ms = 0.0;  ///< calibrated healthy exact cost
};

/// One sweep point. `drain_fraction` is the service rate relative to the
/// healthy exact cost (0.5 => offered load is 2x capacity); `defenses`
/// toggles breakers + deadline + admission control together. When a
/// tracer/registry is passed, the whole point (warm phase + storm) records
/// into them (--trace-out hook).
PointResult run_point(double drain_fraction, bool defenses,
                      std::uint64_t seed, obs::Tracer* tracer = nullptr,
                      obs::MetricsRegistry* metrics = nullptr) {
  Table table = make_clustered_dataset(kRows, 2, 3, 7);
  Cluster cluster(kNodes, Network::single_zone(kNodes));
  PartitionSpec spec;
  spec.replicas = 2;
  cluster.load_table("t", table, spec);
  RetryPolicy policy;
  policy.max_attempts = 6;
  cluster.set_retry_policy(policy);
  if (defenses) {
    BreakerConfig bc;
    bc.enabled = true;
    bc.failure_threshold = 3;
    bc.cooldown_ms = 50.0;
    cluster.set_breaker_config(bc);
  }
  if (tracer || metrics) cluster.set_observability(tracer, metrics);
  ExactExecutor exec(cluster, "t");

  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.analytic = AnalyticType::kAvg;
  wc.subspace_cols = {0, 1};
  wc.target_col = 2;
  wc.num_hotspots = 3;
  wc.seed = 8;
  wc.hotspot_anchors = sample_anchor_points(table, wc.subspace_cols, 24, 9);
  QueryWorkload workload(wc,
                         table_bounds(table, std::vector<std::size_t>{0, 1}));

  // Calibrate the healthy exact cost: the admission drain (and deadline)
  // are set relative to it, so "2x overload" means what it says whatever
  // the cluster/topology constants are.
  PointResult r;
  r.base_cost_ms = exec.execute(workload.next(), ExecParadigm::kCoordinatorIndexed)
                       .report.modelled_ms();
  cluster.reset_stats();

  AgentConfig acfg = default_agent_config();
  DatalessAgent agent(acfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig scfg;
  scfg.bootstrap_queries = 200;
  scfg.audit_fraction = 0.02;
  if (defenses) {
    scfg.deadline_ms = 25.0 * r.base_cost_ms;
    scfg.queue_capacity_ms = 8.0 * r.base_cost_ms;
    scfg.shed_high_water = 0.5;
    scfg.drain_ms_per_query = drain_fraction * r.base_cost_ms;
  }
  ServedAnalytics served(agent, exec, scfg);

  // Warm phase: healthy training so the agent can absorb shed/degraded
  // queries during the storm.
  for (std::size_t i = 0; i < kWarmQueries; ++i) served.serve(workload.next());

  FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = 0.10;
  plan.node_drops = {{kGreyNode, 0.85}};  // the retry-storm generator
  plan.flaps = {{2, 100, 400}};
  FaultInjector injector(plan);
  injector.attach(cluster);
  cluster.network().reset_stats();

  for (std::size_t i = 0; i < kServeQueries; ++i) {
    if (i > 0 && i % 100 == 0) workload.drift_hotspots(0.05);
    const AnalyticalQuery q = workload.next();
    try {
      served.serve(q);
    } catch (const OutageError&) {
      // Counted in stats.failed by the serving layer; the sweep reports it.
    }
    r.backlog_peak_ms = std::max(r.backlog_peak_ms, served.queue_backlog_ms());
  }
  r.net_dropped = cluster.network().stats().dropped_messages;
  injector.detach(cluster);
  r.stats = served.stats();
  r.breaker_opens = cluster.breakers().stats().opens;
  r.breaker_probes = cluster.breakers().stats().half_open_probes;
  return r;
}

void emit(BenchJsonWriter& json, const char* name, double drain_fraction,
          bool defenses, const PointResult& r) {
  json.begin(name);
  json.num("drain_fraction", drain_fraction);
  json.num("defenses", static_cast<std::uint64_t>(defenses ? 1 : 0));
  json.num("queries", r.stats.queries);
  json.num("exact_answered", r.stats.exact_answered);
  json.num("data_less_served", r.stats.data_less_served);
  json.num("shed", r.stats.shed);
  json.num("degraded_served", r.stats.degraded_served);
  json.num("failed", r.stats.failed);
  json.num("deadline_exceeded", r.stats.deadline_exceeded);
  json.num("net_dropped", r.net_dropped);
  json.num("breaker_opens", r.breaker_opens);
  json.num("breaker_probes", r.breaker_probes);
  json.num("backlog_peak_ms", r.backlog_peak_ms);
}

void run(const std::string& trace_path) {
  banner("E16: overload control — deadlines, breakers, load shedding",
         "under a grey-failing node + drops + a flap at up to 4x offered "
         "load, the defended serving loop answers every query (shed and "
         "degraded answers explicitly flagged, zero failed) with far fewer "
         "failed delivery attempts than the undefended retry storm");
  row("%-11s %-9s %-8s %-7s %-9s %-6s %-9s %-7s %-9s %-9s %-7s %-7s %-11s",
      "offered", "defenses", "queries", "exact", "dataless", "shed",
      "degraded", "failed", "deadline+", "dropped", "opens", "probes",
      "peak_backlog(model)");
  BenchJsonWriter json;
  const auto print_point = [&](double drain_fraction, bool defenses) {
    const PointResult r = run_point(drain_fraction, defenses, /*seed=*/31);
    const double offered =
        drain_fraction > 0.0 ? 1.0 / drain_fraction : 0.0;
    row("%-11.2f %-9s %-8llu %-7llu %-9llu %-6llu %-9llu %-7llu %-9llu "
        "%-9llu %-7llu %-7llu %-11.2f",
        offered, defenses ? "on" : "off",
        static_cast<unsigned long long>(r.stats.queries),
        static_cast<unsigned long long>(r.stats.exact_answered),
        static_cast<unsigned long long>(r.stats.data_less_served),
        static_cast<unsigned long long>(r.stats.shed),
        static_cast<unsigned long long>(r.stats.degraded_served),
        static_cast<unsigned long long>(r.stats.failed),
        static_cast<unsigned long long>(r.stats.deadline_exceeded),
        static_cast<unsigned long long>(r.net_dropped),
        static_cast<unsigned long long>(r.breaker_opens),
        static_cast<unsigned long long>(r.breaker_probes), r.backlog_peak_ms);
    emit(json, "e16_overload", drain_fraction, defenses, r);
    return r;
  };

  // Offered-load sweep with the full defense stack.
  for (const double drain : {2.0, 1.0, 0.5, 0.25}) print_point(drain, true);
  // The undefended baseline at 2x overload: the retry storm the breakers
  // end (no admission control => nothing sheds, the grey node eats full
  // attempt budgets on every query that reaches it).
  const PointResult off = print_point(0.5, false);
  const PointResult on = run_point(0.5, true, 31);
  row("grey-node retry storm: defenses cut failed delivery attempts "
      "%llu -> %llu (%.1fx); conservation %s/%s",
      static_cast<unsigned long long>(off.net_dropped),
      static_cast<unsigned long long>(on.net_dropped),
      on.net_dropped
          ? static_cast<double>(off.net_dropped) /
                static_cast<double>(on.net_dropped)
          : 0.0,
      on.stats.conserved() ? "ok" : "VIOLATED",
      off.stats.conserved() ? "ok" : "VIOLATED");

  // Determinism contract: identical seed => identical counters.
  const PointResult b = run_point(0.5, true, 31);
  const bool deterministic =
      on.stats.queries == b.stats.queries && on.stats.shed == b.stats.shed &&
      on.stats.data_less_served == b.stats.data_less_served &&
      on.stats.degraded_served == b.stats.degraded_served &&
      on.stats.deadline_exceeded == b.stats.deadline_exceeded &&
      on.net_dropped == b.net_dropped &&
      on.breaker_opens == b.breaker_opens &&
      on.breaker_probes == b.breaker_probes &&
      on.backlog_peak_ms == b.backlog_peak_ms;
  row("same-seed double run at 2x/defended: %s (shed=%llu dropped=%llu "
      "opens=%llu peak backlog=%.2fms)",
      deterministic ? "identical counters" : "MISMATCH",
      static_cast<unsigned long long>(on.stats.shed),
      static_cast<unsigned long long>(on.net_dropped),
      static_cast<unsigned long long>(on.breaker_opens), on.backlog_peak_ms);

  json.write_file("BENCH_e16.json");

  // --trace-out / SEA_TRACE: re-run the defended 2x-overload storm point
  // with observability attached and dump the deterministic trace+metrics
  // JSON (bit-identical across runs and SEA_THREADS settings).
  if (!trace_path.empty()) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    run_point(0.5, true, /*seed=*/31, &tracer, &metrics);
    write_trace_file(trace_path, tracer, metrics);
  }
}

}  // namespace
}  // namespace sea::bench

int main(int argc, char** argv) {
  sea::bench::run(sea::bench::trace_out_path(argc, argv));
  return 0;
}
