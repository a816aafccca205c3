// E1 — Data-less processing is insensitive to data size (paper §III.B).
//
// Sweep the base-data size and compare, per analytical query:
//  * MapReduce exact execution (the Fig. 1 status quo),
//  * coordinator+index exact execution (the P3 "big-data-less" path),
//  * the trained agent's data-less prediction (the P2 path).
// The paper's claim: the first grows with data size; the agent's serving
// cost does not, and touches zero base data.
#include "bench_util.h"

#include "common/stats.h"
#include "common/timer.h"
#include "sea/agent.h"
#include "sea/served.h"

namespace sea::bench {
namespace {

void run() {
  banner("E1: data-less scalability (rows sweep)",
         "agent serving cost is insensitive to data size; exact paths grow "
         "(paper §III.B: 'query processing times become de facto "
         "insensitive to data sizes')");
  row("%10s %17s %16s %15s %18s %16s %12s %12s %12s", "rows",
      "mr_ms(model+meas)", "mr_wall_ms(meas)", "mr_cpu_ms(meas)",
      "idx_ms(model+meas)",
      "agent_us(meas)", "hit_rate", "agent_rows", "mr_rows");
  // Machine-readable record per rows point: modelled makespan (hardware-
  // independent) side by side with measured wall time, so cross-PR diffs
  // can tell a cost-model change from a real perf change.
  BenchJsonWriter json;

  for (const std::size_t rows : {10000u, 30000u, 100000u, 300000u}) {
    Scenario s(rows, 16, AnalyticType::kCount);
    DatalessAgent agent(default_agent_config(),
                        [&](const std::vector<std::size_t>& cols) {
                          return s.exec.domain(cols);
                        });
    ServeConfig sc;
    sc.bootstrap_queries = 300;
    sc.audit_fraction = 0.0;
    ServedAnalytics served(agent, s.exec, sc);
    // Train.
    for (int i = 0; i < 400; ++i) served.serve(s.workload.next());

    // Measure the exact paths.
    s.cluster.reset_stats();
    RunningStats mr_ms, mr_wall, mr_cpu, idx_ms;
    for (int i = 0; i < 10; ++i) {
      const auto q = s.workload.next();
      const auto r = s.exec.execute(q, ExecParadigm::kMapReduce);
      mr_ms.add(r.report.makespan_ms());
      mr_wall.add(r.report.wall_ms);
      mr_cpu.add(r.report.map_compute_ms_total +
                 r.report.reduce_compute_ms_total);
    }
    const auto mr_rows = s.cluster.stats().rows_scanned / 10;
    for (int i = 0; i < 10; ++i) {
      const auto q = s.workload.next();
      idx_ms.add(s.exec.execute(q, ExecParadigm::kCoordinatorIndexed)
                     .report.makespan_ms());
    }

    // Measure agent serving (only data-less answers count).
    s.cluster.reset_stats();
    RunningStats agent_us;
    std::size_t hits = 0, asked = 0;
    for (int i = 0; i < 200; ++i) {
      const auto q = s.workload.next();
      Timer t;
      const auto p = agent.try_predict(q);
      const auto us = static_cast<double>(t.elapsed_us());
      ++asked;
      if (p) {
        ++hits;
        agent_us.add(us);
      }
    }
    row("%10zu %17.2f %16.2f %15.2f %18.2f %16.1f %12.2f %12llu %12llu",
        rows, mr_ms.mean(), mr_wall.mean(), mr_cpu.mean(), idx_ms.mean(),
        agent_us.mean(),
        static_cast<double>(hits) / static_cast<double>(asked),
        static_cast<unsigned long long>(s.cluster.stats().rows_scanned),
        static_cast<unsigned long long>(mr_rows));
    json.begin("e1_rows_sweep");
    json.num("rows", static_cast<std::uint64_t>(rows));
    json.num("mr_modelled_ms", mr_ms.mean());
    json.num("mr_wall_ms", mr_wall.mean());
    json.num("mr_cpu_ms", mr_cpu.mean());
    json.num("idx_modelled_ms", idx_ms.mean());
    json.num("agent_us", agent_us.mean());
    json.num("hit_rate",
             static_cast<double>(hits) / static_cast<double>(asked));
    json.num("agent_rows_scanned", s.cluster.stats().rows_scanned);
  }
  json.write_file("BENCH_e1.json");
  std::printf(
      "\nExpected shape: mr_ms grows ~linearly with rows; agent_us flat and\n"
      "orders of magnitude below; agent_rows (base rows touched while\n"
      "serving) is exactly 0.\n");
}

void availability() {
  banner("E1b: availability under node failure (replicated shards)",
         "with 2x replication, losing a node costs capacity, not "
         "correctness (availability is in the paper's P4 metric list)");
  const Table table = make_clustered_dataset(60000, 2, 3, 7);
  Cluster cluster(8, Network::single_zone(8));
  PartitionSpec spec;
  spec.replicas = 2;
  cluster.load_table("t", table, spec);
  ExactExecutor exec(cluster, "t");
  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.analytic = AnalyticType::kCount;
  wc.subspace_cols = {0, 1};
  wc.seed = 8;
  wc.hotspot_anchors = sample_anchor_points(table, wc.subspace_cols, 24, 9);
  QueryWorkload wl(wc, exec.domain({0, 1}));

  row("%-22s %10s %17s %18s", "phase", "wrong", "mr_ms(model+meas)",
      "idx_ms(model+meas)");
  const auto run_phase = [&](const char* phase) {
    std::size_t wrong = 0;
    RunningStats mr_ms, idx_ms;
    for (int i = 0; i < 30; ++i) {
      const auto q = wl.next();
      const double truth = truth_of(table, q);
      const auto mr = exec.execute(q, ExecParadigm::kMapReduce);
      const auto idx = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
      if (std::abs(mr.answer - truth) > 1e-6 ||
          std::abs(idx.answer - truth) > 1e-6)
        ++wrong;
      mr_ms.add(mr.report.makespan_ms());
      idx_ms.add(idx.report.makespan_ms());
    }
    row("%-22s %10zu %17.2f %18.2f", phase, wrong, mr_ms.mean(),
        idx_ms.mean());
  };
  run_phase("healthy(8/8)");
  cluster.set_node_down(3, true);
  run_phase("one_node_down(7/8)");
  cluster.set_node_down(6, true);
  run_phase("two_nodes_down(6/8)");
  cluster.set_node_down(3, false);
  cluster.set_node_down(6, false);
  run_phase("recovered(8/8)");
  std::printf(
      "\nExpected shape: zero wrong answers in every phase; replica\n"
      "holders absorb the failed shards' work (makespan rises slightly\n"
      "while degraded, returns to baseline after recovery).\n");
}

}  // namespace
}  // namespace sea::bench

int main() {
  sea::bench::run();
  sea::bench::availability();
  return 0;
}
