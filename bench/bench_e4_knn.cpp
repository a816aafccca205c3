// E4 — Distributed kNN: indexed coordinator-cohort vs scan-based
// MapReduce (paper [33], §IV P3: "three orders of magnitude").
//
// Sweeps k and dimensionality; both paradigms answer the same kNN-avg
// analytical queries exactly. Reported: modelled makespan, base rows
// touched, and the paper-relevant ratio.
#include "bench_util.h"

#include "common/stats.h"

namespace sea::bench {
namespace {

AnalyticalQuery knn_query(Scenario& s, std::size_t k) {
  AnalyticalQuery q = s.workload.next();
  q.selection = SelectionType::kNearestNeighbors;
  q.knn_point = q.range.center();
  q.knn_k = k;
  q.analytic = AnalyticType::kAvg;
  q.target_col = 2;
  return q;
}

void sweep_k() {
  banner("E4a: distributed kNN, k sweep (100k rows, 8 nodes, d=2)",
         "per-node k-d trees + coordinator merge touch ~k rows; MapReduce "
         "scans everything ([33]: three orders of magnitude)");
  row("%6s %17s %18s %12s %12s %12s", "k", "mr_ms(model+meas)",
      "idx_ms(model+meas)", "speedup", "mr_rows", "idx_rows");
  Scenario s(100000, 8, AnalyticType::kAvg);
  for (const std::size_t k : {1u, 10u, 100u, 1000u}) {
    RunningStats mr_ms, idx_ms;
    std::uint64_t mr_rows = 0, idx_rows = 0;
    for (int i = 0; i < 5; ++i) {
      const auto q = knn_query(s, k);
      s.cluster.reset_stats();
      mr_ms.add(
          s.exec.execute(q, ExecParadigm::kMapReduce).report.makespan_ms());
      mr_rows += s.cluster.stats().rows_scanned;
      s.cluster.reset_stats();
      idx_ms.add(s.exec.execute(q, ExecParadigm::kCoordinatorIndexed)
                     .report.makespan_ms());
      idx_rows += s.cluster.stats().rows_scanned;
    }
    row("%6zu %17.2f %18.2f %12.1f %12llu %12llu", k, mr_ms.mean(),
        idx_ms.mean(), mr_ms.mean() / std::max(1e-9, idx_ms.mean()),
        static_cast<unsigned long long>(mr_rows / 5),
        static_cast<unsigned long long>(idx_rows / 5));
  }
}

void sweep_dims() {
  banner("E4b: distributed kNN, dimensionality sweep (k=50)",
         "index pruning weakens as dimensionality grows — the trade-off "
         "that motivates method selection (P4)");
  row("%6s %17s %18s %12s %12s", "dims", "mr_ms(model+meas)",
      "idx_ms(model+meas)", "speedup", "idx_rows");
  for (const std::size_t dims : {2u, 4u, 6u, 8u}) {
    const Table table = make_clustered_dataset(50000, dims, 3, 61);
    Cluster cluster(8, Network::single_zone(8));
    cluster.load_table("t", table);
    ExactExecutor exec(cluster, "t");
    Rng rng(62);
    RunningStats mr_ms, idx_ms;
    std::uint64_t idx_rows = 0;
    for (int i = 0; i < 5; ++i) {
      AnalyticalQuery q;
      q.selection = SelectionType::kNearestNeighbors;
      q.analytic = AnalyticType::kAvg;
      q.target_col = dims;  // derived y column
      for (std::size_t d = 0; d < dims; ++d) q.subspace_cols.push_back(d);
      q.knn_point.resize(dims);
      for (auto& v : q.knn_point) v = rng.uniform(0.2, 0.8);
      q.knn_k = 50;
      mr_ms.add(
          exec.execute(q, ExecParadigm::kMapReduce).report.makespan_ms());
      cluster.reset_stats();
      idx_ms.add(exec.execute(q, ExecParadigm::kCoordinatorIndexed)
                     .report.makespan_ms());
      idx_rows += cluster.stats().rows_scanned;
    }
    row("%6zu %17.2f %18.2f %12.1f %12llu", dims, mr_ms.mean(),
        idx_ms.mean(), mr_ms.mean() / std::max(1e-9, idx_ms.mean()),
        static_cast<unsigned long long>(idx_rows / 5));
  }
}

}  // namespace
}  // namespace sea::bench

int main() {
  sea::bench::sweep_k();
  sea::bench::sweep_dims();
  return 0;
}
