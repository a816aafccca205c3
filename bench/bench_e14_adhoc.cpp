// E14 — kNN variants and ad hoc ML tasks over subspaces (paper RT2.1/2.2).
//
// (a) Reverse kNN: local-bound filtering vs the all-pairs broadcast scan.
// (b) kNN join: per-node tree probes vs broadcasting the inner relation.
// (c) Ad hoc subspace ML (k-means / regression) with the semantic task
//     cache: misses, exact repeats, and contained-subspace reuse.
#include "bench_util.h"

#include "ops/adhoc_ml.h"
#include "ops/knn_variants.h"

namespace sea::bench {
namespace {

void rknn() {
  banner("E14a: reverse kNN (RT2.1)",
         "local k-th-NN bounds reject most tuples on their own node; only "
         "survivors are verified across nodes");
  row("%6s %19s %18s %12s %12s %14s", "k", "scan_ms(model+meas)",
      "idx_ms(model+meas)", "speedup", "survivors", "results");
  const Table t = make_clustered_dataset(6000, 2, 3, 141);
  Cluster cluster(6, Network::single_zone(6));
  cluster.load_table("t", t);
  const std::vector<std::size_t> cols = {0, 1};
  const Point q = {0.5, 0.5};
  for (const std::size_t k : {1u, 5u, 20u}) {
    const auto scan = reverse_knn_scan(cluster, "t", cols, q, k);
    const auto idx = reverse_knn_indexed(cluster, "t", cols, q, k);
    row("%6zu %19.1f %18.2f %12.1f %12llu %14zu", k,
        scan.report.makespan_ms(), idx.report.makespan_ms(),
        scan.report.makespan_ms() /
            std::max(1e-9, idx.report.makespan_ms()),
        static_cast<unsigned long long>(idx.verified_globally),
        idx.results.size());
  }
}

void knn_join() {
  banner("E14b: kNN join (RT2.1)",
         "per-node trees over B answer batched probes; the baseline "
         "broadcasts all of B to every node");
  row("%6s %16s %16s %14s %14s", "k", "bcast_cpu(meas)", "idx_cpu(meas)",
      "bcast_bytes", "idx_bytes");
  Cluster cluster(6, Network::single_zone(6));
  cluster.load_table("A", make_clustered_dataset(2000, 2, 3, 142));
  cluster.load_table("B", make_clustered_dataset(30000, 2, 3, 143));
  const std::vector<std::size_t> cols = {0, 1};
  for (const std::size_t k : {1u, 5u, 20u}) {
    const auto bc = knn_join_broadcast(cluster, "A", cols, "B", cols, k);
    const auto idx = knn_join_indexed(cluster, "A", cols, "B", cols, k);
    row("%6zu %16.1f %16.2f %14llu %14llu", k,
        bc.report.map_compute_ms_total, idx.report.coordinator_compute_ms,
        static_cast<unsigned long long>(bc.report.shuffle_bytes),
        static_cast<unsigned long long>(idx.report.result_bytes));
  }
}

void adhoc() {
  banner("E14c: ad hoc subspace ML with semantic task cache (RT2.2)",
         "'develop semantic caches and indexes to dramatically expedite "
         "such operations'");
  const Table t = make_clustered_dataset(50000, 2, 3, 144);
  Cluster cluster(8, Network::single_zone(8));
  cluster.load_table("t", t);
  AdhocMlEngine engine(cluster, "t", {0, 1}, 32);

  // An exploration session: overlapping/contained subspaces, repeats.
  Rng rng(145);
  row("%8s %-12s %10s %12s %14s", "task#", "kind", "rows", "hit",
      "rows_scanned");
  for (int i = 0; i < 10; ++i) {
    Rect r;
    if (i % 3 == 0) {
      r = Rect{{0.2, 0.2}, {0.8, 0.8}};  // the recurring big subspace
    } else if (i % 3 == 1) {
      const double lo = rng.uniform(0.3, 0.45);
      r = Rect{{lo, lo}, {lo + 0.2, lo + 0.2}};  // contained in the big one
    } else {
      const double lo = rng.uniform(0.0, 0.3);
      r = Rect{{lo, 0.1}, {lo + 0.25, 0.5}};  // fresh region
    }
    cluster.reset_stats();
    const auto result = engine.kmeans(r, 3);
    row("%8d %-12s %10zu %12s %14llu", i + 1,
        result.cache_hit ? "exact-hit"
        : result.answered_from_superset ? "superset"
                                        : "miss",
        result.rows,
        result.cache_hit || result.answered_from_superset ? "yes" : "no",
        static_cast<unsigned long long>(cluster.stats().rows_scanned));
  }
  const auto& st = engine.stats();
  row("totals: %llu tasks, %llu exact hits, %llu superset hits, %llu "
      "misses, cache %zu KiB",
      static_cast<unsigned long long>(st.tasks),
      static_cast<unsigned long long>(st.exact_hits),
      static_cast<unsigned long long>(st.superset_hits),
      static_cast<unsigned long long>(st.misses),
      engine.cache_bytes() / 1024);
}

void approx_knn() {
  banner("E14d: approximate kNN vs data placement (RT2.1)",
         "probing only the nearest partitions trades recall for cost; "
         "locality-aware placement makes the trade nearly free");
  row("%-14s %8s %10s %18s %12s", "placement", "probes", "recall",
      "idx_ms(model+meas)", "rpcs");
  const Table t = make_clustered_dataset(40000, 2, 3, 146);
  const std::vector<std::size_t> cols = {0, 1};
  const Point q = {0.5, 0.5};
  for (const bool range_part : {false, true}) {
    Cluster cluster(8, Network::single_zone(8));
    cluster.load_table("t", t,
                       range_part
                           ? PartitionSpec{Partitioning::kRangeColumn, 0}
                           : PartitionSpec{});
    const auto exact = knn_retrieve_exact(cluster, "t", cols, q, 20);
    for (const std::size_t probes : {1u, 2u, 4u, 8u}) {
      const auto approx =
          knn_retrieve_approx(cluster, "t", cols, q, 20, probes);
      row("%-14s %8zu %10.2f %18.2f %12llu",
          range_part ? "range(x0)" : "round_robin", probes,
          knn_recall(exact, approx), approx.report.makespan_ms(),
          static_cast<unsigned long long>(approx.report.rpc_round_trips));
    }
  }
  std::printf(
      "\nExpected shape: under range partitioning 1-2 probes already reach\n"
      "recall ~1.0; under round-robin recall ~ probes/8 — data placement\n"
      "is the lever (paper §III.B lists it among the system techniques).\n");
}

}  // namespace
}  // namespace sea::bench

int main() {
  sea::bench::rknn();
  sea::bench::knn_join();
  sea::bench::adhoc();
  sea::bench::approx_knn();
  return 0;
}
