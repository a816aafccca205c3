// E3 — Surgical rank-join vs MapReduce rank-join (paper [30], §IV P3).
//
// The paper reports "up to 6 orders of magnitude" improvements for the
// index-based surgical approach. We sweep k and relation size and report
// makespan (ExecReport::makespan_ms(): modelled overheads and network plus
// timer-measured compute, hence the `(model+meas)` columns), bytes moved,
// and base rows touched for both, plus the improvement factors. Absolute
// numbers differ from the authors' testbed; the shape — surgical cost
// ~ O(prefix), MapReduce cost ~ O(|R|+|S|) — is the reproduced result.
#include "bench_util.h"

#include "ops/rank_join.h"

namespace sea::bench {
namespace {

void sweep_k() {
  banner("E3a: rank-join, k sweep (|R|=|S|=50k, 8 nodes)",
         "surgical TA consumes a tiny prefix of R; MapReduce always "
         "shuffles both relations ([30]: up to 6 orders of magnitude)");
  row("%6s %19s %19s %12s %14s %14s %12s %10s %12s", "k",
      "mr_ms(model+meas)", "sur_ms(model+meas)", "speedup", "mr_bytes",
      "sur_bytes", "bytes_ratio", "r_prefix", "usd_ratio");

  const Table r = make_scored_relation(50000, 500, 0.9, 31);
  const Table s = make_scored_relation(50000, 500, 0.9, 32);
  Cluster cluster(8, Network::single_zone(8));
  cluster.load_table("R", r);
  cluster.load_table("S", s);
  invalidate_rank_join_indexes();

  for (const std::size_t k : {1u, 10u, 100u, 1000u}) {
    RankJoinSpec spec;
    spec.table_r = "R";
    spec.table_s = "S";
    spec.k = k;
    const auto mr = rank_join_mapreduce(cluster, spec);
    rank_join_surgical(cluster, spec);  // amortized bootstrap
    const auto sur = rank_join_surgical(cluster, spec);
    const double mr_bytes =
        static_cast<double>(mr.report.shuffle_bytes + mr.report.result_bytes);
    const double sur_bytes = static_cast<double>(sur.report.shuffle_bytes +
                                                 sur.report.result_bytes);
    const CostRates rates;
    row("%6zu %19.1f %19.2f %12.1f %14.0f %14.0f %12.1f %10llu %12.1f", k,
        mr.report.makespan_ms(), sur.report.makespan_ms(),
        mr.report.makespan_ms() / std::max(1e-9, sur.report.makespan_ms()),
        mr_bytes, sur_bytes, mr_bytes / std::max(1.0, sur_bytes),
        static_cast<unsigned long long>(sur.r_tuples_consumed),
        mr.report.money_cost_usd(rates) /
            std::max(1e-12, sur.report.money_cost_usd(rates)));
  }
}

void sweep_size() {
  banner("E3b: rank-join, relation-size sweep (k=10)",
         "MapReduce cost grows with |R|+|S|; surgical cost stays ~flat");
  row("%10s %19s %19s %12s %12s", "rows", "mr_ms(model+meas)",
      "sur_ms(model+meas)", "speedup", "r_prefix");
  for (const std::size_t rows : {10000u, 30000u, 100000u}) {
    Cluster cluster(8, Network::single_zone(8));
    cluster.load_table("R", make_scored_relation(rows, 500, 0.9, 41));
    cluster.load_table("S", make_scored_relation(rows, 500, 0.9, 42));
    invalidate_rank_join_indexes();
    RankJoinSpec spec;
    spec.table_r = "R";
    spec.table_s = "S";
    spec.k = 10;
    const auto mr = rank_join_mapreduce(cluster, spec);
    rank_join_surgical(cluster, spec);
    const auto sur = rank_join_surgical(cluster, spec);
    row("%10zu %19.1f %19.2f %12.1f %12llu", rows, mr.report.makespan_ms(),
        sur.report.makespan_ms(),
        mr.report.makespan_ms() / std::max(1e-9, sur.report.makespan_ms()),
        static_cast<unsigned long long>(sur.r_tuples_consumed));
  }
  invalidate_rank_join_indexes();
}

void sweep_skew() {
  banner("E3c: rank-join, key-skew sweep (paper P4: data distribution "
         "changes the trade-off)",
         "higher key skew = more matches per probe = earlier TA "
         "termination");
  row("%8s %19s %19s %12s %12s %10s", "skew", "mr_ms(model+meas)",
      "sur_ms(model+meas)", "speedup", "r_prefix", "s_probes");
  for (const double skew : {0.2, 0.6, 1.0, 1.4}) {
    Cluster cluster(8, Network::single_zone(8));
    cluster.load_table("R", make_scored_relation(30000, 500, skew, 51));
    cluster.load_table("S", make_scored_relation(30000, 500, skew, 52));
    invalidate_rank_join_indexes();
    RankJoinSpec spec;
    spec.table_r = "R";
    spec.table_s = "S";
    spec.k = 10;
    const auto mr = rank_join_mapreduce(cluster, spec);
    rank_join_surgical(cluster, spec);
    const auto sur = rank_join_surgical(cluster, spec);
    row("%8.1f %19.1f %19.2f %12.1f %12llu %10llu", skew,
        mr.report.makespan_ms(), sur.report.makespan_ms(),
        mr.report.makespan_ms() / std::max(1e-9, sur.report.makespan_ms()),
        static_cast<unsigned long long>(sur.r_tuples_consumed),
        static_cast<unsigned long long>(sur.s_probes));
  }
  invalidate_rank_join_indexes();
}

}  // namespace
}  // namespace sea::bench

int main() {
  sea::bench::sweep_k();
  sea::bench::sweep_size();
  sea::bench::sweep_skew();
  return 0;
}
