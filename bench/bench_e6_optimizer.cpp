// E6 — Learned execution-method selection (paper P4 / RT3 / G6).
//
// The setting where the paradigms genuinely trade places is the paper's
// geo-distributed one (§II: "for emerging large-scale geo-distributed
// analytics ... current solutions' requirements either exceed available
// resources or simply cost too much"): 12 storage nodes in 12 sites behind
// a 40ms WAN, table range-partitioned on x0.
//  * Narrow queries touch 1-2 sites: sequential coordinator RPCs beat a
//    cluster-wide MapReduce wave.
//  * Near-full-domain queries touch all sites: one parallel MapReduce wave
//    beats 12 sequential WAN round trips.
// Compared policies: always-MapReduce, always-indexed, learned selector,
// per-query oracle. Metric: total modelled makespan; ratio to oracle.
#include "bench_util.h"

#include "optimizer/adaptive.h"

namespace sea::bench {
namespace {

void run() {
  banner("E6: on-the-fly method selection (geo-distributed, 12 sites, "
         "40ms WAN)",
         "the best paradigm flips with how many sites a query touches; a "
         "learned optimizer approaches the per-query oracle (P4/G6)");

  const std::size_t kNodes = 12;
  const Table table = make_clustered_dataset(120000, 2, 3, 81);
  std::vector<std::uint32_t> zones(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i)
    zones[i] = static_cast<std::uint32_t>(i);
  Network net(std::move(zones), LinkSpec{0.1, 10000.0},
              LinkSpec{40.0, 200.0});
  Cluster cluster(kNodes, std::move(net));
  cluster.load_table("t", table,
                     PartitionSpec{Partitioning::kRangeColumn, 0});
  ExactExecutor exec(cluster, "t");
  const Rect domain = exec.domain({0, 1});
  Rng rng(82);

  // Query stream: x0-width uniform over the full spectrum, so the number
  // of sites touched ranges from 1 to 12.
  std::vector<AnalyticalQuery> stream;
  for (int i = 0; i < 160; ++i) {
    AnalyticalQuery q;
    q.selection = SelectionType::kRange;
    q.analytic = AnalyticType::kCount;
    q.subspace_cols = {0, 1};
    const double w0 = domain.hi[0] - domain.lo[0];
    const double width = rng.uniform(0.02, 0.98) * w0;
    const double c = rng.uniform(domain.lo[0] + width / 2,
                                 domain.hi[0] - width / 2);
    q.range.lo = {c - width / 2, domain.lo[1]};
    q.range.hi = {c + width / 2, domain.hi[1]};
    stream.push_back(q);
  }

  double cost_mr = 0, cost_idx = 0, cost_grid = 0, cost_learned = 0,
         cost_oracle = 0;
  std::size_t oracle_mr = 0, oracle_idx = 0, oracle_grid = 0,
              oracle_learned = 0;
  for (const auto& q : stream) {
    const double mr =
        exec.execute(q, ExecParadigm::kMapReduce).report.makespan_ms();
    const double idx = exec.execute(q, ExecParadigm::kCoordinatorIndexed)
                           .report.makespan_ms();
    const double grid = exec.execute(q, ExecParadigm::kCoordinatorGrid)
                            .report.makespan_ms();
    const double learned = exec.execute(q, ExecParadigm::kCoordinatorLearned)
                               .report.makespan_ms();
    cost_mr += mr;
    cost_idx += idx;
    cost_grid += grid;
    cost_learned += learned;
    const double best = std::min({mr, idx, grid, learned});
    cost_oracle += best;
    if (best == mr)
      ++oracle_mr;
    else if (best == idx)
      ++oracle_idx;
    else if (best == grid)
      ++oracle_grid;
    else
      ++oracle_learned;
  }

  SelectorConfig scfg;
  scfg.min_samples_per_method = 10;
  scfg.epsilon = 0.1;
  AdaptiveExecutor adaptive(exec, CostMetric::kMakespan, scfg);
  double cost_adaptive = 0;
  for (const auto& q : stream)
    cost_adaptive += adaptive.execute(q).report.makespan_ms();

  row("%-18s %20s %12s", "policy", "total_ms(model+meas)", "vs_oracle");
  row("%-18s %20.1f %12.2f", "always_mapreduce", cost_mr,
      cost_mr / cost_oracle);
  row("%-18s %20.1f %12.2f", "always_kdtree", cost_idx,
      cost_idx / cost_oracle);
  row("%-18s %20.1f %12.2f", "always_grid", cost_grid,
      cost_grid / cost_oracle);
  row("%-18s %20.1f %12.2f", "always_learned", cost_learned,
      cost_learned / cost_oracle);
  row("%-18s %20.1f %12.2f", "learned_selector", cost_adaptive,
      cost_adaptive / cost_oracle);
  row("%-18s %20.1f %12.2f", "oracle", cost_oracle, 1.0);
  row("oracle picks: mapreduce=%zu kdtree=%zu grid=%zu learned_grid=%zu "
      "of %zu",
      oracle_mr, oracle_idx, oracle_grid, oracle_learned, stream.size());
  row("selector picks: mapreduce=%llu kdtree=%llu grid=%llu "
      "learned_grid=%llu explored=%llu",
      static_cast<unsigned long long>(adaptive.stats().chose_mapreduce),
      static_cast<unsigned long long>(adaptive.stats().chose_indexed),
      static_cast<unsigned long long>(adaptive.stats().chose_grid),
      static_cast<unsigned long long>(adaptive.stats().chose_learned_grid),
      static_cast<unsigned long long>(adaptive.selector().stats().explored));
  std::printf(
      "\nExpected shape: neither static policy wins (oracle uses both);\n"
      "the learned selector converges near the oracle after its warm-up\n"
      "exploration, 'on-the-fly adopting the best execution method' (O6).\n");
}

}  // namespace
}  // namespace sea::bench

int main() {
  sea::bench::run();
  return 0;
}
