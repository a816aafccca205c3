// Exact execution of analytical queries over the simulated BDAS.
//
// Two interchangeable paradigms (paper RT3.2):
//  * kMapReduce — the Fig. 1 status quo: every node launches a task, scans
//    its whole partition through all stack layers, and shuffles partial
//    aggregates.
//  * kCoordinatorIndexed — the big-data-less path (P3): the coordinator
//    RPCs only relevant nodes, which answer from per-node k-d trees with
//    surgical tuple access; only 48-byte aggregate states travel.
//
// Both return the same exact answer; they differ (hugely) in cost, which
// is exactly what experiments E1/E6 measure.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "exec/exec_report.h"
#include "fault/outage.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "sea/aggregate.h"
#include "sea/query.h"

namespace sea {

enum class ExecParadigm {
  kMapReduce,
  kCoordinatorIndexed,  ///< per-node k-d trees
  kCoordinatorGrid,     ///< per-node uniform grids (RT3.1 alternative)
  kCoordinatorLearned,  ///< per-node grids with learned cell placement
};

const char* to_string(ExecParadigm p) noexcept;

/// The MapReduce map task of a range or radius query: `part`'s qualifying
/// rows folded into one AggregateState, one scan block at a time, in
/// ascending row order (data/columnar.h). COUNT takes the count kernel's
/// integer and writes no row ids; add(0, 0) would leave every sum at +0.0,
/// so the state is bit-identical to adding row by row.
AggregateState scan_aggregate(const Table& part, const AnalyticalQuery& q);

struct ExactResult {
  double answer = 0.0;
  std::uint64_t qualifying_tuples = 0;
  /// Raw mergeable aggregate (lets callers combine answers across systems,
  /// e.g. the polystore's federated queries).
  AggregateState state;
  ExecReport report;
};

class ExactExecutor {
 public:
  /// Executes against table `table_name` stored in `cluster`.
  /// `coordinator` is the node issuing queries (also reducer target).
  ExactExecutor(Cluster& cluster, std::string table_name,
                NodeId coordinator = 0);
  ~ExactExecutor();  // out-of-line: MrScratch is complete only in exact.cpp

  /// Exact answer via the chosen paradigm. The kCoordinatorIndexed path
  /// lazily builds (and caches) per-node k-d trees over the query's
  /// subspace columns; build time is reported via index_build_ms().
  /// When `deadline` is non-null, every modelled cost (transfers, task
  /// overheads, retry backoff) is charged against its budget and the
  /// execution aborts with DeadlineExceeded once it is spent.
  ExactResult execute(const AnalyticalQuery& query, ExecParadigm paradigm,
                      QueryDeadline* deadline = nullptr);

  /// Global bounds of the given columns (union over partitions); cached.
  /// Used for feature normalization by the agent and workload generators.
  const Rect& domain(const std::vector<std::size_t>& cols);

  Cluster& cluster() noexcept { return cluster_; }
  const std::string& table_name() const noexcept { return table_; }
  double index_build_ms() const noexcept { return index_build_ms_; }

  /// Drops cached indexes/domains (call after data updates).
  void invalidate_caches();

 private:
  /// One paradigm's per-node access structures over one column set: a k-d
  /// tree per node (kCoordinatorIndexed) or a grid per node, uniform
  /// (kCoordinatorGrid) or learned (kCoordinatorLearned).
  struct ShardIndexes {
    ExecParadigm paradigm;
    std::vector<std::size_t> cols;
    std::vector<KdTree> trees;
    std::vector<GridIndex> grids;
    /// k-d only: target columns copied into each tree's slot order, keyed
    /// by column and built on first use: the fused probe reads them
    /// contiguously.
    std::unordered_map<std::size_t, std::vector<std::vector<double>>>
        slot_targets;
  };

  /// The cached structures of (paradigm, cols), built on first use.
  ShardIndexes& indexes_for(ExecParadigm paradigm,
                            const std::vector<std::size_t>& cols);
  /// Per-node slot-ordered copies of table column `col` for `idx`'s trees.
  const std::vector<std::vector<double>>& slot_targets(ShardIndexes& idx,
                                                        std::size_t col);

  ExactResult execute_mapreduce(const AnalyticalQuery& query,
                                QueryDeadline* deadline);
  /// Shared coordinator-cohort path; `access` selects the per-node access
  /// structure (RT3.1): k-d tree, uniform grid, or learned grid.
  ExactResult execute_indexed(const AnalyticalQuery& query,
                              ExecParadigm access, QueryDeadline* deadline);

  /// Reusable MapReduce shuffle buffers (one per job key/value shape),
  /// kept warm across the executor's query stream — see MapReduceScratch.
  struct MrScratch;

  Cluster& cluster_;
  std::string table_;
  NodeId coordinator_;
  double index_build_ms_ = 0.0;
  /// One entry per (paradigm, columns) in use — a handful, searched in
  /// order; a list, so entries stay put while others are added.
  std::list<ShardIndexes> index_cache_;
  std::map<std::vector<std::size_t>, Rect> domain_cache_;
  std::unique_ptr<MrScratch> mr_scratch_;
};

}  // namespace sea
