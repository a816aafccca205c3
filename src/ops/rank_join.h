// Distributed rank-join (top-k join), after the paper's [30] and §IV P3.
//
// Given two relations R and S partitioned across the cluster, each with
// (key, score, payload) columns, return the k join results with the
// highest combined score score_R + score_S.
//
// Two implementations whose cost gap is the E3 experiment:
//  * rank_join_mapreduce — the state-of-the-art-as-critiqued baseline:
//    both relations are fully scanned and shuffled by join key, reducers
//    materialize per-key score products and local top-k, the coordinator
//    merges. Cost grows with |R| + |S| regardless of k.
//  * rank_join_surgical — coordinator-cohort with per-node ScoreIndexes
//    and Bloom filters: sorted access pulls R tuples in global descending
//    score order; random access probes only the S nodes whose Bloom filter
//    may contain the key; a threshold-algorithm bound stops as soon as the
//    k-th best result beats any undiscovered combination. Cost grows with
//    the (typically tiny) prefix of R actually consumed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "exec/exec_report.h"

namespace sea {

struct RankJoinSpec {
  std::string table_r;
  std::string table_s;
  std::size_t key_col = 0;
  std::size_t score_col = 1;
  std::size_t payload_col = 2;
  std::size_t k = 10;
  /// Surgical: tuples pulled per sorted-access RPC.
  std::size_t batch_size = 32;
  /// Surgical: per-node Bloom filter false-positive rate.
  double bloom_fpr = 0.01;
};

struct JoinResult {
  std::uint64_t key = 0;
  double r_score = 0.0;
  double s_score = 0.0;
  double combined = 0.0;

  friend bool operator==(const JoinResult&, const JoinResult&) = default;
};

struct RankJoinOutcome {
  std::vector<JoinResult> topk;  ///< descending by combined score
  ExecReport report;
  std::uint64_t r_tuples_consumed = 0;  ///< sorted-access depth (surgical)
  std::uint64_t s_probes = 0;           ///< random-access probes (surgical)
};

RankJoinOutcome rank_join_mapreduce(Cluster& cluster, const RankJoinSpec& spec,
                                    NodeId coordinator = 0);

RankJoinOutcome rank_join_surgical(Cluster& cluster, const RankJoinSpec& spec,
                                   NodeId coordinator = 0);

/// Per-(cluster,table) cache of ScoreIndexes so repeated surgical joins
/// amortize index builds, mirroring persistent indexes at storage nodes.
/// Exposed for tests; rank_join_surgical uses it internally.
void invalidate_rank_join_indexes();

}  // namespace sea
