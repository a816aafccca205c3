// Per-partition score index for rank-join (paper [30], experiment E3).
//
// Supports the two access paths of threshold-style top-k join algorithms:
//   * sorted access — tuples in descending score order, and
//   * random access — all tuples with a given join key.
// Built once per storage node; the coordinator then pulls tuples in rank
// order and probes keys surgically instead of shuffling whole relations.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/table.h"

namespace sea {

struct ScoredTuple {
  std::uint64_t key = 0;
  double score = 0.0;
  double payload = 0.0;
  std::uint32_t row = 0;  ///< row index in the source partition
};

class ScoreIndex {
 public:
  ScoreIndex() = default;

  /// Builds over `table` using the named columns. Payload column is
  /// optional (pass num_columns() to skip).
  ScoreIndex(const Table& table, std::size_t key_col, std::size_t score_col,
             std::size_t payload_col);

  std::size_t size() const noexcept { return by_rank_.size(); }
  bool empty() const noexcept { return by_rank_.empty(); }

  /// rank 0 = highest score.
  const ScoredTuple& by_rank(std::size_t rank) const;

  /// Indices (into rank order) of all tuples with this key; empty if none.
  std::span<const std::uint32_t> ranks_for_key(std::uint64_t key) const;

  /// Highest score present for `key`, or -inf when absent.
  double best_score_for_key(std::uint64_t key) const;

  /// Modelled resident footprint: the rank array plus the hash map's
  /// real freight — per-key node (key, vector header, chain link), the
  /// rank arrays themselves, and the bucket table.
  std::size_t byte_size() const noexcept {
    std::size_t b = by_rank_.size() * sizeof(ScoredTuple) +
                    key_index_.bucket_count() * sizeof(void*);
    for (const auto& [key, ranks] : key_index_)
      b += sizeof(key) + sizeof(ranks) + sizeof(void*) +
           ranks.capacity() * sizeof(std::uint32_t);
    return b;
  }

 private:
  std::vector<ScoredTuple> by_rank_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> key_index_;
};

}  // namespace sea
