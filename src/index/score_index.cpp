#include "index/score_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include <span>

#include "common/parallel.h"
#include "common/primitives.h"

namespace sea {

namespace {

/// Strict total order (descending score, ascending source row): every
/// build strategy — serial std::sort or parallel sample sort — converges
/// on the same unique rank order, score ties included.
bool rank_before(const ScoredTuple& a, const ScoredTuple& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.row < b.row;
}

/// The canonical rank order: tuples sorted by (score desc, row asc) — a
/// strict total order, so the deterministic parallel sample sort yields the
/// same array at any SEA_THREADS.
std::vector<ScoredTuple> build_rank_order(const Table& table,
                                          std::size_t key_col,
                                          std::size_t score_col,
                                          std::size_t payload_col) {
  if (key_col >= table.num_columns() || score_col >= table.num_columns())
    throw std::invalid_argument("ScoreIndex: bad column");
  const bool has_payload = payload_col < table.num_columns();
  const std::size_t n = table.num_rows();
  std::vector<ScoredTuple> by_rank(n);
  const auto keys = table.column(key_col);
  const auto scores = table.column(score_col);
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      ScoredTuple& t = by_rank[r];
      t.key = static_cast<std::uint64_t>(std::llround(keys[r]));
      t.score = scores[r];
      t.payload = has_payload ? table.at(r, payload_col) : 0.0;
      t.row = static_cast<std::uint32_t>(r);
    }
  });

  // Deterministic parallel sample sort; rank_before is a strict total
  // order, so the output is identical to a serial std::sort at any
  // SEA_THREADS (and sample_sort itself falls back to std::sort below its
  // serial cutoff or inside nested parallel regions).
  par::sample_sort(std::span<ScoredTuple>(by_rank), rank_before);
  return by_rank;
}

}  // namespace

ScoreIndex::ScoreIndex(const Table& table, std::size_t key_col,
                       std::size_t score_col, std::size_t payload_col)
    : by_rank_(build_rank_order(table, key_col, score_col, payload_col)) {
  const std::size_t n = by_rank_.size();
  key_index_.reserve(n);
  for (std::uint32_t i = 0; i < by_rank_.size(); ++i)
    key_index_[by_rank_[i].key].push_back(i);
}

const ScoredTuple& ScoreIndex::by_rank(std::size_t rank) const {
  if (rank >= by_rank_.size()) throw std::out_of_range("ScoreIndex::by_rank");
  return by_rank_[rank];
}

std::span<const std::uint32_t> ScoreIndex::ranks_for_key(
    std::uint64_t key) const {
  const auto it = key_index_.find(key);
  if (it == key_index_.end()) return {};
  return it->second;
}

double ScoreIndex::best_score_for_key(std::uint64_t key) const {
  const auto ranks = ranks_for_key(key);
  if (ranks.empty()) return -std::numeric_limits<double>::infinity();
  // Ranks are ascending positions in descending-score order, so the first
  // rank holds the best score.
  return by_rank_[ranks.front()].score;
}

}  // namespace sea
