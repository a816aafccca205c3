// Blocked columnar scans over Table: the MapReduce map kernels.
//
// Each scan streams column spans in blocks of kScanBlock rows through
// two-lane GCC/Clang vector kernels (columnar.cpp). What callers rely on:
//   * The predicates are the row scan's own (`lo <= v <= hi` per column,
//     `d2 <= r2` for a ball), so NaN never qualifies.
//   * Visitors get each block's qualifying ids ascending, blocks in row
//     order, so a fold over them adds the same values in the same order
//     as a fold over one whole-partition selection. A fold must add the
//     qualifying values only: masked arithmetic (`in ? v : 0.0`, `in * v`)
//     changes bits, because 0 * NaN is NaN and -0.0 + 0.0 is +0.0.
//   * count_range/count_ball write no ids and return the visited row
//     count, so a COUNT built from them is bit-identical.
//   * Squared distances add per column in dimension order, bit-equal to
//     squared_distance() on a gathered Point.
//   * The scans are serial and allocate nothing but nearest_rows' output:
//     they run inside map tasks, already the unit of parallelism.
// DESIGN.md "Columnar scans" gives the vector idiom and the reasons.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "data/point.h"
#include "data/table.h"

namespace sea {

/// Rows per scan block: one block's ids (8 KiB) and squared distances
/// (16 KiB) stay in L1/L2 while the visitor folds them.
inline constexpr std::size_t kScanBlock = 2048;
/// Predicate bit words per block.
inline constexpr std::size_t kScanWords = kScanBlock / 64;

namespace detail {

/// One block's predicate words: the bits of rows [begin, begin + n), n <=
/// kScanBlock, in words[0 .. ceil(n / 64)); bits past n are 0. An empty
/// `cols` selects every row.
void range_words(const Table& table, std::span<const std::size_t> cols,
                 const Rect& rect, std::size_t begin, std::size_t n,
                 std::uint64_t* words) noexcept;
void ball_words(const Table& table, std::span<const std::size_t> cols,
                const Ball& ball, std::size_t begin, std::size_t n,
                std::uint64_t* words) noexcept;

/// Writes the rows of the set bits of words[0 .. nwords), ascending and
/// offset by `first`, to `ids`; returns how many.
std::size_t ids_of(const std::uint64_t* words, std::size_t nwords,
                   std::uint32_t first, std::uint32_t* ids) noexcept;

/// Calls `visitor(ids)` once per block with qualifying rows, blocks in row
/// order; `words_of(begin, n, words)` fills a block's predicate words.
template <typename WordsOf, typename Visitor>
void visit_blocks(std::size_t rows, WordsOf&& words_of, Visitor&& visitor) {
  std::array<std::uint64_t, kScanWords> words;
  std::array<std::uint32_t, kScanBlock> ids;
  for (std::size_t begin = 0; begin < rows; begin += kScanBlock) {
    const std::size_t n = std::min(rows - begin, kScanBlock);
    words_of(begin, n, words.data());
    const std::size_t hits = ids_of(words.data(), (n + 63) / 64,
                                    static_cast<std::uint32_t>(begin),
                                    ids.data());
    if (hits > 0) visitor(std::span<const std::uint32_t>(ids.data(), hits));
  }
}

}  // namespace detail

/// Calls `visitor(std::span<const std::uint32_t> ids)` once per block that
/// has qualifying rows, with the ascending ids of its rows whose `cols`
/// values lie inside the closed `rect`. Blocks arrive in row order.
template <typename Visitor>
void visit_range(const Table& table, std::span<const std::size_t> cols,
                 const Rect& rect, Visitor&& visitor) {
  if (rect.dims() != cols.size())
    throw std::invalid_argument("visit_range: dims mismatch");
  detail::visit_blocks(
      table.num_rows(),
      [&](std::size_t begin, std::size_t n, std::uint64_t* words) {
        detail::range_words(table, cols, rect, begin, n, words);
      },
      visitor);
}

/// As visit_range, for the rows within the closed `ball` over `cols`.
template <typename Visitor>
void visit_ball(const Table& table, std::span<const std::size_t> cols,
                const Ball& ball, Visitor&& visitor) {
  if (ball.dims() != cols.size())
    throw std::invalid_argument("visit_ball: dims mismatch");
  detail::visit_blocks(
      table.num_rows(),
      [&](std::size_t begin, std::size_t n, std::uint64_t* words) {
        detail::ball_words(table, cols, ball, begin, n, words);
      },
      visitor);
}

/// The number of rows visit_range / visit_ball would visit.
std::size_t count_range(const Table& table, std::span<const std::size_t> cols,
                        const Rect& rect);
std::size_t count_ball(const Table& table, std::span<const std::size_t> cols,
                       const Ball& ball);

/// One nearest-neighbour candidate: a row and its squared distance.
struct NearRow {
  double d2 = 0.0;
  std::uint32_t row = 0;
};

/// Total order key of a distance (squared or not; >= +0.0 or NaN): its
/// IEEE bits, which order like the values, with every NaN ranked after
/// +inf. Equal keys break ties by row.
inline std::uint64_t distance_rank(double d) noexcept {
  return d != d ? ~std::uint64_t{0} : std::bit_cast<std::uint64_t>(d);
}

/// The min(k, num_rows) rows nearest to `center` over `cols`, in `out`
/// ascending by (distance_rank(d2), row): nearer first, ties by row id,
/// NaN distances last. One distance scan: a vector compare against the
/// current k-th distance filters each block, and only its survivors enter
/// `out`, a buffer of at most min(2k + 64, num_rows) rows cut back to the
/// k nearest by select_nth. `out` is the only storage, and its capacity is
/// reused across calls.
void nearest_rows(const Table& table, std::span<const std::size_t> cols,
                  std::span<const double> center, std::size_t k,
                  std::vector<NearRow>& out);

/// Visits the first min(k, items.size()) elements of std::stable_sort(
/// items) ascending by rank(item), in that order, without sorting: `items`
/// is a concatenation of runs that each ascend by rank (one nearest_rows
/// list per partition), merged with ties to the earlier run. Runs are cut
/// at every descent, so any input visits the stable sort's prefix. The
/// run list is a per-thread buffer, so a call allocates nothing once warm
/// (and `visit` must not call visit_merged_runs again).
template <typename T, typename Rank, typename Visit>
void visit_merged_runs(std::span<const T> items, std::size_t k, Rank&& rank,
                       Visit&& visit) {
  struct Run {
    std::size_t pos, end;
  };
  thread_local std::vector<Run> runs;
  runs.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i == 0 || rank(items[i]) < rank(items[i - 1]))
      runs.push_back({i, i + 1});
    else
      runs.back().end = i + 1;
  }
  for (std::size_t taken = std::min(k, items.size()); taken > 0; --taken) {
    Run* best = nullptr;
    for (Run& r : runs) {
      if (r.pos < r.end &&
          (best == nullptr || rank(items[r.pos]) < rank(items[best->pos])))
        best = &r;
    }
    visit(items[best->pos++]);
  }
}

}  // namespace sea
