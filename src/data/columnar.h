// Cache-blocked, branch-free columnar scans over Table.
//
// The row-at-a-time alternative (Table::gather into a Point per row, then a
// Rect/Ball predicate) pays one bounds-checked indirect load per (row,
// column) and a data-dependent branch per row. These scans flip the loop:
// column-at-a-time over fixed blocks of kScanBlock rows, refining a
// block-local candidate list so each column's span is streamed
// sequentially and rows failing an earlier column are never touched again.
//
// Branch-free compaction: a candidate's id is always written at the
// cursor, and the cursor then advances by the predicate (0 or 1). There is
// no branch on the data, so selectivity near 50% costs no mispredictions.
// The predicates are the row scan's own (`lo <= v <= hi` per column,
// `d2 <= r2` for a ball), so NaN never qualifies.
//
// Fold per block: each visitor receives one block's result while it is
// still in cache — the ascending ids of its qualifying rows (visit_range,
// visit_ball) or the squared distances of its rows (visit_distances). A
// fold over those ids in order adds the same values in the same order as
// a fold over one whole-partition selection vector. A fold must add the
// qualifying values only: masked arithmetic over every row (adding
// `in ? v : 0.0`, or `in * v`) changes bits, because 0 * NaN is NaN and
// -0.0 + 0.0 is +0.0.
//
// Squared distances accumulate column-at-a-time in dimension order, the
// same adds in the same order as squared_distance() on a gathered Point.
//
// The scans are serial and allocate nothing: they run inside map tasks,
// which are already the unit of parallelism.
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

/// Calls `visitor(std::span<const std::uint32_t> ids)` once per block that
/// has qualifying rows, with the ascending ids of its rows whose `cols`
/// values lie inside the closed `rect`. Blocks arrive in row order.
template <typename Visitor>
void visit_range(const Table& table, std::span<const std::size_t> cols,
                 const Rect& rect, Visitor&& visitor) {
  if (rect.dims() != cols.size())
    throw std::invalid_argument("visit_range: dims mismatch");
  std::array<std::uint32_t, kScanBlock> ids;
  const std::size_t rows = table.num_rows();
  for (std::size_t begin = 0; begin < rows; begin += kScanBlock) {
    const auto end = static_cast<std::uint32_t>(
        std::min(rows, begin + kScanBlock));
    std::size_t n = 0;
    if (cols.empty()) {  // empty subspace: every row qualifies
      for (auto r = static_cast<std::uint32_t>(begin); r < end; ++r)
        ids[n++] = r;
    } else {
      // The first column seeds the candidates; each further column
      // compacts the survivors in place.
      const double* c0 = table.column(cols[0]).data();
      const double lo0 = rect.lo[0], hi0 = rect.hi[0];
      for (auto r = static_cast<std::uint32_t>(begin); r < end; ++r) {
        ids[n] = r;
        n += static_cast<std::size_t>((c0[r] >= lo0) & (c0[r] <= hi0));
      }
      for (std::size_t d = 1; d < cols.size() && n > 0; ++d) {
        const double* cd = table.column(cols[d]).data();
        const double lo = rect.lo[d], hi = rect.hi[d];
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t r = ids[i];
          ids[kept] = r;
          kept += static_cast<std::size_t>((cd[r] >= lo) & (cd[r] <= hi));
        }
        n = kept;
      }
    }
    if (n > 0) visitor(std::span<const std::uint32_t>(ids.data(), n));
  }
}

namespace detail {

/// d2[i] (=, or += when `kAdd`) (col[i] - c)^2 for i < n. A full block
/// runs with a compile-time trip count: GCC's -O2 cost model vectorizes
/// only a loop that needs no scalar epilogue and no alias check (hence
/// __restrict). Lane-wise IEEE subtract and multiply give the scalar
/// loop's bits.
template <bool kAdd>
inline void squared_diffs(double* __restrict d2,
                          const double* __restrict col, double c,
                          std::size_t n) {
  const auto pass = [&](std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      const double diff = col[i] - c;
      if constexpr (kAdd)
        d2[i] += diff * diff;
      else
        d2[i] = diff * diff;
    }
  };
  if (n == kScanBlock)
    pass(kScanBlock);
  else
    pass(n);
}

}  // namespace detail

/// Calls `visitor(std::uint32_t first, std::span<const double> d2)` once
/// per block, in row order: d2[i] is the squared distance of row first + i
/// to `center` over `cols`.
template <typename Visitor>
void visit_distances(const Table& table, std::span<const std::size_t> cols,
                     std::span<const double> center, Visitor&& visitor) {
  if (center.size() != cols.size())
    throw std::invalid_argument("visit_distances: dims mismatch");
  std::array<double, kScanBlock> d2;
  const std::size_t rows = table.num_rows();
  for (std::size_t begin = 0; begin < rows; begin += kScanBlock) {
    const std::size_t n = std::min(rows - begin, kScanBlock);
    if (cols.empty()) std::fill_n(d2.begin(), n, 0.0);
    for (std::size_t d = 0; d < cols.size(); ++d) {
      const double* cd = table.column(cols[d]).data() + begin;
      const double c = center[d];
      // The first column assigns: diff * diff is +0.0 or more, or NaN,
      // and 0.0 + x is x for each, so the bits match accumulating from 0.
      if (d == 0)
        detail::squared_diffs<false>(d2.data(), cd, c, n);
      else
        detail::squared_diffs<true>(d2.data(), cd, c, n);
    }
    visitor(static_cast<std::uint32_t>(begin),
            std::span<const double>(d2.data(), n));
  }
}

/// As visit_range, for the rows within the closed `ball` over `cols`.
template <typename Visitor>
void visit_ball(const Table& table, std::span<const std::size_t> cols,
                const Ball& ball, Visitor&& visitor) {
  if (ball.dims() != cols.size())
    throw std::invalid_argument("visit_ball: dims mismatch");
  const double r2 = ball.radius * ball.radius;
  std::array<std::uint32_t, kScanBlock> ids;
  visit_distances(table, cols, ball.center,
                  [&](std::uint32_t first, std::span<const double> d2) {
                    std::size_t n = 0;
                    for (std::size_t i = 0; i < d2.size(); ++i) {
                      ids[n] = first + static_cast<std::uint32_t>(i);
                      n += static_cast<std::size_t>(d2[i] <= r2);
                    }
                    if (n > 0)
                      visitor(std::span<const std::uint32_t>(ids.data(), n));
                  });
}

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
/// NaN distances last. One distance scan feeding a k-bounded max-heap;
/// `out` is the only storage, and its capacity is reused across calls.
void nearest_rows(const Table& table, std::span<const std::size_t> cols,
                  std::span<const double> center, std::size_t k,
                  std::vector<NearRow>& out);

}  // namespace sea
