#include "data/columnar.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/select.h"

namespace sea {

namespace {

/// Two doubles (SSE2 on x86-64, NEON on AArch64), and the lane bits of a
/// compare: all ones where it holds, 0 where it does not or where a lane
/// is NaN.
using V2d = double __attribute__((vector_size(16)));
using V2u = std::uint64_t __attribute__((vector_size(16)));

/// A compare's lane mask as plain bits. Cast each compare before combining
/// them: GCC lowers `&` of two raw compare results lane by lane.
V2u lanes(decltype(V2d{} < V2d{}) m) noexcept {
  return reinterpret_cast<V2u>(m);
}

V2d load2(const double* p) noexcept {
  V2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, V2d v) noexcept { std::memcpy(p, &v, sizeof v); }

/// The predicate bits of rows [0, n) of one word, n <= 64: bit i is row i.
/// `pair_in(i)` compares rows i and i + 1 in two lanes; `row_in(i)` is the
/// same predicate on one row, for an odd last row. Each lane's mask keeps
/// its own bit of a running {1, 2} << 2p, so the word needs no lane
/// extraction until its end.
template <typename PairIn, typename RowIn>
std::uint64_t word_of(std::size_t n, PairIn&& pair_in, RowIn&& row_in) {
  const auto pairs = [&](std::size_t m) {
    V2u acc{0, 0}, bit{1, 2};
#pragma GCC unroll 4
    for (std::size_t p = 0; p < m; ++p) {
      acc |= pair_in(2 * p) & bit;
      bit <<= 2;
    }
    return acc[0] | acc[1];
  };
  // A full word runs with a compile-time trip count.
  std::uint64_t w = n == 64 ? pairs(32) : pairs(n / 2);
  if (n & 1) w |= static_cast<std::uint64_t>(row_in(n - 1)) << (n - 1);
  return w;
}

/// d2[i] (=, or += when `kAdd`) (col[i] - c)^2 for i < n, two rows a step.
/// The first column assigns: diff * diff is +0.0 or more, or NaN, and 0.0
/// + x is x for each, so the bits match accumulating from 0.
template <bool kAdd>
void squared_diffs(double* d2, const double* col, double c, std::size_t n) {
  const V2d cc{c, c};
  std::size_t i = 0;
#pragma GCC unroll 4
  for (; i + 2 <= n; i += 2) {
    const V2d diff = load2(col + i) - cc;
    if constexpr (kAdd)
      store2(d2 + i, load2(d2 + i) + diff * diff);
    else
      store2(d2 + i, diff * diff);
  }
  if (i < n) {
    const double diff = col[i] - c;
    d2[i] = kAdd ? d2[i] + diff * diff : diff * diff;
  }
}

/// d2[i] = the squared distance of row begin + i to `center` over `cols`,
/// i < n, accumulated in column order.
void block_distances(const Table& table, std::span<const std::size_t> cols,
                     std::span<const double> center, std::size_t begin,
                     std::size_t n, double* d2) noexcept {
  if (cols.empty()) std::fill_n(d2, n, 0.0);
  for (std::size_t d = 0; d < cols.size(); ++d) {
    const double* cd = table.column(cols[d]).data() + begin;
    if (d == 0)
      squared_diffs<false>(d2, cd, center[d], n);
    else
      squared_diffs<true>(d2, cd, center[d], n);
  }
}

/// (distance_rank, row) order: nearer first, ties by row.
bool nearer(const NearRow& a, const NearRow& b) noexcept {
  const std::uint64_t ra = distance_rank(a.d2), rb = distance_rank(b.d2);
  return ra != rb ? ra < rb : a.row < b.row;
}

/// An upper bound on the `take`-th smallest distance_rank in d2[0, n),
/// take <= n: the last rank of the radix bucket holding it, of 256 equal
/// buckets spanning the non-NaN ranks; ~0 when that rank is a NaN's. At
/// least `take` of the rows rank at or below it. It makes a kNN map about
/// a sixth faster than seeding from the first `take` rows (DESIGN.md
/// "Columnar scans").
std::uint64_t rank_edge(const double* d2, std::size_t n, std::size_t take) {
  const double inf = std::numeric_limits<double>::infinity();
  V2d lo2{inf, inf}, hi2{0.0, 0.0};  // NaN lanes compare false: skipped
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const V2d v = load2(d2 + i);
    lo2 = v < lo2 ? v : lo2;
    hi2 = v > hi2 ? v : hi2;
  }
  double lo = std::min(lo2[0], lo2[1]), hi = std::max(hi2[0], hi2[1]);
  if (i < n && d2[i] < lo) lo = d2[i];
  if (i < n && d2[i] > hi) hi = d2[i];
  const std::uint64_t rlo = distance_rank(lo), rhi = distance_rank(hi);
  if (rlo > rhi) return ~std::uint64_t{0};  // every d2 is NaN
  // Ranks of d2 in [lo, hi] share their bits above `shift`; a NaN's rank,
  // ~0, lands past bucket 255 (rhi < 2^63), in the overflow bucket 256.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(rlo ^ rhi)) - 8);
  const std::uint64_t base = rlo >> shift;
  std::array<std::uint32_t, 257> hist{};
  for (std::size_t r = 0; r < n; ++r)
    ++hist[std::min<std::uint64_t>((distance_rank(d2[r]) >> shift) - base,
                                   256)];
  std::size_t b = 0;
  for (std::size_t below = hist[0]; below < take; below += hist[++b]) {
  }
  return b == 256 ? ~std::uint64_t{0} : ((base + b + 1) << shift) - 1;
}

/// One range column's lane masks over `pairs` row pairs, ANDed into
/// m[] (the first column assigns), and the per-lane count of pairs' rows
/// still qualifying: each qualifying lane's mask is all ones, so
/// subtracting it adds 1. Counting here beats a popcount of range_words
/// by about a seventh (DESIGN.md "Columnar scans").
template <bool kFirst>
V2u range_lanes(V2u* m, const double* col, double lo, double hi,
                std::size_t pairs) noexcept {
  const V2d lo2{lo, lo}, hi2{hi, hi};
  V2u count{0, 0};
#pragma GCC unroll 4
  for (std::size_t p = 0; p < pairs; ++p) {
    const V2d v = load2(col + 2 * p);
    V2u in = lanes(v >= lo2) & lanes(v <= hi2);
    if constexpr (!kFirst) in &= m[p];
    m[p] = in;
    count -= in;
  }
  return count;
}

}  // namespace

namespace detail {

void range_words(const Table& table, std::span<const std::size_t> cols,
                 const Rect& rect, std::size_t begin, std::size_t n,
                 std::uint64_t* words) noexcept {
  const std::size_t nwords = (n + 63) / 64;
  if (cols.empty()) {  // empty subspace: every row qualifies
    std::fill_n(words, nwords, ~std::uint64_t{0});
    if (n % 64 != 0) words[nwords - 1] >>= 64 - n % 64;
    return;
  }
  for (std::size_t d = 0; d < cols.size(); ++d) {
    const double* cd = table.column(cols[d]).data() + begin;
    const double lo = rect.lo[d], hi = rect.hi[d];
    const V2d lo2{lo, lo}, hi2{hi, hi};
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < nwords; ++j) {
      const double* cw = cd + 64 * j;
      const std::uint64_t w = word_of(
          std::min<std::size_t>(64, n - 64 * j),
          [&](std::size_t i) {
            const V2d v = load2(cw + i);
            return lanes(v >= lo2) & lanes(v <= hi2);
          },
          [&](std::size_t i) { return (cw[i] >= lo) & (cw[i] <= hi); });
      words[j] = d == 0 ? w : words[j] & w;
      any |= words[j];
    }
    if (any == 0) return;  // no survivors: the words are all 0
  }
}

void ball_words(const Table& table, std::span<const std::size_t> cols,
                const Ball& ball, std::size_t begin, std::size_t n,
                std::uint64_t* words) noexcept {
  const double r2 = ball.radius * ball.radius;
  const V2d r22{r2, r2};
  std::array<double, kScanBlock> d2;
  block_distances(table, cols, ball.center, begin, n, d2.data());
  for (std::size_t j = 0; j * 64 < n; ++j) {
    const double* dw = d2.data() + 64 * j;
    words[j] = word_of(
        std::min<std::size_t>(64, n - 64 * j),
        [&](std::size_t i) { return lanes(load2(dw + i) <= r22); },
        [&](std::size_t i) { return dw[i] <= r2; });
  }
}

std::size_t ids_of(const std::uint64_t* words, std::size_t nwords,
                   std::uint32_t first, std::uint32_t* ids) noexcept {
  std::size_t n = 0;
  for (std::size_t j = 0; j < nwords; ++j) {
    const auto base = static_cast<std::uint32_t>(first + 64 * j);
    for (std::uint64_t w = words[j]; w != 0; w &= w - 1)
      ids[n++] = base + static_cast<std::uint32_t>(std::countr_zero(w));
  }
  return n;
}

}  // namespace detail

std::size_t count_range(const Table& table, std::span<const std::size_t> cols,
                        const Rect& rect) {
  if (rect.dims() != cols.size())
    throw std::invalid_argument("count_range: dims mismatch");
  const std::size_t rows = table.num_rows();
  if (cols.empty()) return rows;  // empty subspace: every row qualifies
  std::array<V2u, kScanBlock / 2> masks;
  std::size_t count = 0;
  for (std::size_t begin = 0; begin < rows; begin += kScanBlock) {
    const std::size_t n = std::min(rows - begin, kScanBlock);
    V2u lane_count{0, 0};
    for (std::size_t d = 0; d < cols.size(); ++d) {
      const double* cd = table.column(cols[d]).data() + begin;
      lane_count =
          d == 0 ? range_lanes<true>(masks.data(), cd, rect.lo[d],
                                     rect.hi[d], n / 2)
                 : range_lanes<false>(masks.data(), cd, rect.lo[d],
                                      rect.hi[d], n / 2);
      if ((lane_count[0] | lane_count[1]) == 0) break;  // no survivors
    }
    count += lane_count[0] + lane_count[1];
    if (n & 1) {  // the ragged last row
      bool in = true;
      for (std::size_t d = 0; d < cols.size(); ++d) {
        const double v = table.column(cols[d])[begin + n - 1];
        in = in && v >= rect.lo[d] && v <= rect.hi[d];
      }
      count += in;
    }
  }
  return count;
}

std::size_t count_ball(const Table& table, std::span<const std::size_t> cols,
                       const Ball& ball) {
  if (ball.dims() != cols.size())
    throw std::invalid_argument("count_ball: dims mismatch");
  const double r2 = ball.radius * ball.radius;
  const V2d r22{r2, r2};
  std::array<double, kScanBlock> d2;
  std::size_t count = 0;
  for (std::size_t begin = 0; begin < table.num_rows(); begin += kScanBlock) {
    const std::size_t n = std::min(table.num_rows() - begin, kScanBlock);
    block_distances(table, cols, ball.center, begin, n, d2.data());
    V2u lane_count{0, 0};
#pragma GCC unroll 4
    for (std::size_t i = 0; i + 2 <= n; i += 2)
      lane_count -= lanes(load2(d2.data() + i) <= r22);
    count += lane_count[0] + lane_count[1];
    if (n & 1) count += d2[n - 1] <= r2;  // the ragged last row
  }
  return count;
}

void nearest_rows(const Table& table, std::span<const std::size_t> cols,
                  std::span<const double> center, std::size_t k,
                  std::vector<NearRow>& out) {
  if (center.size() != cols.size())
    throw std::invalid_argument("nearest_rows: dims mismatch");
  out.clear();
  const std::size_t rows = table.num_rows();
  const std::size_t take = std::min(k, rows);
  if (take == 0) return;
  // `out` is a survivor buffer of at most `cap` rows, holding every row
  // seen so far that can still be among the final `take`. A row is kept
  // only with distance_rank < `worst`: at least `take` kept rows have a
  // smaller rank, or the same rank and a smaller row (rows arrive
  // ascending), so a row at or past `worst` is farther than all of them.
  // Every d2 is +0.0 or more, or NaN, so `d2 <= bound` holds for every
  // row under `worst`: the vector filter passes those rows, and only they
  // take the exact test.
  const std::size_t cap = std::min(2 * take + 64, rows);
  out.reserve(cap);
  constexpr std::uint64_t kInfRank =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  std::uint64_t worst = 0;
  double bound = 0.0;
  const auto set_worst = [&](std::uint64_t w) {
    worst = w;
    bound = w > kInfRank ? std::numeric_limits<double>::infinity()
                         : std::bit_cast<double>(w);
  };
  // A cut keeps the `take` nearest; the farthest of them sets `worst`.
  const auto cut = [&] {
    select_nth(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(take - 1),
               out.end(), nearer);
    out.resize(take);
    set_worst(distance_rank(out.back().d2));
  };
  std::array<double, kScanBlock> d2;
  bool filling = true;
  for (std::size_t begin = 0; begin < rows; begin += kScanBlock) {
    const std::size_t n = std::min(rows - begin, kScanBlock);
    block_distances(table, cols, center, begin, n, d2.data());
    const auto first = static_cast<std::uint32_t>(begin);
    std::size_t i = 0;
    if (filling) {
      // The first block bounds its own `take`-th rank, so the scan never
      // runs unfiltered; when it cannot (too few rows, or that rank is a
      // NaN's), the first `take` rows are kept as they come.
      const std::uint64_t edge = begin == 0 && take <= n
                                     ? rank_edge(d2.data(), n, take)
                                     : ~std::uint64_t{0};
      if (edge != ~std::uint64_t{0}) {
        set_worst(edge + 1);
      } else {
        for (; i < n && out.size() < take; ++i)
          out.push_back({d2[i], first + static_cast<std::uint32_t>(i)});
        if (out.size() < take) continue;
        cut();
      }
      filling = false;
    }
    for (; i < n; i += 64) {
      const double* dw = d2.data() + i;
      const V2d bound2{bound, bound};
      for (std::uint64_t w = word_of(
               std::min<std::size_t>(64, n - i),
               [&](std::size_t j) { return lanes(load2(dw + j) <= bound2); },
               [&](std::size_t j) { return dw[j] <= bound; });
           w != 0; w &= w - 1) {
        const std::size_t j = i + static_cast<std::size_t>(std::countr_zero(w));
        if (distance_rank(d2[j]) >= worst) continue;
        out.push_back({d2[j], first + static_cast<std::uint32_t>(j)});
        if (out.size() == cap) cut();
      }
    }
  }
  if (out.size() > take) cut();
  std::sort(out.begin(), out.end(), nearer);
}

}  // namespace sea
