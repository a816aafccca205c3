#include "index/learned.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.h"
#include "common/primitives.h"
#include "index/cell_iter.h"

namespace sea {

// ---------------------------------------------------------------------------
// LearnedCdf
// ---------------------------------------------------------------------------

LearnedCdf::LearnedCdf(std::span<const double> values, std::size_t knots) {
  const std::size_t n = values.size();
  if (n == 0 || knots == 0) return;
  // Deterministic stride sample (no RNG — same fixed-stride idiom as
  // sample_sort's pivots), sorted serially: the sample is small, and the
  // knots are a pure function of the input regardless of SEA_THREADS.
  // NaN values are left out of the sample: they have no rank, and sorting
  // them is undefined. operator() maps NaN to 0.
  const std::size_t cap = std::max<std::size_t>(knots * 8, 64);
  std::vector<double> sample(std::min(n, cap));
  for (std::size_t i = 0; i < sample.size(); ++i)
    sample[i] =
        values[sample.size() == 1 ? 0 : i * (n - 1) / (sample.size() - 1)];
  std::erase_if(sample, [](double v) { return std::isnan(v); });
  const std::size_t s = sample.size();
  if (s == 0) return;
  std::sort(sample.begin(), sample.end());
  const std::size_t k = std::min(knots, s > 1 ? s - 1 : std::size_t{1});
  knots_.resize(k + 1);
  for (std::size_t j = 0; j <= k; ++j)
    knots_[j] = sample[s == 1 ? 0 : j * (s - 1) / k];
}

double LearnedCdf::operator()(double v) const noexcept {
  if (knots_.size() < 2) return 0.0;
  if (!(v > knots_.front())) return 0.0;
  if (v >= knots_.back()) return 1.0;
  const std::size_t k = knots_.size() - 1;
  const auto it = std::upper_bound(knots_.begin(), knots_.end(), v);
  const auto j = static_cast<std::size_t>(it - knots_.begin()) - 1;
  // knots_[j] <= v < knots_[j+1] and the bracket is strict, so the
  // interpolation denominator is positive; the map stays monotone across
  // duplicate knots (mass jumps, as a CDF should).
  const double t = (v - knots_[j]) / (knots_[j + 1] - knots_[j]);
  return (static_cast<double>(j) + t) / static_cast<double>(k);
}

double LearnedCdf::inverse(double u) const noexcept {
  if (knots_.empty()) return 0.0;
  if (knots_.size() < 2) return knots_.front();
  const std::size_t k = knots_.size() - 1;
  const double x = std::clamp(u, 0.0, 1.0) * static_cast<double>(k);
  const auto j = std::min(static_cast<std::size_t>(x), k - 1);
  const double t = x - static_cast<double>(j);
  return knots_[j] + t * (knots_[j + 1] - knots_[j]);
}

// ---------------------------------------------------------------------------
// LearnedGrid
// ---------------------------------------------------------------------------

LearnedGrid::LearnedGrid(std::vector<Point> points, Rect domain,
                         std::size_t cells_per_dim,
                         std::vector<std::uint64_t> ids)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      domain_(std::move(domain)),
      cells_per_dim_(cells_per_dim) {
  if (!domain_.valid() || domain_.dims() == 0)
    throw std::invalid_argument("LearnedGrid: invalid domain");
  if (cells_per_dim_ == 0)
    throw std::invalid_argument("LearnedGrid: cells_per_dim must be > 0");
  double total = 1.0;
  for (std::size_t d = 0; d < domain_.dims(); ++d) {
    total *= static_cast<double>(cells_per_dim_);
    if (total > 1e8)
      throw std::invalid_argument("LearnedGrid: too many cells; reduce "
                                  "cells_per_dim or dimensionality");
  }
  if (ids_.empty()) {
    ids_.resize(points_.size());
    std::iota(ids_.begin(), ids_.end(), 0);
  }
  if (ids_.size() != points_.size())
    throw std::invalid_argument("LearnedGrid: ids/points size mismatch");
  const std::size_t n = points_.size();
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (points_[i].size() != domain_.dims())
        throw std::invalid_argument(
            "LearnedGrid: point dimensionality mismatch");
  });

  // Learn one CDF per dimension from the data itself (not the domain):
  // cell boundaries land at equal learned mass, so skewed blobs spread
  // over many cells and empty space collapses into few.
  cdfs_.resize(domain_.dims());
  std::vector<double> col(n);
  for (std::size_t d = 0; d < domain_.dims(); ++d) {
    ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) col[i] = points_[i][d];
    });
    cdfs_[d] = LearnedCdf(col, std::min<std::size_t>(64, cells_per_dim_ * 4));
  }

  // CSR cell table via the stable parallel counting sort, exactly like
  // GridIndex — bit-identical at any SEA_THREADS.
  std::vector<std::uint32_t> cell_idx(n);
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      cell_idx[i] = static_cast<std::uint32_t>(cell_of(points_[i]));
  });
  par::CountingSort cs =
      par::counting_sort(cell_idx, static_cast<std::size_t>(total));
  cell_offsets_ = std::move(cs.offsets);
  cell_points_ = std::move(cs.order);
}

std::size_t LearnedGrid::cell_coord(double v, std::size_t dim) const noexcept {
  // The CDF maps NaN to 0; a NaN from its interpolation (infinite knots)
  // lands in cell 0 too, with no out-of-range conversion.
  const double x = cdfs_[dim](v) * static_cast<double>(cells_per_dim_);
  if (!(x >= 1.0)) return 0;
  if (x >= static_cast<double>(cells_per_dim_)) return cells_per_dim_ - 1;
  return static_cast<std::size_t>(x);
}

std::size_t LearnedGrid::cell_of(std::span<const double> p) const noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < domain_.dims(); ++d)
    idx = idx * cells_per_dim_ + cell_coord(p[d], d);
  return idx;
}

namespace {

std::size_t flatten_coords(std::span<const std::size_t> coords,
                           std::size_t cells_per_dim) noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < coords.size(); ++d)
    idx = idx * cells_per_dim + coords[d];
  return idx;
}

}  // namespace

std::vector<std::uint64_t> LearnedGrid::range_query(
    const Rect& rect, GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  if (points_.empty()) return out;
  if (rect.dims() != dims())
    throw std::invalid_argument("LearnedGrid::range_query: dims");
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(rect.lo[d], d);
    hi[d] = cell_coord(rect.hi[d], d);
  }
  for (detail::CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten_coords(it.coords(), cells_per_dim_));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      if (rect.contains(points_[i])) out.push_back(ids_[i]);
    }
  }
  return out;
}

std::vector<std::uint64_t> LearnedGrid::radius_query(
    const Ball& ball, GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  if (points_.empty()) return out;
  if (ball.dims() != dims())
    throw std::invalid_argument("LearnedGrid::radius_query: dims");
  for (const auto& cand : radius_candidates(ball, cost))
    out.push_back(cand.second);
  return out;
}

std::vector<std::pair<double, std::uint64_t>> LearnedGrid::radius_candidates(
    const Ball& ball, GridQueryCost* cost) const {
  std::vector<std::pair<double, std::uint64_t>> out;
  const Rect box = ball.bounding_box();
  const double r2 = ball.radius * ball.radius;
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(box.lo[d], d);
    hi[d] = cell_coord(box.hi[d], d);
  }
  for (detail::CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten_coords(it.coords(), cells_per_dim_));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      const double d2 = squared_distance(ball.center, points_[i]);
      if (d2 <= r2) out.emplace_back(d2, ids_[i]);
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, double>> LearnedGrid::knn(
    std::span<const double> query, std::size_t k, GridQueryCost* cost) const {
  std::vector<std::pair<std::uint64_t, double>> result;
  if (points_.empty() || k == 0) return result;
  if (query.size() != dims())
    throw std::invalid_argument("LearnedGrid::knn: dims");

  // Initial radius ~ the learned width of the query's own cell (the
  // inverse CDF stretches where data is sparse and shrinks where it is
  // dense — the adaptive-placement payoff).
  double cell_width = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const std::size_t c = cell_coord(query[d], d);
    const double w =
        cdfs_[d].inverse(static_cast<double>(c + 1) /
                         static_cast<double>(cells_per_dim_)) -
        cdfs_[d].inverse(static_cast<double>(c) /
                         static_cast<double>(cells_per_dim_));
    cell_width = std::max(cell_width, w);
  }
  double radius = std::max(cell_width, 1e-9);
  // A ball of max_radius around the query covers the whole domain (even
  // when the query sits far outside it); the final fallback below covers
  // clamped outlier points the domain box never contained.
  double far2 = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const double w = std::max(std::abs(query[d] - domain_.lo[d]),
                              std::abs(query[d] - domain_.hi[d]));
    far2 += w * w;
  }
  const double max_radius = std::sqrt(far2) + std::max(cell_width, 1e-9);

  for (;;) {
    const Ball ball{Point(query.begin(), query.end()), radius};
    auto ranked = radius_candidates(ball, cost);
    const bool exhausted = radius >= max_radius;
    if (ranked.size() >= k || exhausted) {
      if (exhausted && ranked.size() < k) {
        // Degenerate coverage (k > points in the whole domain ball, or
        // outliers clamped into border cells): exact fallback over every
        // point, so the result matches the tree's.
        ranked.clear();
        ranked.reserve(points_.size());
        for (std::size_t i = 0; i < points_.size(); ++i)
          ranked.emplace_back(squared_distance(query, points_[i]), ids_[i]);
        if (cost) cost->points_examined += points_.size();
      }
      const std::size_t take = std::min(k, ranked.size());
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<std::ptrdiff_t>(take),
                        ranked.end());
      result.reserve(take);
      for (std::size_t i = 0; i < take; ++i)
        result.emplace_back(ranked[i].second, std::sqrt(ranked[i].first));
      return result;
    }
    radius *= 2.0;
  }
}

// ---------------------------------------------------------------------------
// Modelled costs
// ---------------------------------------------------------------------------

namespace {
// Coarse per-row constants in the modelled-ms currency (hardware-free, the
// same family of numbers as the cluster cost model): comparisons for tree
// descent, straight scans for grids, model evaluation for the learned
// tier. Priors only — the E6 selector's online GBMs correct them from
// observed cost, which is how the planner learns when *not* to use the
// learned tier (e.g. tiny tables where build amortization never pays).
constexpr double kMsPerCompare = 2e-6;
constexpr double kMsPerRowScan = 5e-7;
constexpr double kMsPerModelEval = 1e-6;
}  // namespace

IndexCostEstimate modelled_kdtree_cost(std::size_t rows, std::size_t dims,
                                       double est_selectivity) noexcept {
  IndexCostEstimate e;
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  const double logn = std::log2(n + 1.0);
  e.build_ms = kMsPerCompare * n * logn;
  e.lookup_ms = kMsPerCompare * logn + kMsPerRowScan * est_selectivity * n;
  e.memory_bytes = n * (static_cast<double>(dims) * 8.0 + 48.0);
  return e;
}

IndexCostEstimate modelled_grid_cost(std::size_t rows, std::size_t dims,
                                     double est_selectivity) noexcept {
  IndexCostEstimate e;
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  e.build_ms = kMsPerRowScan * 2.0 * n;
  // A uniform grid over-scans by the cell slop around the query box; the
  // slop grows with dimensionality (border cells per face).
  const double slop = 1.0 + 0.5 * static_cast<double>(dims);
  e.lookup_ms = kMsPerRowScan * slop * est_selectivity * n +
                kMsPerCompare * static_cast<double>(dims);
  e.memory_bytes = n * (static_cast<double>(dims) * 8.0 + 12.0);
  return e;
}

IndexCostEstimate modelled_learned_grid_cost(
    std::size_t rows, std::size_t dims, double est_selectivity) noexcept {
  IndexCostEstimate e = modelled_grid_cost(rows, dims, est_selectivity);
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  // CDF learning adds a per-row pass at build; balanced cells cut the
  // per-query scan slop but each coordinate costs a model evaluation.
  e.build_ms += kMsPerRowScan * n;
  const double slop = 1.0 + 0.25 * static_cast<double>(dims);
  e.lookup_ms = kMsPerRowScan * slop * est_selectivity * n +
                kMsPerModelEval * 2.0 * static_cast<double>(dims);
  e.memory_bytes += 65.0 * 8.0 * static_cast<double>(dims);
  return e;
}

}  // namespace sea
