#include "index/grid.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "common/primitives.h"
#include "data/columnar.h"

namespace sea {

GridIndex::GridIndex(std::vector<Point> points, Rect domain,
                     std::size_t cells_per_dim, CellPlacement placement,
                     std::vector<std::uint64_t> ids)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      domain_(std::move(domain)),
      cells_per_dim_(cells_per_dim),
      placement_(placement) {
  if (!domain_.valid() || domain_.dims() == 0)
    throw std::invalid_argument("GridIndex: invalid domain");
  if (cells_per_dim_ == 0)
    throw std::invalid_argument("GridIndex: cells_per_dim must be > 0");
  // Guard against overflow of the flattened cell table.
  double total = 1.0;
  for (std::size_t d = 0; d < domain_.dims(); ++d) {
    total *= static_cast<double>(cells_per_dim_);
    if (total > 1e8)
      throw std::invalid_argument("GridIndex: too many cells; reduce "
                                  "cells_per_dim or dimensionality");
  }
  if (ids_.empty()) {
    ids_.resize(points_.size());
    std::iota(ids_.begin(), ids_.end(), 0);
  }
  if (ids_.size() != points_.size())
    throw std::invalid_argument("GridIndex: ids/points size mismatch");
  const std::size_t n = points_.size();
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (points_[i].size() != domain_.dims())
        throw std::invalid_argument("GridIndex: point dimensionality mismatch");
  });
  if (placement_ == CellPlacement::kLearned) {
    // One CDF per axis, learned from the points themselves (not the
    // domain).
    cdfs_.resize(domain_.dims());
    std::vector<double> col(n);
    for (std::size_t d = 0; d < domain_.dims(); ++d) {
      ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) col[i] = points_[i][d];
      });
      cdfs_[d] = LearnedCdf(col, std::min<std::size_t>(64, cells_per_dim_ * 4));
    }
  }
  // Compute cell assignments in parallel (each point owns its slot), then
  // build the CSR cell table with a stable parallel counting sort: each
  // cell's point-index run is ascending — exactly the order the old
  // per-cell push_back loop produced — with one flat array instead of a
  // vector-of-vectors (one allocation, contiguous query scans).
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

std::size_t GridIndex::cell_coord(double v, std::size_t dim) const noexcept {
  double x = 0.0;
  if (placement_ == CellPlacement::kLearned) {
    x = cdfs_[dim](v) * static_cast<double>(cells_per_dim_);
  } else {
    const double lo = domain_.lo[dim];
    const double width =
        (domain_.hi[dim] - lo) / static_cast<double>(cells_per_dim_);
    if (!(width > 0.0)) return 0;
    x = (v - lo) / width;
  }
  // floor, clamped into [0, cells_per_dim_ - 1]; a NaN (a NaN value or
  // domain, or the CDF's interpolation over infinite knots) lands in cell
  // 0 and +-inf clamp, with no out-of-range conversion.
  if (!(x >= 1.0)) return 0;
  if (x >= static_cast<double>(cells_per_dim_)) return cells_per_dim_ - 1;
  return static_cast<std::size_t>(x);
}

std::size_t GridIndex::cell_of(std::span<const double> p) const noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < domain_.dims(); ++d)
    idx = idx * cells_per_dim_ + cell_coord(p[d], d);
  return idx;
}

std::size_t GridIndex::flatten(
    std::span<const std::size_t> coords) const noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < coords.size(); ++d)
    idx = idx * cells_per_dim_ + coords[d];
  return idx;
}

std::vector<std::uint64_t> GridIndex::range_query(const Rect& rect,
                                                  GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  visit_range(rect, [&](std::uint64_t id) { out.push_back(id); }, cost);
  return out;
}

std::vector<std::uint64_t> GridIndex::radius_query(const Ball& ball,
                                                   GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  visit_radius(ball, [&](std::uint64_t id) { out.push_back(id); }, cost);
  return out;
}

std::vector<std::pair<std::uint64_t, double>> GridIndex::knn(
    std::span<const double> query, std::size_t k, GridQueryCost* cost) const {
  std::vector<std::pair<std::uint64_t, double>> result;
  if (points_.empty() || k == 0) return result;
  if (query.size() != dims())
    throw std::invalid_argument("GridIndex::knn: dims");

  // Expand a growing ball until it certainly contains k points: start with
  // the width of one cell, double the radius each round. A uniform cell is
  // as wide as the domain allows; a learned one is as wide as the inverse
  // CDF makes the query's own cell (wide where the data is sparse, narrow
  // where it is dense).
  double cell_width = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const auto cells = static_cast<double>(cells_per_dim_);
    double w = 0.0;
    if (placement_ == CellPlacement::kLearned) {
      const auto c = static_cast<double>(cell_coord(query[d], d));
      w = cdfs_[d].inverse((c + 1.0) / cells) - cdfs_[d].inverse(c / cells);
    } else {
      w = (domain_.hi[d] - domain_.lo[d]) / cells;
    }
    cell_width = std::max(cell_width, w);
  }
  double radius = std::max(cell_width, 1e-9);
  // A ball of max_radius around the query covers the whole domain box even
  // when the query lies outside it (per-dim distance to the farther face);
  // the domain diagonal alone under-covers exactly those queries, and a
  // degenerate lo==hi domain would stop the expansion at radius ~0.
  double far2 = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const double w = std::max(std::abs(query[d] - domain_.lo[d]),
                              std::abs(query[d] - domain_.hi[d]));
    far2 += w * w;
  }
  const double max_radius = std::sqrt(far2) + std::max(cell_width, 1e-9);

  // Candidates as (squared distance, id), ranked by (distance_rank, id).
  using Cand = std::pair<double, std::uint64_t>;
  std::vector<Cand> ranked;
  for (;;) {
    const Ball ball{Point(query.begin(), query.end()), radius};
    const double r2 = radius * radius;
    ranked.clear();
    scan_box(ball.bounding_box(), cost, [&](std::uint32_t i) {
      const double d2 = squared_distance(ball.center, points_[i]);
      if (d2 <= r2) ranked.emplace_back(d2, ids_[i]);
    });
    // A NaN query coordinate makes max_radius NaN: exhausted at once.
    const bool exhausted = !(radius < max_radius);
    if (ranked.size() >= k || exhausted) {
      if (exhausted && ranked.size() < k) {
        // The covering ball still found < k points: only possible when
        // points were clamped into border cells from outside the domain
        // (their true distance exceeds any in-domain bound), carry a NaN
        // coordinate, or k exceeds the in-ball population. Fall back to an
        // exact scan of every point so the answer matches the tree's.
        ranked.clear();
        ranked.reserve(points_.size());
        for (std::size_t i = 0; i < points_.size(); ++i)
          ranked.emplace_back(squared_distance(query, points_[i]), ids_[i]);
        if (cost) cost->points_examined += points_.size();
      }
      // If k candidates lie within radius r, the true k nearest all lie
      // within r too, so they are among the candidates.
      const std::size_t take = std::min(k, ranked.size());
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<std::ptrdiff_t>(take),
                        ranked.end(), [](const Cand& a, const Cand& b) {
                          const auto ra = distance_rank(a.first);
                          const auto rb = distance_rank(b.first);
                          return ra != rb ? ra < rb : a.second < b.second;
                        });
      result.reserve(take);
      for (std::size_t i = 0; i < take; ++i)
        result.emplace_back(ranked[i].second, std::sqrt(ranked[i].first));
      return result;
    }
    radius *= 2.0;
  }
}

}  // namespace sea
