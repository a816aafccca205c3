#include "index/grid.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "common/parallel.h"
#include "common/primitives.h"
#include "index/cell_iter.h"

namespace sea {

GridIndex::GridIndex(std::vector<Point> points, Rect domain,
                     std::size_t cells_per_dim, std::vector<std::uint64_t> ids)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      domain_(std::move(domain)),
      cells_per_dim_(cells_per_dim) {
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
  // Compute cell assignments in parallel (each point owns its slot), then
  // build the CSR cell table with a stable parallel counting sort: each
  // cell's point-index run is ascending — exactly the order the old
  // per-cell push_back loop produced — with one flat array instead of a
  // vector-of-vectors (one allocation, contiguous query scans).
  std::vector<std::uint32_t> cell_idx(points_.size());
  ParallelChunks(points_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (points_[i].size() != domain_.dims())
        throw std::invalid_argument("GridIndex: point dimensionality mismatch");
      cell_idx[i] = static_cast<std::uint32_t>(cell_of(points_[i]));
    }
  });
  par::CountingSort cs =
      par::counting_sort(cell_idx, static_cast<std::size_t>(total));
  cell_offsets_ = std::move(cs.offsets);
  cell_points_ = std::move(cs.order);
}

std::size_t GridIndex::cell_coord(double v, std::size_t dim) const noexcept {
  const double lo = domain_.lo[dim];
  const double hi = domain_.hi[dim];
  const double width = (hi - lo) / static_cast<double>(cells_per_dim_);
  if (!(width > 0.0)) return 0;
  // floor, clamped into [0, cells_per_dim_ - 1]; a NaN (or a NaN domain)
  // lands in cell 0 and +-inf clamp, with no out-of-range conversion.
  const double raw = (v - lo) / width;
  if (!(raw >= 1.0)) return 0;
  if (raw >= static_cast<double>(cells_per_dim_)) return cells_per_dim_ - 1;
  return static_cast<std::size_t>(raw);
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

using detail::CoordIterator;

std::vector<std::uint64_t> GridIndex::range_query(const Rect& rect,
                                                  GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  if (points_.empty()) return out;
  if (rect.dims() != dims())
    throw std::invalid_argument("GridIndex::range_query: dims");
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(rect.lo[d], d);
    hi[d] = cell_coord(rect.hi[d], d);
  }
  for (CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten(it.coords()));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      if (rect.contains(points_[i])) out.push_back(ids_[i]);
    }
  }
  return out;
}

std::vector<std::uint64_t> GridIndex::radius_query(const Ball& ball,
                                                   GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  if (points_.empty()) return out;
  if (ball.dims() != dims())
    throw std::invalid_argument("GridIndex::radius_query: dims");
  const Rect box = ball.bounding_box();
  const double r2 = ball.radius * ball.radius;
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(box.lo[d], d);
    hi[d] = cell_coord(box.hi[d], d);
  }
  for (CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten(it.coords()));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      if (squared_distance(ball.center, points_[i]) <= r2)
        out.push_back(ids_[i]);
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, double>> GridIndex::knn(
    std::span<const double> query, std::size_t k, GridQueryCost* cost) const {
  std::vector<std::pair<std::uint64_t, double>> result;
  if (points_.empty() || k == 0) return result;
  if (query.size() != dims())
    throw std::invalid_argument("GridIndex::knn: dims");

  // Expand a growing ball until it certainly contains k points: start with
  // the width of one cell, double the radius each round.
  double cell_width = 0.0;
  for (std::size_t d = 0; d < dims(); ++d)
    cell_width = std::max(
        cell_width, (domain_.hi[d] - domain_.lo[d]) /
                        static_cast<double>(cells_per_dim_));
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

  for (;;) {
    const Ball ball{Point(query.begin(), query.end()), radius};
    auto ranked = radius_candidates(ball, cost);
    const bool exhausted = radius >= max_radius;
    if (ranked.size() >= k || exhausted) {
      if (exhausted && ranked.size() < k) {
        // The covering ball still found < k points: only possible when
        // points were clamped into border cells from outside the domain
        // (their true distance exceeds any in-domain bound) or k exceeds
        // the in-ball population. Fall back to an exact scan of every
        // point so the answer matches the tree's.
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
                        ranked.end());
      result.reserve(take);
      for (std::size_t i = 0; i < take; ++i)
        result.emplace_back(ranked[i].second, std::sqrt(ranked[i].first));
      return result;
    }
    radius *= 2.0;
  }
}

std::vector<std::pair<double, std::uint64_t>> GridIndex::radius_candidates(
    const Ball& ball, GridQueryCost* cost) const {
  std::vector<std::pair<double, std::uint64_t>> out;
  const Rect box = ball.bounding_box();
  const double r2 = ball.radius * ball.radius;
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(box.lo[d], d);
    hi[d] = cell_coord(box.hi[d], d);
  }
  for (CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten(it.coords()));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      const double d2 = squared_distance(ball.center, points_[i]);
      if (d2 <= r2) out.emplace_back(d2, ids_[i]);
    }
  }
  return out;
}

}  // namespace sea
