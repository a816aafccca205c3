// Grid index over a bounded multi-dimensional domain, with one of two cell
// placements.
//
// The alternative access structure to the k-d tree (paper RT3.1 asks the
// optimizer to pick between such alternatives). Cheap to build and very
// fast for low dimensionality / large selectivities; degrades in high
// dimensions — exactly the trade-off the method-selection experiments (E6)
// exercise.
//
// Placement: kUniform cuts every axis into equal widths of the domain;
// kLearned (the LiLIS-style learned grid, see PAPERS.md) learns each axis'
// CDF from the points (index/learned.h) and cuts it at equal CDF mass, so
// skewed blobs spread over many cells and empty space collapses. The
// placement decides only which cell a value falls in and kNN's starting
// radius; the queries, and so their answers, are the same code. Both
// builds are bit-identical at any SEA_THREADS.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "data/point.h"
#include "index/cell_iter.h"
#include "index/learned.h"

namespace sea {

struct GridQueryCost {
  std::uint64_t cells_visited = 0;
  std::uint64_t points_examined = 0;
};

enum class CellPlacement {
  kUniform,  ///< equal-width cells over the domain
  kLearned,  ///< cells at equal learned-CDF mass of the points
};

class GridIndex {
 public:
  GridIndex() = default;

  /// Builds over `points` within `domain`, with `cells_per_dim` cells along
  /// each axis placed by `placement`. Points outside the domain are
  /// clamped into border cells.
  GridIndex(std::vector<Point> points, Rect domain, std::size_t cells_per_dim,
            CellPlacement placement = CellPlacement::kUniform,
            std::vector<std::uint64_t> ids = {});

  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }
  std::size_t dims() const noexcept { return domain_.dims(); }
  std::size_t cells_per_dim() const noexcept { return cells_per_dim_; }
  std::size_t num_cells() const noexcept {
    return cell_offsets_.empty() ? 0 : cell_offsets_.size() - 1;
  }
  CellPlacement placement() const noexcept { return placement_; }

  /// Calls `fold(id)` for every point inside the closed rectangle: the
  /// covered cells in row-major order (last dimension fastest), each
  /// cell's points ascending. Every point of a covered cell is charged to
  /// `cost`.
  template <typename Fold>
  void visit_range(const Rect& rect, Fold&& fold,
                   GridQueryCost* cost = nullptr) const {
    if (empty()) return;
    if (rect.dims() != dims())
      throw std::invalid_argument("GridIndex::visit_range: dims");
    scan_box(rect, cost, [&](std::uint32_t i) {
      if (rect.contains(points_[i])) fold(ids_[i]);
    });
  }

  /// As visit_range, for the points inside the closed ball.
  template <typename Fold>
  void visit_radius(const Ball& ball, Fold&& fold,
                    GridQueryCost* cost = nullptr) const {
    if (empty()) return;
    if (ball.dims() != dims())
      throw std::invalid_argument("GridIndex::visit_radius: dims");
    const double r2 = ball.radius * ball.radius;
    scan_box(ball.bounding_box(), cost, [&](std::uint32_t i) {
      if (squared_distance(ball.center, points_[i]) <= r2) fold(ids_[i]);
    });
  }

  /// Ids of all points inside the rectangle, in visit order.
  std::vector<std::uint64_t> range_query(const Rect& rect,
                                         GridQueryCost* cost = nullptr) const;

  /// Ids of all points inside the ball, in visit order.
  std::vector<std::uint64_t> radius_query(const Ball& ball,
                                          GridQueryCost* cost = nullptr) const;

  /// The k nearest neighbours of `query` as (id, distance), by expanding
  /// rings of cells around it: the k smallest by (distance_rank, id) —
  /// ties to the lower id, NaN distances last — ascending.
  std::vector<std::pair<std::uint64_t, double>> knn(
      std::span<const double> query, std::size_t k,
      GridQueryCost* cost = nullptr) const;

  /// CSR cell table (property suite: counts must sum to size()).
  std::span<const std::uint32_t> cell_offsets() const noexcept {
    return cell_offsets_;
  }
  /// The learned CDF of axis `dim` (kLearned placement only).
  const LearnedCdf& cdf(std::size_t dim) const { return cdfs_.at(dim); }

  /// Modelled resident footprint: points, ids, the CSR cell table and the
  /// learned CDFs.
  std::size_t byte_size() const noexcept {
    std::size_t b = points_.size() * (dims() * sizeof(double)) +
                    ids_.size() * sizeof(std::uint64_t) +
                    (cell_offsets_.size() + cell_points_.size()) *
                        sizeof(std::uint32_t);
    for (const auto& c : cdfs_) b += c.byte_size();
    return b;
  }

 private:
  /// Calls `test(i)` for the index of every point in the cells `box`
  /// covers, in visit order, charging the cells and points to `cost`.
  template <typename Test>
  void scan_box(const Rect& box, GridQueryCost* cost, Test&& test) const {
    std::vector<std::size_t> lo(dims()), hi(dims());
    for (std::size_t d = 0; d < dims(); ++d) {
      lo[d] = cell_coord(box.lo[d], d);
      hi[d] = cell_coord(box.hi[d], d);
    }
    for (detail::CoordIterator it(lo, hi); !it.done(); it.advance()) {
      const auto cell_pts = cell(flatten(it.coords()));
      if (cost) {
        ++cost->cells_visited;
        cost->points_examined += cell_pts.size();
      }
      for (const std::uint32_t i : cell_pts) test(i);
    }
  }
  /// The cell of value `v` along axis `dim`, in [0, cells_per_dim_): the
  /// one place the placement decides.
  std::size_t cell_coord(double v, std::size_t dim) const noexcept;
  std::size_t cell_of(std::span<const double> p) const noexcept;
  /// Flattens per-dim coordinates into a cell index.
  std::size_t flatten(std::span<const std::size_t> coords) const noexcept;
  /// Point indices of one cell (ascending — the serial insertion order).
  std::span<const std::uint32_t> cell(std::size_t idx) const noexcept {
    return std::span<const std::uint32_t>(cell_points_)
        .subspan(cell_offsets_[idx], cell_offsets_[idx + 1] - cell_offsets_[idx]);
  }

  std::vector<Point> points_;
  std::vector<std::uint64_t> ids_;
  Rect domain_;
  std::size_t cells_per_dim_ = 0;
  CellPlacement placement_ = CellPlacement::kUniform;
  std::vector<LearnedCdf> cdfs_;  ///< one per axis; kLearned only
  /// CSR cell table (built by a stable parallel counting sort): cell c's
  /// point indices are cell_points_[cell_offsets_[c] .. cell_offsets_[c+1]).
  std::vector<std::uint32_t> cell_offsets_;
  std::vector<std::uint32_t> cell_points_;
};

}  // namespace sea
