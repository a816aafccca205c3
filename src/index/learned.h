// Learned spatial grid (paper E4/E6 "statistical indexes", pushed to the
// modern learned-index form — LiLIS, see PAPERS.md).
//
// LearnedGrid learns the per-dimension CDF (piecewise-linear over sampled
// quantiles) and places cell boundaries at equal CDF mass, so skewed data
// gets balanced cells where a uniform grid degenerates. It is *exact by
// construction*: same query API and answers as GridIndex; only the cell
// placement — and therefore the cost — differs. The differential harness in
// tests/test_learned_index.cpp enforces exactly that contract.
//
// The build runs on the shared pool (ParallelChunks / par::counting_sort)
// and is bit-identical at SEA_THREADS 1 vs 8: every model parameter and
// every array is a pure function of the input.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/point.h"
#include "data/table.h"
#include "index/grid.h"

namespace sea {

// ---------------------------------------------------------------------------
// LearnedGrid — CDF-learned spatial grid (GridIndex's query API).
// ---------------------------------------------------------------------------

/// Piecewise-linear CDF of one dimension, learned from a deterministic
/// stride sample: knots at equally spaced sample quantiles, linear
/// interpolation between them. Monotone non-decreasing by construction —
/// the property that keeps rectangle queries sound on the learned grid.
class LearnedCdf {
 public:
  LearnedCdf() = default;
  /// Learns from `values` (unsorted); `knots` interior intervals.
  LearnedCdf(std::span<const double> values, std::size_t knots);

  /// Monotone map value -> [0, 1].
  double operator()(double v) const noexcept;
  /// Approximate inverse: value at CDF mass u in [0, 1].
  double inverse(double u) const noexcept;

  std::size_t num_knots() const noexcept { return knots_.size(); }
  std::size_t byte_size() const noexcept {
    return knots_.size() * sizeof(double) + sizeof(*this);
  }

 private:
  std::vector<double> knots_;  ///< ascending quantile values (K+1 entries)
};

/// Grid index whose cell boundaries sit at equal learned-CDF mass per
/// dimension instead of equal width: skewed blobs spread over many cells,
/// empty space collapses. Query semantics (and answers) match GridIndex;
/// only the cell placement — and therefore the cost — differs.
class LearnedGrid {
 public:
  LearnedGrid() = default;

  /// Builds over `points` within `domain` with `cells_per_dim` cells per
  /// axis placed at learned CDF quantiles. Points outside the domain are
  /// clamped into border cells, like GridIndex.
  LearnedGrid(std::vector<Point> points, Rect domain,
              std::size_t cells_per_dim, std::vector<std::uint64_t> ids = {});

  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }
  std::size_t dims() const noexcept { return domain_.dims(); }
  std::size_t cells_per_dim() const noexcept { return cells_per_dim_; }
  std::size_t num_cells() const noexcept {
    return cell_offsets_.empty() ? 0 : cell_offsets_.size() - 1;
  }

  std::vector<std::uint64_t> range_query(const Rect& rect,
                                         GridQueryCost* cost = nullptr) const;
  std::vector<std::uint64_t> radius_query(const Ball& ball,
                                          GridQueryCost* cost = nullptr) const;
  std::vector<std::pair<std::uint64_t, double>> knn(
      std::span<const double> query, std::size_t k,
      GridQueryCost* cost = nullptr) const;

  /// CSR cell table (property suite: counts must sum to size()).
  std::span<const std::uint32_t> cell_offsets() const noexcept {
    return cell_offsets_;
  }
  const LearnedCdf& cdf(std::size_t dim) const { return cdfs_.at(dim); }

  std::size_t byte_size() const noexcept {
    std::size_t b = points_.size() * (dims() * sizeof(double)) +
                    ids_.size() * sizeof(std::uint64_t) +
                    (cell_offsets_.size() + cell_points_.size()) *
                        sizeof(std::uint32_t);
    for (const auto& c : cdfs_) b += c.byte_size();
    return b;
  }

 private:
  std::size_t cell_coord(double v, std::size_t dim) const noexcept;
  std::size_t cell_of(std::span<const double> p) const noexcept;
  std::vector<std::pair<double, std::uint64_t>> radius_candidates(
      const Ball& ball, GridQueryCost* cost) const;
  std::span<const std::uint32_t> cell(std::size_t idx) const noexcept {
    return std::span<const std::uint32_t>(cell_points_)
        .subspan(cell_offsets_[idx],
                 cell_offsets_[idx + 1] - cell_offsets_[idx]);
  }

  std::vector<Point> points_;
  std::vector<std::uint64_t> ids_;
  Rect domain_;
  std::size_t cells_per_dim_ = 0;
  std::vector<LearnedCdf> cdfs_;  ///< one per dimension
  std::vector<std::uint32_t> cell_offsets_;
  std::vector<std::uint32_t> cell_points_;
};

// ---------------------------------------------------------------------------
// Modelled costs — what the E6 planner consults to learn when *not* to use
// the learned tier (ROADMAP item 1).
// ---------------------------------------------------------------------------

/// Coarse modelled build / per-query lookup / resident-memory estimates
/// for one access structure over `rows` points in `dims` dimensions at an
/// estimated query selectivity. Units match the modelled-ms currency of
/// ExecReport (hardware-independent by design); bytes are literal. The
/// adaptive executor feeds these to the selector as features — priors the
/// online cost models correct from observed reality.
struct IndexCostEstimate {
  double build_ms = 0.0;
  double lookup_ms = 0.0;
  double memory_bytes = 0.0;
};

IndexCostEstimate modelled_kdtree_cost(std::size_t rows, std::size_t dims,
                                       double est_selectivity) noexcept;
IndexCostEstimate modelled_grid_cost(std::size_t rows, std::size_t dims,
                                     double est_selectivity) noexcept;
IndexCostEstimate modelled_learned_grid_cost(std::size_t rows,
                                             std::size_t dims,
                                             double est_selectivity) noexcept;

}  // namespace sea
