// Learned models of the access structures (paper E4/E6 "statistical
// indexes", pushed to the modern learned-index form — LiLIS, see
// PAPERS.md).
//
// LearnedCdf is the per-dimension CDF (piecewise-linear over sampled
// quantiles) behind GridIndex's learned cell placement (index/grid.h):
// cell boundaries at equal CDF mass, so skewed data gets balanced cells
// where a uniform grid degenerates. The modelled costs are the priors the
// E6 planner starts from when it picks an access structure.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sea {

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
