// Analyst workload generation.
//
// Substitution note (DESIGN.md): we have no real analyst populations, so we
// synthesize the workload property the data-less paradigm depends on
// (paper §IV P2, citing [17]-[20], [25]): queries define *overlapping* data
// subspaces concentrated around a few interest hotspots. Hotspots are a
// mixture over the domain; each query draws a hotspot, jitters the centre,
// and draws a subspace extent. Hotspots can *drift* over time to exercise
// model maintenance (RT1.4-i / E8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/table.h"
#include "sea/query.h"

namespace sea {

struct WorkloadConfig {
  SelectionType selection = SelectionType::kRange;
  AnalyticType analytic = AnalyticType::kCount;
  std::vector<std::size_t> subspace_cols;
  std::size_t target_col = 0;
  std::size_t target_col2 = 0;

  std::size_t num_hotspots = 4;
  /// Std-dev of query centres around their hotspot, as a fraction of the
  /// domain width. Small spread = strongly overlapping subspaces.
  double hotspot_spread = 0.04;
  /// Zipf skew over hotspot popularity (0 = uniform).
  double hotspot_skew = 0.8;

  /// Relative extent ranges (fractions of domain width).
  double min_width = 0.05, max_width = 0.25;    ///< range queries
  double min_radius = 0.03, max_radius = 0.12;  ///< radius queries
  std::size_t min_k = 8, max_k = 128;           ///< kNN queries

  /// When non-empty, hotspots are drawn from these anchor points instead
  /// of uniformly — models analysts exploring where the data actually
  /// lives (pass e.g. random data rows projected to the subspace columns).
  std::vector<Point> hotspot_anchors;

  std::uint64_t seed = 42;
};

/// Draws `n` random rows of `table`, projected to `cols`, for use as
/// workload hotspot anchors.
std::vector<Point> sample_anchor_points(const Table& table,
                                        const std::vector<std::size_t>& cols,
                                        std::size_t n, std::uint64_t seed);

class QueryWorkload {
 public:
  QueryWorkload(WorkloadConfig config, Rect domain);

  /// Draws the next query.
  AnalyticalQuery next();

  /// Moves every hotspot by a random offset of magnitude `fraction` of the
  /// domain width — models analyst interest drift (RT1.4-i).
  void drift_hotspots(double fraction);

  /// Replaces all hotspots with fresh random positions (abrupt drift).
  void reset_hotspots();

  const std::vector<Point>& hotspots() const noexcept { return hotspots_; }
  const Rect& domain() const noexcept { return domain_; }

 private:
  /// Draws a query centre around a Zipf-picked hotspot into `out`.
  void draw_center(Point& out);

  WorkloadConfig config_;
  Rect domain_;
  Rng rng_;
  std::vector<Point> hotspots_;
  ZipfDistribution hotspot_pick_;
};

}  // namespace sea
