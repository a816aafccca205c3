// One-dimensional histograms and a multi-dimensional product histogram.
//
// These are the "statistical structures" of paper P3/O4: compact summaries
// kept at the coordinator that let it estimate selectivities and prune
// nodes *before* touching base data. The product histogram (attribute-
// value-independence assumption) also serves as a classic synopsis-based
// AQP baseline in E2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/point.h"

namespace sea {

/// Equi-depth histogram built from a (sorted copy of a) sample: bucket
/// boundaries hold ~equal counts, which is far more robust under skew.
class EquiDepthHistogram {
 public:
  EquiDepthHistogram() = default;

  /// Builds from `values` with ~`buckets` buckets.
  EquiDepthHistogram(std::span<const double> values, std::size_t buckets);

  std::size_t buckets() const noexcept {
    return edges_.empty() ? 0 : edges_.size() - 1;
  }
  std::uint64_t total() const noexcept { return total_; }

  double estimate_range(double a, double b) const noexcept;
  double selectivity(double a, double b) const noexcept;

  std::size_t byte_size() const noexcept {
    return edges_.size() * sizeof(double) + sizeof(std::uint64_t);
  }

 private:
  std::vector<double> edges_;  ///< buckets+1 edges; equal mass per bucket
  std::uint64_t total_ = 0;
};

/// Multi-dimensional selectivity estimator under the attribute-value-
/// independence (AVI) assumption: product of per-dimension selectivities.
class ProductHistogram {
 public:
  ProductHistogram() = default;

  /// One equi-depth histogram per column of `points`.
  ProductHistogram(std::span<const Point> points, std::size_t buckets);

  /// Columnar build: one equi-depth histogram per span of `columns`, all
  /// sharing one length. Identical to the Point overload on the same data
  /// without materializing a row-major copy.
  ProductHistogram(std::span<const std::span<const double>> columns,
                   std::size_t buckets);

  std::size_t dims() const noexcept { return dims_.size(); }
  std::uint64_t total() const noexcept { return total_; }

  /// Estimated count of points inside the rectangle.
  double estimate_count(const Rect& rect) const;

  std::size_t byte_size() const noexcept;

 private:
  std::vector<EquiDepthHistogram> dims_;
  std::uint64_t total_ = 0;
};

}  // namespace sea
