#include "index/histogram.h"

#include <algorithm>
#include <stdexcept>

#include "common/primitives.h"

namespace sea {

EquiDepthHistogram::EquiDepthHistogram(std::span<const double> values,
                                       std::size_t buckets) {
  if (buckets == 0)
    throw std::invalid_argument("EquiDepthHistogram: buckets must be > 0");
  total_ = values.size();
  if (values.empty()) return;
  std::vector<double> sorted(values.begin(), values.end());
  // Deterministic parallel sample sort; equal doubles are interchangeable,
  // so the result matches std::sort exactly.
  par::sample_sort(std::span<double>(sorted));
  buckets = std::min(buckets, sorted.size());
  edges_.reserve(buckets + 1);
  edges_.push_back(sorted.front());
  for (std::size_t b = 1; b < buckets; ++b) {
    const std::size_t pos = (b * sorted.size()) / buckets;
    const double edge = sorted[pos];
    // Skip duplicate edges caused by heavy value repetition.
    if (edge > edges_.back()) edges_.push_back(edge);
  }
  const double last = sorted.back();
  edges_.push_back(last > edges_.back()
                       ? std::nextafter(last, last + 1.0)
                       : std::nextafter(edges_.back(), edges_.back() + 1.0));
}

double EquiDepthHistogram::estimate_range(double a, double b) const noexcept {
  if (b < a || total_ == 0 || edges_.size() < 2) return 0.0;
  const double per_bucket =
      static_cast<double>(total_) / static_cast<double>(edges_.size() - 1);
  double est = 0.0;
  for (std::size_t i = 0; i + 1 < edges_.size(); ++i) {
    const double blo = edges_[i];
    const double bhi = edges_[i + 1];
    const double width = bhi - blo;
    if (width <= 0.0) continue;
    const double overlap = std::max(0.0, std::min(b, bhi) - std::max(a, blo));
    est += per_bucket * (overlap / width);
  }
  return est;
}

double EquiDepthHistogram::selectivity(double a, double b) const noexcept {
  return total_ == 0 ? 0.0
                     : estimate_range(a, b) / static_cast<double>(total_);
}

ProductHistogram::ProductHistogram(std::span<const Point> points,
                                   std::size_t buckets) {
  total_ = points.size();
  if (points.empty()) return;
  const std::size_t d = points[0].size();
  std::vector<double> column(points.size());
  dims_.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < points.size(); ++i) column[i] = points[i][j];
    dims_.emplace_back(column, buckets);
  }
}

ProductHistogram::ProductHistogram(
    std::span<const std::span<const double>> columns, std::size_t buckets) {
  if (columns.empty()) return;
  total_ = columns[0].size();
  dims_.reserve(columns.size());
  for (const auto col : columns) {
    if (col.size() != columns[0].size())
      throw std::invalid_argument("ProductHistogram: ragged columns");
    dims_.emplace_back(col, buckets);
  }
}

double ProductHistogram::estimate_count(const Rect& rect) const {
  if (rect.dims() != dims_.size())
    throw std::invalid_argument("ProductHistogram::estimate_count: dims");
  double sel = 1.0;
  for (std::size_t j = 0; j < dims_.size(); ++j)
    sel *= dims_[j].selectivity(rect.lo[j], rect.hi[j]);
  return sel * static_cast<double>(total_);
}

std::size_t ProductHistogram::byte_size() const noexcept {
  std::size_t s = sizeof(std::uint64_t);
  for (const auto& h : dims_) s += h.byte_size();
  return s;
}

}  // namespace sea
