// Point / geometry primitives for multi-dimensional analytics subspaces.
//
// The paper's selection operators (III.A) define subspaces as
// hyper-rectangles (range queries), hyper-spheres (radius queries) or
// kNN neighbourhoods. These types are shared by the data layer, the
// indexes, the workload generator, and the SEA agent.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace sea {

using Point = std::vector<double>;

/// Squared Euclidean distance between equally sized points.
inline double squared_distance(std::span<const double> a,
                               std::span<const double> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("squared_distance: dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

inline double euclidean_distance(std::span<const double> a,
                                 std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

/// Axis-aligned hyper-rectangle [lo[i], hi[i]] per dimension (closed).
struct Rect {
  Point lo;
  Point hi;

  std::size_t dims() const noexcept { return lo.size(); }

  bool valid() const noexcept {
    if (lo.size() != hi.size()) return false;
    for (std::size_t i = 0; i < lo.size(); ++i)
      if (lo[i] > hi[i]) return false;
    return true;
  }

  /// lo[i] <= p[i] <= hi[i] on every axis; a NaN coordinate never passes.
  bool contains(std::span<const double> p) const noexcept {
    if (p.size() != lo.size()) return false;
    for (std::size_t i = 0; i < lo.size(); ++i)
      if (!(p[i] >= lo[i] && p[i] <= hi[i])) return false;
    return true;
  }

  bool intersects(const Rect& other) const noexcept {
    if (other.lo.size() != lo.size()) return false;
    for (std::size_t i = 0; i < lo.size(); ++i)
      if (other.hi[i] < lo[i] || other.lo[i] > hi[i]) return false;
    return true;
  }

  /// Volume of the rectangle (product of side lengths).
  double volume() const noexcept {
    double v = 1.0;
    for (std::size_t i = 0; i < lo.size(); ++i) v *= (hi[i] - lo[i]);
    return v;
  }

  Point center() const {
    Point c(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i) c[i] = 0.5 * (lo[i] + hi[i]);
    return c;
  }

  /// Squared distance from p to the nearest point of the rectangle
  /// (0 when p is inside). Used for k-d tree / grid pruning.
  double min_squared_distance(std::span<const double> p) const {
    if (p.size() != lo.size())
      throw std::invalid_argument("Rect::min_squared_distance: dims");
    double s = 0.0;
    for (std::size_t i = 0; i < lo.size(); ++i) {
      double d = 0.0;
      if (p[i] < lo[i])
        d = lo[i] - p[i];
      else if (p[i] > hi[i])
        d = p[i] - hi[i];
      s += d * d;
    }
    return s;
  }
};

/// Hyper-sphere: centre + radius (closed ball).
struct Ball {
  Point center;
  double radius = 0.0;

  std::size_t dims() const noexcept { return center.size(); }

  bool contains(std::span<const double> p) const {
    return squared_distance(center, p) <= radius * radius;
  }

  /// Tight axis-aligned bounding box, for probing rectangle indexes.
  Rect bounding_box() const {
    Rect r;
    r.lo.resize(center.size());
    r.hi.resize(center.size());
    for (std::size_t i = 0; i < center.size(); ++i) {
      r.lo[i] = center[i] - radius;
      r.hi[i] = center[i] + radius;
    }
    return r;
  }
};

}  // namespace sea
