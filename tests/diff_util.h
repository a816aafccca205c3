// Differential-testing utilities for the grid-placement harness: adversarial
// point sets (the distributions learned structures historically get wrong)
// and canonicalizers/fingerprints so "byte-identical" is an EXPECT_EQ, not
// a prose claim. Shared by test_learned_index.cpp,
// test_index.cpp regressions and the test_properties.cpp invariant sweep.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/point.h"
#include "index/grid.h"

namespace sea::testing {

// ---------------------------------------------------------------------------
// Adversarial spatial datasets for the grid differential suite.
// ---------------------------------------------------------------------------

enum class PointDist {
  kUniform,    ///< uniform in the unit cube
  kClustered,  ///< tight gaussian blobs (skewed mass, mostly empty space)
  kConstant,   ///< all points identical (degenerate lo==hi domain)
  kCollinear,  ///< all on one axis-parallel line (degenerate in d-1 dims)
  kEmpty,      ///< zero points
  kSingleton,  ///< exactly one point
};

inline const char* to_string(PointDist d) {
  switch (d) {
    case PointDist::kUniform: return "uniform";
    case PointDist::kClustered: return "clustered";
    case PointDist::kConstant: return "constant";
    case PointDist::kCollinear: return "collinear";
    case PointDist::kEmpty: return "empty";
    case PointDist::kSingleton: return "singleton";
  }
  return "?";
}

inline std::vector<Point> adversarial_points(PointDist dist, std::size_t n,
                                             std::size_t dims,
                                             std::uint64_t seed) {
  if (dist == PointDist::kEmpty) n = 0;
  if (dist == PointDist::kSingleton) n = 1;
  Rng rng(seed);
  std::vector<Point> pts(n, Point(dims));
  // Blob centres for the clustered case.
  std::vector<Point> centres(3, Point(dims));
  for (auto& c : centres)
    for (auto& v : c) v = rng.uniform();
  for (std::size_t i = 0; i < n; ++i) {
    switch (dist) {
      case PointDist::kConstant:
        for (auto& v : pts[i]) v = 0.25;
        break;
      case PointDist::kCollinear:
        pts[i][0] = rng.uniform();
        for (std::size_t d = 1; d < dims; ++d) pts[i][d] = 0.5;
        break;
      case PointDist::kClustered: {
        const Point& c = centres[i % centres.size()];
        for (std::size_t d = 0; d < dims; ++d)
          pts[i][d] = c[d] + rng.normal(0.0, 0.02);
        break;
      }
      default:
        for (auto& v : pts[i]) v = rng.uniform();
        break;
    }
  }
  return pts;
}

/// Domain of a point set, padded on the upper edge the way
/// ExactExecutor::grid_build_input pads it (maxima land inside the last
/// cell); unit cube when empty.
inline Rect domain_of(const std::vector<Point>& pts, std::size_t dims) {
  Rect dom;
  dom.lo.assign(dims, 0.0);
  dom.hi.assign(dims, 1.0);
  if (!pts.empty()) {
    dom.lo = dom.hi = pts[0];
    for (const auto& p : pts)
      for (std::size_t d = 0; d < dims; ++d) {
        dom.lo[d] = std::min(dom.lo[d], p[d]);
        dom.hi[d] = std::max(dom.hi[d], p[d]);
      }
  }
  for (std::size_t d = 0; d < dims; ++d)
    dom.hi[d] = std::nextafter(dom.hi[d] + 1e-12,
                               std::numeric_limits<double>::max());
  return dom;
}

// ---------------------------------------------------------------------------
// Canonicalizers / fingerprints.
// ---------------------------------------------------------------------------

/// Result-set canonical form: ids sorted ascending (range/radius queries
/// promise a set, not an order).
inline std::vector<std::uint64_t> canon(std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Exact bit pattern of a double (NaN-safe, -0.0 != 0.0): the unit of
/// "byte-identical" comparisons.
inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-level fingerprint of a learned-placement GridIndex: CSR layout plus
/// every CDF knot.
inline std::vector<std::uint64_t> fingerprint(const GridIndex& g) {
  std::vector<std::uint64_t> fp;
  fp.push_back(g.size());
  fp.push_back(g.num_cells());
  for (const auto o : g.cell_offsets()) fp.push_back(o);
  for (std::size_t d = 0; d < g.dims(); ++d) {
    const LearnedCdf& c = g.cdf(d);
    fp.push_back(c.num_knots());
    for (double u = 0.0; u <= 1.0; u += 0.125) fp.push_back(bits(c.inverse(u)));
  }
  return fp;
}

}  // namespace sea::testing
