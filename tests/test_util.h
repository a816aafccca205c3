// Shared helpers for the SEA test suite.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/table.h"
#include "net/network.h"
#include "sea/query.h"

namespace sea::testing {

/// Small clustered table: dims gaussian-mixture columns x0..x{d-1} plus a
/// linearly dependent "y" column.
inline Table small_dataset(std::size_t rows = 2000, std::size_t dims = 2,
                           std::uint64_t seed = 7) {
  return make_clustered_dataset(rows, dims, /*clusters=*/3, seed);
}

/// A single-zone cluster with `nodes` nodes holding `table` as `name`.
inline Cluster make_cluster(const Table& table, const std::string& name,
                            std::size_t nodes = 4,
                            PartitionSpec spec = {}) {
  Cluster cluster(nodes, Network::single_zone(nodes));
  cluster.load_table(name, table, spec);
  return cluster;
}

/// Brute-force ground truth for an analytical query over a plain table.
inline double brute_force_answer(const Table& table,
                                 const AnalyticalQuery& q) {
  double sum_t = 0, sum_tt = 0, sum_u = 0, sum_uu = 0, sum_tu = 0;
  std::size_t count = 0;
  Point p;
  std::vector<std::pair<double, std::size_t>> knn_dist;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    table.gather(r, q.subspace_cols, p);
    bool hit = false;
    switch (q.selection) {
      case SelectionType::kRange:
        hit = q.range.contains(p);
        break;
      case SelectionType::kRadius:
        hit = q.ball.contains(p);
        break;
      case SelectionType::kNearestNeighbors:
        knn_dist.emplace_back(euclidean_distance(p, q.knn_point), r);
        continue;
    }
    if (!hit) continue;
    const double t =
        needs_target(q.analytic) ? table.at(r, q.target_col) : 0.0;
    const double u = needs_second_target(q.analytic)
                         ? table.at(r, q.target_col2)
                         : 0.0;
    ++count;
    sum_t += t;
    sum_tt += t * t;
    sum_u += u;
    sum_uu += u * u;
    sum_tu += t * u;
  }
  if (q.selection == SelectionType::kNearestNeighbors) {
    std::sort(knn_dist.begin(), knn_dist.end());
    const std::size_t take = std::min(q.knn_k, knn_dist.size());
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t r = knn_dist[i].second;
      const double t =
          needs_target(q.analytic) ? table.at(r, q.target_col) : 0.0;
      const double u = needs_second_target(q.analytic)
                           ? table.at(r, q.target_col2)
                           : 0.0;
      ++count;
      sum_t += t;
      sum_tt += t * t;
      sum_u += u;
      sum_uu += u * u;
      sum_tu += t * u;
    }
  }
  const double n = static_cast<double>(count);
  switch (q.analytic) {
    case AnalyticType::kCount:
      return n;
    case AnalyticType::kSum:
      return sum_t;
    case AnalyticType::kAvg:
      return count ? sum_t / n : 0.0;
    case AnalyticType::kVariance:
      return count > 1 ? std::max(0.0, (sum_tt - sum_t * sum_t / n) / (n - 1))
                       : 0.0;
    case AnalyticType::kCorrelation: {
      if (count < 2) return 0.0;
      const double cov = sum_tu - sum_t * sum_u / n;
      const double vt = sum_tt - sum_t * sum_t / n;
      const double vu = sum_uu - sum_u * sum_u / n;
      const double denom = std::sqrt(vt * vu);
      return denom > 0 ? cov / denom : 0.0;
    }
    case AnalyticType::kRegressionSlope: {
      if (count < 2) return 0.0;
      const double cov = sum_tu - sum_t * sum_u / n;
      const double vt = sum_tt - sum_t * sum_t / n;
      return vt > 0 ? cov / vt : 0.0;
    }
    case AnalyticType::kRegressionIntercept: {
      if (count < 2) return 0.0;
      const double cov = sum_tu - sum_t * sum_u / n;
      const double vt = sum_tt - sum_t * sum_t / n;
      const double slope = vt > 0 ? cov / vt : 0.0;
      return sum_u / n - slope * sum_t / n;
    }
  }
  return 0.0;
}

/// Canonical 2-d range count query over x0/x1.
inline AnalyticalQuery range_count_query(double lo0, double hi0, double lo1,
                                         double hi1) {
  AnalyticalQuery q;
  q.selection = SelectionType::kRange;
  q.analytic = AnalyticType::kCount;
  q.subspace_cols = {0, 1};
  q.range.lo = {lo0, lo1};
  q.range.hi = {hi0, hi1};
  return q;
}

/// Data shapes for the fused-scan differential suites: tight blobs, a 0.25
/// lattice (many exact ties and boundary hits), +0.0/-0.0 mixed with +-1,
/// and uniform values with ~10% NaN. kSpecials (NaN, +-inf and +-0.0 mixed
/// with +-0.5 and +-1) is for selection and distance checks only: its
/// target sums reach NaN from both a NaN value and inf + -inf, and the
/// sign of such a NaN depends on the add's operand order as compiled.
enum class ScanData { kClustered, kDuplicates, kSignedZeros, kNaN, kSpecials };

inline constexpr ScanData kScanDataKinds[] = {
    ScanData::kClustered, ScanData::kDuplicates, ScanData::kSignedZeros,
    ScanData::kNaN};

/// `n` rows of `d` coordinate columns (0..d-1) and two target columns (d,
/// d+1), every value drawn from the `kind` shape.
inline Table scan_table(ScanData kind, std::size_t n, std::size_t d,
                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> centres(3 * (d + 2));
  for (auto& v : centres) v = rng.uniform();
  std::vector<std::vector<double>> cols(d + 2, std::vector<double>(n));
  std::vector<std::string> names;
  for (std::size_t j = 0; j < d + 2; ++j) {
    names.push_back("c" + std::to_string(j));
    for (std::size_t i = 0; i < n; ++i) {
      double& v = cols[j][i];
      switch (kind) {
        case ScanData::kClustered:
          v = centres[(i % 3) * (d + 2) + j] + rng.normal(0.0, 0.02);
          break;
        case ScanData::kDuplicates:
          v = 0.25 * static_cast<double>(rng.uniform_index(5));
          break;
        case ScanData::kSignedZeros: {
          constexpr double kPick[] = {0.0, -0.0, 0.0, -0.0, 1.0, -1.0};
          v = kPick[rng.uniform_index(std::size(kPick))];
          break;
        }
        case ScanData::kNaN:
          v = rng.uniform() < 0.1 ? std::nan("") : rng.uniform();
          break;
        case ScanData::kSpecials: {
          constexpr double kInf = std::numeric_limits<double>::infinity();
          const double pick[] = {std::nan(""), kInf, -kInf, 0.0, -0.0,
                                 0.5,          -0.5, 1.0,   -1.0};
          v = pick[rng.uniform_index(std::size(pick))];
          break;
        }
      }
    }
  }
  return Table::from_columns(Schema(std::move(names)), std::move(cols));
}

/// The kNN distance order written out without distance_rank: NaN after
/// every number, +inf included.
inline bool nan_last_less(double a, double b) {
  if (std::isnan(a) != std::isnan(b)) return std::isnan(b);
  return !std::isnan(a) && a < b;
}

/// A coordinate of `table`'s column `col` (a random row's, so it sits on
/// data) or, half the time or when there is none, a uniform draw in
/// [-1.1, 1.1].
inline double scan_coordinate(const Table& table, std::size_t col, Rng& rng) {
  if (table.num_rows() > 0 && rng.uniform() < 0.5) {
    const double v = table.at(rng.uniform_index(table.num_rows()), col);
    if (!std::isnan(v)) return v;
  }
  return rng.uniform(-1.1, 1.1);
}

/// Geometry for one differential case over columns 0..d-1: a rectangle
/// snapped to data coordinates, a ball around a data point (radius 0 one
/// time in eight), and a kNN centre with k from 1 up to past the row count.
struct ScanGeometry {
  Rect rect;
  Ball ball;
  Point center;
  std::size_t k = 1;
};

inline ScanGeometry scan_geometry(const Table& table, std::size_t d,
                                  Rng& rng) {
  ScanGeometry g;
  for (std::size_t j = 0; j < d; ++j) {
    const double a = scan_coordinate(table, j, rng);
    const double b = scan_coordinate(table, j, rng);
    g.rect.lo.push_back(std::min(a, b));
    g.rect.hi.push_back(std::max(a, b));
    g.ball.center.push_back(scan_coordinate(table, j, rng));
    g.center.push_back(scan_coordinate(table, j, rng));
  }
  g.ball.radius = rng.uniform() < 0.125 ? 0.0 : rng.uniform(0.0, 0.8);
  constexpr std::size_t kKs[] = {1, 2, 7, 64};
  g.k = rng.uniform() < 0.2 ? table.num_rows() + 1 + rng.uniform_index(3)
                            : kKs[rng.uniform_index(std::size(kKs))];
  return g;
}

}  // namespace sea::testing
