#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sea {

std::vector<Point> sample_anchor_points(const Table& table,
                                        const std::vector<std::size_t>& cols,
                                        std::size_t n, std::uint64_t seed) {
  if (table.num_rows() == 0)
    throw std::invalid_argument("sample_anchor_points: empty table");
  Rng rng(seed);
  std::vector<Point> anchors;
  anchors.reserve(n);
  Point p;
  for (std::size_t i = 0; i < n; ++i) {
    table.gather(rng.uniform_index(table.num_rows()), cols, p);
    anchors.push_back(p);
  }
  return anchors;
}

QueryWorkload::QueryWorkload(WorkloadConfig config, Rect domain)
    : config_(std::move(config)),
      domain_(std::move(domain)),
      rng_(config_.seed),
      hotspot_pick_(std::max<std::size_t>(1, config_.num_hotspots),
                    config_.hotspot_skew) {
  if (config_.subspace_cols.empty())
    throw std::invalid_argument("QueryWorkload: no subspace columns");
  if (domain_.dims() != config_.subspace_cols.size())
    throw std::invalid_argument("QueryWorkload: domain dims mismatch");
  if (config_.num_hotspots == 0)
    throw std::invalid_argument("QueryWorkload: need at least one hotspot");
  reset_hotspots();
}

void QueryWorkload::reset_hotspots() {
  hotspots_.clear();
  hotspots_.reserve(config_.num_hotspots);
  const std::size_t d = domain_.dims();
  for (std::size_t h = 0; h < config_.num_hotspots; ++h) {
    if (!config_.hotspot_anchors.empty()) {
      const auto& anchor = config_.hotspot_anchors[rng_.uniform_index(
          config_.hotspot_anchors.size())];
      if (anchor.size() != d)
        throw std::invalid_argument("QueryWorkload: anchor dims mismatch");
      hotspots_.push_back(anchor);
      continue;
    }
    Point c(d);
    for (std::size_t i = 0; i < d; ++i) {
      const double w = domain_.hi[i] - domain_.lo[i];
      // Keep hotspots away from the border so subspaces stay mostly inside.
      c[i] = rng_.uniform(domain_.lo[i] + 0.15 * w, domain_.hi[i] - 0.15 * w);
    }
    hotspots_.push_back(std::move(c));
  }
}

void QueryWorkload::drift_hotspots(double fraction) {
  const std::size_t d = domain_.dims();
  for (auto& h : hotspots_) {
    for (std::size_t i = 0; i < d; ++i) {
      const double w = domain_.hi[i] - domain_.lo[i];
      h[i] = std::clamp(h[i] + rng_.uniform(-1.0, 1.0) * fraction * w,
                        domain_.lo[i] + 0.05 * w, domain_.hi[i] - 0.05 * w);
    }
  }
}

void QueryWorkload::draw_center(Point& out) {
  const std::size_t h = hotspot_pick_(rng_);
  const std::size_t d = domain_.dims();
  out.resize(d);
  for (std::size_t i = 0; i < d; ++i) {
    const double w = domain_.hi[i] - domain_.lo[i];
    out[i] = std::clamp(
        rng_.normal(hotspots_[h][i], config_.hotspot_spread * w),
        domain_.lo[i], domain_.hi[i]);
  }
}

AnalyticalQuery QueryWorkload::next() {
  AnalyticalQuery q;
  q.selection = config_.selection;
  q.analytic = config_.analytic;
  q.subspace_cols = config_.subspace_cols;
  q.target_col = config_.target_col;
  q.target_col2 = config_.target_col2;

  // The centre is drawn first (the stream's order), straight into the
  // query's own geometry.
  const std::size_t d = domain_.dims();
  switch (config_.selection) {
    case SelectionType::kRange: {
      draw_center(q.range.lo);
      q.range.hi.resize(d);
      for (std::size_t i = 0; i < d; ++i) {
        const double w = domain_.hi[i] - domain_.lo[i];
        const double width =
            rng_.uniform(config_.min_width, config_.max_width) * w;
        const double center = q.range.lo[i];
        q.range.lo[i] = center - width / 2.0;
        q.range.hi[i] = center + width / 2.0;
      }
      break;
    }
    case SelectionType::kRadius: {
      draw_center(q.ball.center);
      double mean_w = 0.0;
      for (std::size_t i = 0; i < d; ++i)
        mean_w += domain_.hi[i] - domain_.lo[i];
      mean_w /= static_cast<double>(d);
      q.ball.radius =
          rng_.uniform(config_.min_radius, config_.max_radius) * mean_w;
      break;
    }
    case SelectionType::kNearestNeighbors: {
      draw_center(q.knn_point);
      q.knn_k = static_cast<std::size_t>(rng_.uniform_int(
          static_cast<std::int64_t>(config_.min_k),
          static_cast<std::int64_t>(config_.max_k)));
      break;
    }
  }
  return q;
}

}  // namespace sea
