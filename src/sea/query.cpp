#include "sea/query.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sea {

const char* to_string(SelectionType t) noexcept {
  switch (t) {
    case SelectionType::kRange:
      return "range";
    case SelectionType::kRadius:
      return "radius";
    case SelectionType::kNearestNeighbors:
      return "knn";
  }
  return "?";
}

const char* to_string(AnalyticType t) noexcept {
  switch (t) {
    case AnalyticType::kCount:
      return "count";
    case AnalyticType::kSum:
      return "sum";
    case AnalyticType::kAvg:
      return "avg";
    case AnalyticType::kVariance:
      return "variance";
    case AnalyticType::kCorrelation:
      return "correlation";
    case AnalyticType::kRegressionSlope:
      return "regression_slope";
    case AnalyticType::kRegressionIntercept:
      return "regression_intercept";
  }
  return "?";
}

bool needs_target(AnalyticType t) noexcept {
  return t != AnalyticType::kCount;
}

bool needs_second_target(AnalyticType t) noexcept {
  return t == AnalyticType::kCorrelation ||
         t == AnalyticType::kRegressionSlope ||
         t == AnalyticType::kRegressionIntercept;
}

namespace {

bool has_nan(const Point& p) {
  return std::any_of(p.begin(), p.end(),
                     [](double v) { return std::isnan(v); });
}

}  // namespace

void AnalyticalQuery::validate() const {
  if (subspace_cols.empty())
    throw std::invalid_argument("AnalyticalQuery: no subspace columns");
  const std::size_t d = subspace_cols.size();
  // Compares with NaN are false, so `lo > hi` and `radius < 0` let a NaN
  // through: a NaN bound, centre or radius is rejected explicitly.
  switch (selection) {
    case SelectionType::kRange:
      if (range.dims() != d || !range.valid() || has_nan(range.lo) ||
          has_nan(range.hi))
        throw std::invalid_argument("AnalyticalQuery: bad range selection");
      break;
    case SelectionType::kRadius:
      if (ball.dims() != d || !(ball.radius >= 0.0) || has_nan(ball.center))
        throw std::invalid_argument("AnalyticalQuery: bad radius selection");
      break;
    case SelectionType::kNearestNeighbors:
      if (knn_point.size() != d || knn_k == 0 || has_nan(knn_point))
        throw std::invalid_argument("AnalyticalQuery: bad kNN selection");
      break;
  }
}

Point AnalyticalQuery::selection_center() const {
  switch (selection) {
    case SelectionType::kRange:
      return range.center();
    case SelectionType::kRadius:
      return ball.center;
    case SelectionType::kNearestNeighbors:
      return knn_point;
  }
  return {};
}

std::string AnalyticalQuery::describe() const {
  std::ostringstream os;
  os << to_string(analytic) << " over " << to_string(selection) << " d="
     << subspace_cols.size();
  if (selection == SelectionType::kRadius) os << " r=" << ball.radius;
  if (selection == SelectionType::kNearestNeighbors) os << " k=" << knn_k;
  if (needs_target(analytic)) os << " target=" << target_col;
  if (needs_second_target(analytic)) os << "," << target_col2;
  return os.str();
}

std::string AnalyticalQuery::signature() const {
  std::ostringstream os;
  os << to_string(selection) << '/' << to_string(analytic);
  for (const std::size_t c : subspace_cols) os << ':' << c;
  if (needs_target(analytic)) os << "|t" << target_col;
  if (needs_second_target(analytic)) os << ",t" << target_col2;
  return os.str();
}

QueryFeatures extract_features(const AnalyticalQuery& q, const Rect& domain) {
  q.validate();
  if (domain.dims() != q.subspace_cols.size())
    throw std::invalid_argument("extract_features: domain dims mismatch");
  const std::size_t d = q.subspace_cols.size();
  QueryFeatures f;
  const Point center = q.selection_center();
  f.position.resize(d);
  for (std::size_t i = 0; i < d; ++i) {
    const double w = std::max(1e-12, domain.hi[i] - domain.lo[i]);
    f.position[i] = (center[i] - domain.lo[i]) / w;
  }
  f.model = f.position;
  switch (q.selection) {
    case SelectionType::kRange: {
      double volume = 1.0;
      for (std::size_t i = 0; i < d; ++i) {
        const double w = std::max(1e-12, domain.hi[i] - domain.lo[i]);
        const double frac = (q.range.hi[i] - q.range.lo[i]) / w;
        f.model.push_back(frac);
        volume *= frac;
      }
      // Mass-proportional analytics (count/sum) are ~linear in the
      // subspace volume, so expose it directly as a feature.
      f.model.push_back(volume);
      break;
    }
    case SelectionType::kRadius: {
      double mean_w = 0.0;
      for (std::size_t i = 0; i < d; ++i)
        mean_w += std::max(1e-12, domain.hi[i] - domain.lo[i]);
      mean_w /= static_cast<double>(d);
      const double r = q.ball.radius / mean_w;
      f.model.push_back(r);
      // Ball volume scales as r^d.
      f.model.push_back(std::pow(r, static_cast<double>(d)));
      break;
    }
    case SelectionType::kNearestNeighbors:
      // Normalize k logarithmically: extents typically scale with log k.
      f.model.push_back(std::log1p(static_cast<double>(q.knn_k)) / 10.0);
      // Counts/sums over a kNN subspace scale linearly with k itself.
      f.model.push_back(static_cast<double>(q.knn_k) / 1000.0);
      break;
  }
  return f;
}

}  // namespace sea
