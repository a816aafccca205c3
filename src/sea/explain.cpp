#include "sea/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/stats.h"

namespace sea {

double Explanation::evaluate(double param) const {
  if (segments.empty())
    throw std::logic_error("Explanation::evaluate: empty explanation");
  if (param <= segments.front().lo) return segments.front().evaluate(param);
  for (const auto& s : segments)
    if (param <= s.hi) return s.evaluate(param);
  return segments.back().evaluate(param);
}

std::string Explanation::to_string() const {
  std::ostringstream os;
  os << "f(" << parameter << ") = ";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i) os << "; ";
    const auto& s = segments[i];
    os << s.slope << "*" << parameter
       << (s.intercept >= 0.0 ? "+" : "") << s.intercept << " on ["
       << s.lo << "," << s.hi << "]";
  }
  return os.str();
}

namespace {

/// Greedy left-to-right segmentation: extend the current segment while the
/// OLS fit over its points keeps every residual within tolerance * scale.
std::vector<ExplanationSegment> segment_fit(const std::vector<double>& xs,
                                            const std::vector<double>& ys,
                                            double tolerance,
                                            std::size_t max_segments) {
  std::vector<ExplanationSegment> segs;
  const std::size_t n = xs.size();
  double scale = 1.0;
  for (const double y : ys) scale = std::max(scale, std::abs(y));

  std::size_t begin = 0;
  while (begin < n) {
    // Grow the segment as far as the tolerance allows (always >= 2 pts).
    std::size_t end = std::min(begin + 2, n);
    RunningCovariance cov;
    cov.add(xs[begin], ys[begin]);
    if (end - begin > 1) cov.add(xs[begin + 1], ys[begin + 1]);
    std::size_t best_end = end;
    while (end < n) {
      RunningCovariance trial = cov;
      trial.add(xs[end], ys[end]);
      // Check residuals of the trial fit over [begin, end].
      const double slope = trial.slope();
      const double intercept = trial.intercept();
      double worst = 0.0;
      for (std::size_t i = begin; i <= end; ++i)
        worst = std::max(worst,
                         std::abs(ys[i] - (slope * xs[i] + intercept)));
      if (worst > tolerance * scale &&
          segs.size() + 1 < max_segments)  // last segment must absorb rest
        break;
      cov = trial;
      ++end;
      best_end = end;
    }
    ExplanationSegment s;
    s.lo = xs[begin];
    s.hi = xs[std::min(best_end, n) - 1];
    s.slope = cov.slope();
    s.intercept = cov.intercept();
    segs.push_back(s);
    begin = best_end;
  }
  return segs;
}

}  // namespace

std::optional<Explanation> Explainer::explain(const AnalyticalQuery& query,
                                              ExplainParameter param,
                                              double lo, double hi,
                                              std::size_t width_dim) {
  if (hi <= lo)
    throw std::invalid_argument("Explainer::explain: hi must exceed lo");
  if (config_.sweep_steps < 4)
    throw std::invalid_argument("Explainer::explain: need >= 4 sweep steps");

  switch (param) {
    case ExplainParameter::kRadius:
      if (query.selection != SelectionType::kRadius)
        throw std::invalid_argument("explain(kRadius): not a radius query");
      break;
    case ExplainParameter::kWidth:
      if (query.selection != SelectionType::kRange)
        throw std::invalid_argument("explain(kWidth): not a range query");
      if (width_dim >= query.subspace_cols.size())
        throw std::invalid_argument("explain(kWidth): bad width_dim");
      break;
    case ExplainParameter::kK:
      if (query.selection != SelectionType::kNearestNeighbors)
        throw std::invalid_argument("explain(kK): not a kNN query");
      break;
  }

  std::vector<double> xs, ys;
  xs.reserve(config_.sweep_steps);
  ys.reserve(config_.sweep_steps);
  for (std::size_t s = 0; s < config_.sweep_steps; ++s) {
    const double v = lo + (hi - lo) * static_cast<double>(s) /
                              static_cast<double>(config_.sweep_steps - 1);
    AnalyticalQuery q = query;
    switch (param) {
      case ExplainParameter::kRadius:
        q.ball.radius = v;
        break;
      case ExplainParameter::kWidth: {
        const Point c = query.range.center();
        q.range.lo[width_dim] = c[width_dim] - v / 2.0;
        q.range.hi[width_dim] = c[width_dim] + v / 2.0;
        break;
      }
      case ExplainParameter::kK:
        q.knn_k = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(v)));
        break;
    }
    if (const auto p = agent_.maybe_predict(q)) {
      xs.push_back(v);
      ys.push_back(p->value);
    }
  }
  if (xs.size() < 4) return std::nullopt;

  Explanation e;
  switch (param) {
    case ExplainParameter::kRadius:
      e.parameter = "radius";
      break;
    case ExplainParameter::kWidth:
      e.parameter = "width";
      break;
    case ExplainParameter::kK:
      e.parameter = "k";
      break;
  }
  e.segments =
      segment_fit(xs, ys, config_.tolerance, config_.max_segments);
  return e;
}

std::vector<SubspaceFinding> find_interesting_subspaces(
    DatalessAgent& agent, const AnalyticalQuery& prototype, const Rect& domain,
    double radius, double threshold, bool greater, std::size_t grid_per_dim,
    double max_expected_rel_error) {
  if (grid_per_dim == 0)
    throw std::invalid_argument("find_interesting_subspaces: grid_per_dim");
  const std::size_t d = prototype.subspace_cols.size();
  if (domain.dims() != d)
    throw std::invalid_argument("find_interesting_subspaces: domain dims");

  std::vector<SubspaceFinding> findings;
  std::vector<std::size_t> coord(d, 0);
  for (;;) {
    Ball region;
    region.center.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
      const double step = (domain.hi[i] - domain.lo[i]) /
                          static_cast<double>(grid_per_dim);
      region.center[i] =
          domain.lo[i] + (static_cast<double>(coord[i]) + 0.5) * step;
    }
    region.radius = radius;

    AnalyticalQuery q = prototype;
    q.selection = SelectionType::kRadius;
    q.ball = region;
    if (const auto p = agent.maybe_predict(q)) {
      const bool hit = greater ? p->value > threshold : p->value < threshold;
      if (hit && p->expected_rel_error <= max_expected_rel_error)
        findings.push_back(
            SubspaceFinding{region, p->value, p->expected_abs_error});
    }

    // Advance the grid odometer.
    std::size_t i = 0;
    for (; i < d; ++i) {
      if (++coord[i] < grid_per_dim) break;
      coord[i] = 0;
    }
    if (i == d) break;
  }
  return findings;
}

}  // namespace sea
