#include "sea/aggregate.h"

#include <cmath>

namespace sea {

void AggregateState::merge(const AggregateState& o) noexcept {
  count += o.count;
  sum_t += o.sum_t;
  sum_tt += o.sum_tt;
  sum_u += o.sum_u;
  sum_uu += o.sum_uu;
  sum_tu += o.sum_tu;
}

double AggregateState::finalize(AnalyticType type) const noexcept {
  const double n = static_cast<double>(count);
  switch (type) {
    case AnalyticType::kCount:
      return n;
    case AnalyticType::kSum:
      return sum_t;
    case AnalyticType::kAvg:
      return count ? sum_t / n : 0.0;
    case AnalyticType::kVariance: {
      if (count < 2) return 0.0;
      const double var = (sum_tt - sum_t * sum_t / n) / (n - 1.0);
      return var > 0.0 ? var : 0.0;
    }
    case AnalyticType::kCorrelation: {
      if (count < 2) return 0.0;
      const double cov = sum_tu - sum_t * sum_u / n;
      const double vt = sum_tt - sum_t * sum_t / n;
      const double vu = sum_uu - sum_u * sum_u / n;
      const double denom = std::sqrt(vt * vu);
      return denom > 0.0 ? cov / denom : 0.0;
    }
    case AnalyticType::kRegressionSlope: {
      if (count < 2) return 0.0;
      const double cov = sum_tu - sum_t * sum_u / n;
      const double vt = sum_tt - sum_t * sum_t / n;
      return vt > 0.0 ? cov / vt : 0.0;
    }
    case AnalyticType::kRegressionIntercept: {
      if (count < 2) return 0.0;
      const double cov = sum_tu - sum_t * sum_u / n;
      const double vt = sum_tt - sum_t * sum_t / n;
      const double slope = vt > 0.0 ? cov / vt : 0.0;
      return sum_u / n - slope * sum_t / n;
    }
  }
  return 0.0;
}

}  // namespace sea
