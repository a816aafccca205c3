#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sea {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningCovariance::add(double x, double y) noexcept {
  ++n_;
  const double n = static_cast<double>(n_);
  const double dx = x - mean_x_;
  mean_x_ += dx / n;
  m2_x_ += dx * (x - mean_x_);
  const double dy = y - mean_y_;
  mean_y_ += dy / n;
  m2_y_ += dy * (y - mean_y_);
  c2_ += dx * (y - mean_y_);
}

double RunningCovariance::correlation() const noexcept {
  if (n_ < 2) return 0.0;
  const double denom = std::sqrt(m2_x_ * m2_y_);
  return denom > 0.0 ? c2_ / denom : 0.0;
}

double RunningCovariance::slope() const noexcept {
  return m2_x_ > 0.0 ? c2_ / m2_x_ : 0.0;
}

void SlidingQuantile::add(double x) noexcept {
  ++seen_;
  if (buf_.size() < capacity_) {
    buf_.push_back(x);
    return;
  }
  buf_[next_] = x;
  next_ = (next_ + 1) % capacity_;
}

double SlidingQuantile::quantile(double q) const {
  if (buf_.empty()) throw std::logic_error("SlidingQuantile::quantile empty");
  std::vector<double> sorted = buf_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double relative_error(double truth, double estimate, double floor) noexcept {
  const double denom = std::max(std::abs(truth), floor);
  return std::abs(estimate - truth) / denom;
}

ErrorMetrics compute_error_metrics(std::span<const double> truth,
                                   std::span<const double> estimate) {
  if (truth.size() != estimate.size())
    throw std::invalid_argument("compute_error_metrics: size mismatch");
  ErrorMetrics m;
  m.n = truth.size();
  if (m.n == 0) return m;
  double sum_abs = 0.0, sum_sq = 0.0, sum_ape = 0.0;
  std::size_t ape_n = 0;
  std::vector<double> rel;
  rel.reserve(m.n);
  for (std::size_t i = 0; i < m.n; ++i) {
    const double err = estimate[i] - truth[i];
    const double a = std::abs(err);
    sum_abs += a;
    sum_sq += err * err;
    m.max_abs = std::max(m.max_abs, a);
    if (truth[i] != 0.0) {
      sum_ape += a / std::abs(truth[i]);
      ++ape_n;
    }
    rel.push_back(relative_error(truth[i], estimate[i]));
  }
  const double n = static_cast<double>(m.n);
  m.mae = sum_abs / n;
  m.rmse = std::sqrt(sum_sq / n);
  m.mape = ape_n ? sum_ape / static_cast<double>(ape_n) : 0.0;
  std::sort(rel.begin(), rel.end());
  m.median_rel = rel[rel.size() / 2];
  return m;
}

}  // namespace sea
