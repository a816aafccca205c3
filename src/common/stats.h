// Streaming statistics and error-metric helpers used across the library:
// by the answer-space models (sea), the AQP baselines (aqp), the cost
// observers (optimizer), and every benchmark harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sea {

/// Numerically stable running mean/variance (Welford) with min/max.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Running bivariate statistics: Pearson correlation and the
/// simple-linear-regression slope/intercept of y on x.
class RunningCovariance {
 public:
  void add(double x, double y) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean_x() const noexcept { return mean_x_; }
  double mean_y() const noexcept { return mean_y_; }
  /// Pearson correlation coefficient in [-1, 1]; 0 when degenerate.
  double correlation() const noexcept;
  /// OLS slope of y ~ x; 0 when x has no variance.
  double slope() const noexcept;
  double intercept() const noexcept { return mean_y_ - slope() * mean_x_; }

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0, mean_y_ = 0.0;
  double m2_x_ = 0.0, m2_y_ = 0.0;
  double c2_ = 0.0;
};

/// Quantiles over a sliding window of the most recent `capacity` values.
/// Used for prequential residual tracking where the underlying model
/// improves over time and stale errors must age out.
class SlidingQuantile {
 public:
  explicit SlidingQuantile(std::size_t capacity = 128)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void add(double x) noexcept;

  std::size_t count() const noexcept { return seen_; }
  std::size_t window_size() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return buf_.empty(); }

  /// Quantile q in [0,1] over the current window (linear interpolation).
  double quantile(double q) const;

  void clear() noexcept {
    buf_.clear();
    next_ = 0;
    seen_ = 0;
  }

  /// Current window contents (chronology not preserved across the ring
  /// seam; sufficient for quantile state shipping).
  const std::vector<double>& window() const noexcept { return buf_; }

  /// Restores a shipped window (deserialization).
  void restore(std::vector<double> values, std::size_t seen) {
    buf_ = std::move(values);
    if (buf_.size() > capacity_) buf_.resize(capacity_);
    next_ = buf_.size() % capacity_;
    seen_ = seen;
  }

 private:
  std::size_t capacity_;
  std::vector<double> buf_;  ///< ring buffer
  std::size_t next_ = 0;
  std::size_t seen_ = 0;
};

/// Error metrics over paired (truth, estimate) sequences.
struct ErrorMetrics {
  std::size_t n = 0;
  double mae = 0.0;           ///< mean absolute error
  double rmse = 0.0;          ///< root mean squared error
  double mape = 0.0;          ///< mean absolute percentage error (truth != 0 only)
  double max_abs = 0.0;       ///< worst absolute error
  double median_rel = 0.0;    ///< median relative error
};

ErrorMetrics compute_error_metrics(std::span<const double> truth,
                                   std::span<const double> estimate);

/// Relative error with an absolute floor: |est-truth| / max(|truth|, floor).
double relative_error(double truth, double estimate,
                      double floor = 1.0) noexcept;

}  // namespace sea
