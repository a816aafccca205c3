// Linear regression models.
//
// These are the answer-space models of the paper's RT1.2: per query-space
// quantum, the agent fits a (ridge-regularized) linear map from query
// geometry features to the analytical answer. Also reused for the paper's
// regression-query analytics ([28], [29]) and as explanation models (RT4.2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.h"

namespace sea {

/// Ridge-regularized ordinary least squares, fit in closed form via the
/// normal equations. An intercept term is always included (unregularized).
class LinearModel {
 public:
  LinearModel() = default;

  /// Fits y ~ X. X is n rows of d features. lambda >= 0 is the L2 penalty.
  /// Throws std::invalid_argument on shape mismatch or empty input.
  /// Delegates to fit_columns (transposing once); both entry points produce
  /// bit-identical models on the same data.
  void fit(std::span<const std::vector<double>> x, std::span<const double> y,
           double lambda = 1e-6);

  /// Columnar fit: x_cols is `dims` feature columns of length `rows`, laid
  /// out column-major (column i spans x_cols[i*rows .. (i+1)*rows)). The
  /// normal equations accumulate each X^T X / X^T y entry over rows in
  /// index order — the same per-entry addition order as the row-major fit —
  /// so the fitted model is bit-identical to fit() on the same data, while
  /// every inner loop runs over contiguous memory.
  void fit_columns(std::span<const double> x_cols, std::size_t rows,
                   std::size_t dims, std::span<const double> y,
                   double lambda = 1e-6);

  bool fitted() const noexcept { return !weights_.empty(); }
  std::size_t dims() const noexcept { return weights_.size(); }

  double predict(std::span<const double> x) const;

  const std::vector<double>& weights() const noexcept { return weights_; }
  double intercept() const noexcept { return intercept_; }

  /// In-sample R^2 of the last fit (1 = perfect, <= 1, can be negative).
  double r_squared() const noexcept { return r_squared_; }

  /// Serialized size for model-shipping accounting (geo experiments).
  std::size_t byte_size() const noexcept {
    return (weights_.size() + 2) * sizeof(double);
  }

  /// Reconstructs a fitted model from shipped parts (deserialization).
  static LinearModel from_parts(std::vector<double> weights, double intercept,
                                double r_squared) {
    LinearModel m;
    m.weights_ = std::move(weights);
    m.intercept_ = intercept;
    m.r_squared_ = r_squared;
    return m;
  }

 private:
  std::vector<double> weights_;
  double intercept_ = 0.0;
  double r_squared_ = 0.0;
};

}  // namespace sea
