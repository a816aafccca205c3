// k-nearest-neighbour regressor over stored examples: the cold-start
// answer-space model for quanta with too few (query, answer) pairs to fit a
// linear model (paper RT1.3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/point.h"

namespace sea {

class KnnRegressor {
 public:
  explicit KnnRegressor(std::size_t k = 5) : k_(k) {}

  void add(Point x, double y);
  /// Drops the oldest stored example. The rest keep their relative order,
  /// so predict() breaks distance ties as a store built from them would.
  void pop_front();
  void clear() noexcept;

  std::size_t size() const noexcept { return xs_.size(); }
  std::size_t k() const noexcept { return k_; }

  /// Distance-weighted mean of the k nearest stored targets.
  /// Throws std::logic_error when no examples are stored.
  double predict(std::span<const double> x) const;

  std::size_t byte_size() const noexcept {
    return xs_.empty() ? 0
                       : xs_.size() * (xs_[0].size() + 1) * sizeof(double);
  }

 private:
  std::size_t k_;
  std::vector<Point> xs_;
  std::vector<double> ys_;
};

}  // namespace sea
