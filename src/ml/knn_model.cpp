#include "ml/knn_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sea {

namespace {

/// Indices of the k nearest stored points to x, with squared distances.
std::vector<std::pair<double, std::size_t>> nearest(
    const std::vector<Point>& xs, std::span<const double> x, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> d;
  d.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    d.emplace_back(squared_distance(x, xs[i]), i);
  const std::size_t take = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(take),
                    d.end());
  d.resize(take);
  return d;
}

}  // namespace

void KnnRegressor::add(Point x, double y) {
  if (!xs_.empty() && x.size() != xs_[0].size())
    throw std::invalid_argument("KnnRegressor::add: dims");
  xs_.push_back(std::move(x));
  ys_.push_back(y);
}

void KnnRegressor::pop_front() {
  if (xs_.empty()) throw std::logic_error("KnnRegressor::pop_front: empty");
  xs_.erase(xs_.begin());
  ys_.erase(ys_.begin());
}

void KnnRegressor::clear() noexcept {
  xs_.clear();
  ys_.clear();
}

double KnnRegressor::predict(std::span<const double> x) const {
  if (xs_.empty()) throw std::logic_error("KnnRegressor::predict: empty");
  const auto nn = nearest(xs_, x, k_);
  double weight_sum = 0.0, value_sum = 0.0;
  for (const auto& [d2, i] : nn) {
    const double w = 1.0 / (1e-9 + std::sqrt(d2));
    weight_sum += w;
    value_sum += w * ys_[i];
  }
  return value_sum / weight_sum;
}

}  // namespace sea
