#include "ml/knn_model.h"

#include <algorithm>
#include <cmath>
#include <map>
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

void KnnClassifier::add(Point x, int label) {
  if (!xs_.empty() && x.size() != xs_[0].size())
    throw std::invalid_argument("KnnClassifier::add: dims");
  xs_.push_back(std::move(x));
  labels_.push_back(label);
}

int KnnClassifier::predict(std::span<const double> x) const {
  if (xs_.empty()) throw std::logic_error("KnnClassifier::predict: empty");
  const auto nn = nearest(xs_, x, k_);
  std::map<int, std::size_t> votes;
  for (const auto& [d2, i] : nn) {
    (void)d2;
    ++votes[labels_[i]];
  }
  int best_label = votes.begin()->first;
  std::size_t best_votes = 0;
  for (const auto& [label, v] : votes) {
    if (v > best_votes) {
      best_votes = v;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace sea
