// Reference GBM fit: a verbatim copy of GbmRegressor::fit/build_node as
// they were before the presorted one-pass split search (src/ml/gbm.cpp).
// It sorts each feature's node values at every node and rescans the node's
// rows once per candidate threshold. Kept as the oracle for the GbmFitDiff
// differential test (tests/test_ml.cpp) and the perf-smoke `gbm_fit` gate
// (bench/bench_micro.cpp): the fast fit must build the same trees, node for
// node, and the same predictions, bit for bit.
//
// Header-only so both targets share one copy. Not linked into any library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/gbm.h"

namespace sea::reference {

class GbmReference {
 public:
  struct Node {
    std::int32_t left = -1;  ///< -1 => leaf
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;
  };
  using Tree = std::vector<Node>;

  explicit GbmReference(GbmParams params = {}) : params_(params) {}

  void fit(std::span<const std::vector<double>> x, std::span<const double> y,
           Rng* rng = nullptr) {
    if (x.empty() || x.size() != y.size())
      throw std::invalid_argument("GbmRegressor::fit: bad shapes");
    const std::size_t d = x[0].size();
    for (const auto& row : x)
      if (row.size() != d)
        throw std::invalid_argument("GbmRegressor::fit: ragged features");

    trees_.clear();
    base_ = 0.0;
    for (const double v : y) base_ += v;
    base_ /= static_cast<double>(y.size());

    const std::size_t rows = y.size();
    const bool subsampling =
        rng != nullptr && params_.subsample < 1.0 && rows > 2;
    const std::size_t take =
        subsampling
            ? std::max<std::size_t>(
                  2, static_cast<std::size_t>(std::llround(
                         params_.subsample * static_cast<double>(rows))))
            : rows;

    std::vector<double> residual(rows);
    std::vector<double> current(rows, base_);
    std::vector<std::size_t> idx(rows);
    for (std::size_t m = 0; m < params_.num_trees; ++m) {
      double max_abs_res = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        residual[i] = y[i] - current[i];
        max_abs_res = std::max(max_abs_res, std::abs(residual[i]));
      }
      if (max_abs_res < 1e-12) break;  // already perfect
      idx.resize(rows);
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      if (subsampling) {
        for (std::size_t i = 0; i < take; ++i)
          std::swap(idx[i], idx[i + rng->uniform_index(rows - i)]);
        idx.resize(take);
      }
      Tree tree;
      build_node(tree, idx, 0, idx.size(), x, residual, 0);
      for (std::size_t i = 0; i < rows; ++i)
        current[i] += params_.learning_rate * tree_predict(tree, x[i]);
      trees_.push_back(std::move(tree));
    }
  }

  double predict(std::span<const double> x) const {
    double v = base_;
    for (const auto& tree : trees_)
      v += params_.learning_rate * tree_predict(tree, x);
    return v;
  }

  const std::vector<Tree>& trees() const noexcept { return trees_; }

 private:
  std::int32_t build_node(Tree& tree, std::vector<std::size_t>& idx,
                          std::size_t begin, std::size_t end,
                          std::span<const std::vector<double>> x,
                          const std::vector<double>& residual,
                          std::size_t depth) {
    const std::size_t n = end - begin;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += residual[idx[i]];
      sum_sq += residual[idx[i]] * residual[idx[i]];
    }
    const double mean = sum / static_cast<double>(n);

    Node node;
    node.value = mean;
    const auto self = static_cast<std::int32_t>(tree.size());
    tree.push_back(node);

    if (depth >= params_.max_depth || n < 2 * params_.min_leaf) return self;

    const double parent_sse = sum_sq - sum * sum / static_cast<double>(n);
    if (parent_sse < 1e-12) return self;

    const std::size_t d = x[0].size();
    double best_gain = 1e-12;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<double> vals(n);
    for (std::size_t f = 0; f < d; ++f) {
      for (std::size_t i = 0; i < n; ++i) vals[i] = x[idx[begin + i]][f];
      std::sort(vals.begin(), vals.end());
      if (vals.front() == vals.back()) continue;
      const std::size_t steps = std::min(params_.max_thresholds, n - 1);
      for (std::size_t s = 1; s <= steps; ++s) {
        const std::size_t pos = s * (n - 1) / (steps + 1);
        const double thr = vals[pos];
        double lsum = 0.0, lsq = 0.0;
        std::size_t ln = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (x[idx[i]][f] <= thr) {
            lsum += residual[idx[i]];
            lsq += residual[idx[i]] * residual[idx[i]];
            ++ln;
          }
        }
        const std::size_t rn = n - ln;
        if (ln < params_.min_leaf || rn < params_.min_leaf) continue;
        const double rsum = sum - lsum;
        const double rsq = sum_sq - lsq;
        const double lsse = lsq - lsum * lsum / static_cast<double>(ln);
        const double rsse = rsq - rsum * rsum / static_cast<double>(rn);
        const double gain = parent_sse - lsse - rsse;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = thr;
        }
      }
    }
    if (best_gain <= 1e-12) return self;

    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(begin),
        idx.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) { return x[i][best_feature] <= best_threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return self;  // degenerate partition

    tree[static_cast<std::size_t>(self)].feature =
        static_cast<std::uint32_t>(best_feature);
    tree[static_cast<std::size_t>(self)].threshold = best_threshold;
    const std::int32_t left =
        build_node(tree, idx, begin, mid, x, residual, depth + 1);
    const std::int32_t right =
        build_node(tree, idx, mid, end, x, residual, depth + 1);
    tree[static_cast<std::size_t>(self)].left = left;
    tree[static_cast<std::size_t>(self)].right = right;
    return self;
  }

  static double tree_predict(const Tree& tree, std::span<const double> x) {
    std::size_t node = 0;
    for (;;) {
      const Node& n = tree[node];
      if (n.left < 0) return n.value;
      node = static_cast<std::size_t>(x[n.feature] <= n.threshold ? n.left
                                                                  : n.right);
    }
  }

  GbmParams params_;
  std::vector<Tree> trees_;
  double base_ = 0.0;
};

}  // namespace sea::reference
