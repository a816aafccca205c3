// Gradient-boosted regression trees (squared loss), after Friedman [41]
// and in the spirit of XGBoost [42] which the paper names as the ensemble
// alternative for inference-model selection (RT3.3). Shallow trees +
// shrinkage; greedy variance-reduction splits.
//
// Used (a) as a per-quantum answer-space model alternative and (b) as the
// learned cost model inside the optimizer (RT3 / G6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sea {

class Rng;

struct GbmParams {
  std::size_t num_trees = 100;
  std::size_t max_depth = 3;
  std::size_t min_leaf = 4;       ///< minimum samples per leaf
  double learning_rate = 0.1;
  std::size_t max_thresholds = 32;  ///< candidate split points per feature
  /// Fraction of rows each tree trains on (stochastic gradient boosting,
  /// Friedman 2002). 1.0 disables subsampling; values < 1.0 require an Rng
  /// passed to fit(). The caller owns the stream, so fits are reproducible
  /// regardless of which thread runs them.
  double subsample = 1.0;
};

class GbmRegressor {
 public:
  explicit GbmRegressor(GbmParams params = {}) : params_(params) {}

  /// Fits y ~ X from scratch (drops any previous ensemble). `rng` drives
  /// per-tree row subsampling when params.subsample < 1.0; ignored (and may
  /// be null) otherwise. A NaN feature value satisfies no split threshold,
  /// so its row always goes right.
  void fit(std::span<const std::vector<double>> x, std::span<const double> y,
           Rng* rng = nullptr);

  bool fitted() const noexcept { return fitted_; }
  double predict(std::span<const double> x) const;

  std::size_t num_trees() const noexcept { return trees_.size(); }
  const GbmParams& params() const noexcept { return params_; }

  /// Serialized size for model-shipping accounting.
  std::size_t byte_size() const noexcept;

 private:
  struct Node {
    std::int32_t left = -1;   ///< -1 => leaf
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;  ///< leaf prediction
  };
  using Tree = std::vector<Node>;
  /// Per-fit columns, presorted feature orders and split-search buffers
  /// (gbm.cpp).
  struct FitScratch;
  /// Reads trees_ node for node (tests/test_ml.cpp).
  friend struct GbmTestAccess;

  std::int32_t build_node(Tree& tree, std::vector<std::size_t>& idx,
                          std::size_t begin, std::size_t end, FitScratch& s,
                          const std::vector<double>& residual,
                          std::size_t depth);
  static double tree_predict(const Tree& tree, std::span<const double> x);

  GbmParams params_;
  std::vector<Tree> trees_;
  double base_ = 0.0;
  bool fitted_ = false;
};

}  // namespace sea
