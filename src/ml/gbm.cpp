#include "ml/gbm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace sea {

// Split search over presorted columns (DESIGN.md, "GBM split search").
// fit() transposes x into contiguous columns and argsorts each feature's
// non-NaN rows once; a node reads its sorted values off that order through
// a row-membership mask instead of sorting them again, which yields the
// same quantile thresholds. Each row then gets its first threshold >= its
// value (its bin), and one walk over the node's rows in idx order adds r
// and r*r into left[t] for every t from that bin on. left[t] therefore
// receives exactly the adds, in exactly the order, of a rescan of the rows
// for x <= thr[t], so gains, splits and leaf values are bit-identical to
// that rescan (GbmFitDiff checks this against bench/gbm_reference.h).
// A NaN value satisfies no threshold, as in the partition's x <= thr.
struct GbmRegressor::FitScratch {
  std::size_t rows = 0;
  std::vector<double> cols;            ///< feature f at [f * rows, +rows)
  std::vector<std::uint32_t> order;    ///< per feature: non-NaN rows, sorted
  std::vector<std::size_t> valid;      ///< per feature: non-NaN row count
  std::vector<std::uint8_t> member;    ///< 1 for rows of the current node
  std::vector<std::uint32_t> bin;      ///< per row: first qualifying step
  std::vector<double> vals;            ///< node's sorted non-NaN values
  std::vector<std::uint32_t> sorted;   ///< their rows
  /// Left-side residual sum and sum of squares of one threshold, side by
  /// side so one two-lane add updates both.
  struct LeftSums {
    double sum = 0.0;
    double sq = 0.0;
  };
  std::vector<double> thr;             ///< per candidate threshold
  std::vector<LeftSums> left;          ///< per candidate threshold
  std::vector<std::size_t> cnt;        ///< rows per bin, then left counts

  FitScratch(std::span<const std::vector<double>> x, std::size_t thresholds)
      : rows(x.size()),
        member(rows, 0),
        bin(rows),
        vals(rows),
        sorted(rows),
        thr(thresholds),
        left(thresholds),
        cnt(thresholds + 1) {
    const std::size_t d = x[0].size();
    cols.resize(d * rows);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t f = 0; f < d; ++f) cols[f * rows + i] = x[i][f];
    order.resize(d * rows);
    valid.resize(d);
    for (std::size_t f = 0; f < d; ++f) {
      const double* col = &cols[f * rows];
      std::uint32_t* ord = &order[f * rows];
      std::size_t n = 0;
      for (std::size_t i = 0; i < rows; ++i)
        if (!std::isnan(col[i])) ord[n++] = static_cast<std::uint32_t>(i);
      std::sort(ord, ord + n, [col](std::uint32_t a, std::uint32_t b) {
        return col[a] < col[b];
      });
      valid[f] = n;
    }
  }
};

void GbmRegressor::fit(std::span<const std::vector<double>> x,
                       std::span<const double> y, Rng* rng) {
  if (x.empty() || x.size() != y.size())
    throw std::invalid_argument("GbmRegressor::fit: bad shapes");
  if (x.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("GbmRegressor::fit: too many rows");
  const std::size_t d = x[0].size();
  for (const auto& row : x)
    if (row.size() != d)
      throw std::invalid_argument("GbmRegressor::fit: ragged features");

  trees_.clear();
  base_ = 0.0;
  for (const double v : y) base_ += v;
  base_ /= static_cast<double>(y.size());
  fitted_ = true;

  const std::size_t rows = y.size();
  const bool subsampling =
      rng != nullptr && params_.subsample < 1.0 && rows > 2;
  const std::size_t take =
      subsampling ? std::max<std::size_t>(
                        2, static_cast<std::size_t>(std::llround(
                               params_.subsample * static_cast<double>(rows))))
                  : rows;

  FitScratch scratch(x, std::min(params_.max_thresholds, rows));
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
      // Partial Fisher-Yates: the first `take` entries are a uniform sample
      // without replacement, fully determined by the caller's stream.
      for (std::size_t i = 0; i < take; ++i)
        std::swap(idx[i], idx[i + rng->uniform_index(rows - i)]);
      idx.resize(take);
    }
    Tree tree;
    build_node(tree, idx, 0, idx.size(), scratch, residual, 0);
    for (std::size_t i = 0; i < rows; ++i)
      current[i] += params_.learning_rate * tree_predict(tree, x[i]);
    trees_.push_back(std::move(tree));
  }
}

std::int32_t GbmRegressor::build_node(Tree& tree, std::vector<std::size_t>& idx,
                                      std::size_t begin, std::size_t end,
                                      FitScratch& s,
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

  // Greedy best split: for each feature, try up to max_thresholds
  // quantile-spaced thresholds of the node's non-NaN values.
  const std::size_t rows = s.rows;
  const std::size_t d = s.valid.size();
  double best_gain = 1e-12;
  std::size_t best_feature = 0;
  double best_threshold = 0.0;
  for (std::size_t i = begin; i < end; ++i) s.member[idx[i]] = 1;
  for (std::size_t f = 0; f < d; ++f) {
    // The node's sorted values: the fit's order filtered by membership.
    const double* col = &s.cols[f * rows];
    const std::uint32_t* ord = &s.order[f * rows];
    std::size_t nv = 0;
    for (std::size_t k = 0; k < s.valid[f]; ++k) {
      const std::uint32_t r = ord[k];
      s.vals[nv] = col[r];
      s.sorted[nv] = r;
      nv += s.member[r];
    }
    if (nv < 2 || s.vals[0] == s.vals[nv - 1]) continue;
    const std::size_t steps = std::min(params_.max_thresholds, nv - 1);
    for (std::size_t t = 0; t < steps; ++t)
      s.thr[t] = s.vals[(t + 1) * (nv - 1) / (steps + 1)];
    // Bins: each row's first threshold >= its value; `steps` means none
    // (values above the last threshold, and NaN).
    std::fill_n(s.cnt.begin(), steps + 1, std::size_t{0});
    if (nv < n)
      for (std::size_t i = begin; i < end; ++i)
        s.bin[idx[i]] = static_cast<std::uint32_t>(steps);
    for (std::size_t k = 0, t = 0; k < nv; ++k) {
      while (t < steps && s.thr[t] < s.vals[k]) ++t;
      s.bin[s.sorted[k]] = static_cast<std::uint32_t>(t);
      ++s.cnt[t];
    }
    // cnt[t] becomes the left count of threshold t. The thresholds that
    // leave min_leaf rows on both sides form one range [lo, hi); the sums
    // of the others are never read.
    std::size_t lo = steps, hi = 0;
    for (std::size_t t = 0, ln = 0; t < steps; ++t) {
      ln += s.cnt[t];
      s.cnt[t] = ln;
      if (ln >= params_.min_leaf && n - ln >= params_.min_leaf) {
        lo = std::min(lo, t);
        hi = t + 1;
      }
    }
    if (lo >= hi) continue;
    // One pass in idx order: a row adds into every threshold from its bin
    // on, so left[t] sees the rows with x <= thr[t] in idx order.
    std::fill(s.left.begin() + lo, s.left.begin() + hi, FitScratch::LeftSums{});
    FitScratch::LeftSums* left = s.left.data();
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = idx[i];
      const double res = residual[r];
      const double sq = res * res;
      for (std::size_t t = std::max<std::size_t>(s.bin[r], lo); t < hi; ++t) {
        left[t].sum += res;
        left[t].sq += sq;
      }
    }
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t ln = s.cnt[t];
      const std::size_t rn = n - ln;
      const double lsum = left[t].sum;
      const double lsq = left[t].sq;
      const double rsum = sum - lsum;
      const double rsq = sum_sq - lsq;
      const double lsse = lsq - lsum * lsum / static_cast<double>(ln);
      const double rsse = rsq - rsum * rsum / static_cast<double>(rn);
      const double gain = parent_sse - lsse - rsse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = s.thr[t];
      }
    }
  }
  for (std::size_t i = begin; i < end; ++i) s.member[idx[i]] = 0;
  if (best_gain <= 1e-12) return self;

  // Partition idx in place. Its order is the children's add order.
  const double* best_col = &s.cols[best_feature * rows];
  const auto mid_it = std::partition(
      idx.begin() + static_cast<std::ptrdiff_t>(begin),
      idx.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) { return best_col[i] <= best_threshold; });
  const auto mid =
      static_cast<std::size_t>(mid_it - idx.begin());
  if (mid == begin || mid == end) return self;  // degenerate partition

  tree[static_cast<std::size_t>(self)].feature =
      static_cast<std::uint32_t>(best_feature);
  tree[static_cast<std::size_t>(self)].threshold = best_threshold;
  const std::int32_t left = build_node(tree, idx, begin, mid, s, residual,
                                       depth + 1);
  const std::int32_t right = build_node(tree, idx, mid, end, s, residual,
                                        depth + 1);
  tree[static_cast<std::size_t>(self)].left = left;
  tree[static_cast<std::size_t>(self)].right = right;
  return self;
}

double GbmRegressor::tree_predict(const Tree& tree,
                                  std::span<const double> x) {
  std::size_t node = 0;
  for (;;) {
    const Node& n = tree[node];
    if (n.left < 0) return n.value;
    node = static_cast<std::size_t>(x[n.feature] <= n.threshold ? n.left
                                                                : n.right);
  }
}

double GbmRegressor::predict(std::span<const double> x) const {
  if (!fitted_) throw std::logic_error("GbmRegressor::predict before fit");
  double v = base_;
  for (const auto& tree : trees_)
    v += params_.learning_rate * tree_predict(tree, x);
  return v;
}

std::size_t GbmRegressor::byte_size() const noexcept {
  std::size_t nodes = 0;
  for (const auto& t : trees_) nodes += t.size();
  return sizeof(double) + nodes * sizeof(Node);
}

}  // namespace sea
