#include "index/learned.h"

#include <algorithm>
#include <cmath>

namespace sea {

// ---------------------------------------------------------------------------
// LearnedCdf
// ---------------------------------------------------------------------------

LearnedCdf::LearnedCdf(std::span<const double> values, std::size_t knots) {
  const std::size_t n = values.size();
  if (n == 0 || knots == 0) return;
  // Deterministic stride sample (no RNG — same fixed-stride idiom as
  // sample_sort's pivots), sorted serially: the sample is small, and the
  // knots are a pure function of the input regardless of SEA_THREADS.
  // NaN values are left out of the sample: they have no rank, and sorting
  // them is undefined. operator() maps NaN to 0.
  const std::size_t cap = std::max<std::size_t>(knots * 8, 64);
  std::vector<double> sample(std::min(n, cap));
  for (std::size_t i = 0; i < sample.size(); ++i)
    sample[i] =
        values[sample.size() == 1 ? 0 : i * (n - 1) / (sample.size() - 1)];
  std::erase_if(sample, [](double v) { return std::isnan(v); });
  const std::size_t s = sample.size();
  if (s == 0) return;
  std::sort(sample.begin(), sample.end());
  const std::size_t k = std::min(knots, s > 1 ? s - 1 : std::size_t{1});
  knots_.resize(k + 1);
  for (std::size_t j = 0; j <= k; ++j)
    knots_[j] = sample[s == 1 ? 0 : j * (s - 1) / k];
}

double LearnedCdf::operator()(double v) const noexcept {
  if (knots_.size() < 2) return 0.0;
  if (!(v > knots_.front())) return 0.0;
  if (v >= knots_.back()) return 1.0;
  const std::size_t k = knots_.size() - 1;
  const auto it = std::upper_bound(knots_.begin(), knots_.end(), v);
  const auto j = static_cast<std::size_t>(it - knots_.begin()) - 1;
  // knots_[j] <= v < knots_[j+1] and the bracket is strict, so the
  // interpolation denominator is positive; the map stays monotone across
  // duplicate knots (mass jumps, as a CDF should).
  const double t = (v - knots_[j]) / (knots_[j + 1] - knots_[j]);
  return (static_cast<double>(j) + t) / static_cast<double>(k);
}

double LearnedCdf::inverse(double u) const noexcept {
  if (knots_.empty()) return 0.0;
  if (knots_.size() < 2) return knots_.front();
  const std::size_t k = knots_.size() - 1;
  const double x = std::clamp(u, 0.0, 1.0) * static_cast<double>(k);
  const auto j = std::min(static_cast<std::size_t>(x), k - 1);
  const double t = x - static_cast<double>(j);
  return knots_[j] + t * (knots_[j + 1] - knots_[j]);
}

// ---------------------------------------------------------------------------
// Modelled costs
// ---------------------------------------------------------------------------

namespace {
// Coarse per-row constants in the modelled-ms currency (hardware-free, the
// same family of numbers as the cluster cost model): comparisons for tree
// descent, straight scans for grids, model evaluation for the learned
// tier. Priors only — the E6 selector's online GBMs correct them from
// observed cost, which is how the planner learns when *not* to use the
// learned tier (e.g. tiny tables where build amortization never pays).
constexpr double kMsPerCompare = 2e-6;
constexpr double kMsPerRowScan = 5e-7;
constexpr double kMsPerModelEval = 1e-6;
}  // namespace

IndexCostEstimate modelled_kdtree_cost(std::size_t rows, std::size_t dims,
                                       double est_selectivity) noexcept {
  IndexCostEstimate e;
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  const double logn = std::log2(n + 1.0);
  e.build_ms = kMsPerCompare * n * logn;
  e.lookup_ms = kMsPerCompare * logn + kMsPerRowScan * est_selectivity * n;
  e.memory_bytes = n * (static_cast<double>(dims) * 8.0 + 48.0);
  return e;
}

IndexCostEstimate modelled_grid_cost(std::size_t rows, std::size_t dims,
                                     double est_selectivity) noexcept {
  IndexCostEstimate e;
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  e.build_ms = kMsPerRowScan * 2.0 * n;
  // A uniform grid over-scans by the cell slop around the query box; the
  // slop grows with dimensionality (border cells per face).
  const double slop = 1.0 + 0.5 * static_cast<double>(dims);
  e.lookup_ms = kMsPerRowScan * slop * est_selectivity * n +
                kMsPerCompare * static_cast<double>(dims);
  e.memory_bytes = n * (static_cast<double>(dims) * 8.0 + 12.0);
  return e;
}

IndexCostEstimate modelled_learned_grid_cost(
    std::size_t rows, std::size_t dims, double est_selectivity) noexcept {
  IndexCostEstimate e = modelled_grid_cost(rows, dims, est_selectivity);
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  // CDF learning adds a per-row pass at build; balanced cells cut the
  // per-query scan slop but each coordinate costs a model evaluation.
  e.build_ms += kMsPerRowScan * n;
  const double slop = 1.0 + 0.25 * static_cast<double>(dims);
  e.lookup_ms = kMsPerRowScan * slop * est_selectivity * n +
                kMsPerModelEval * 2.0 * static_cast<double>(dims);
  e.memory_bytes += 65.0 * 8.0 * static_cast<double>(dims);
  return e;
}

}  // namespace sea
