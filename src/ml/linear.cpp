#include "ml/linear.h"

#include <cmath>
#include <stdexcept>

namespace sea {

std::vector<double> cholesky_solve(const Matrix& a,
                                   const std::vector<double>& b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("cholesky_solve: shape mismatch");
  // Decompose A = L L^T.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0)
          throw std::runtime_error("cholesky_solve: not positive definite");
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  // Forward substitution L z = b.
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * z[k];
    z[i] = sum / l(i, i);
  }
  // Back substitution L^T x = z.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

void LinearModel::fit(std::span<const std::vector<double>> x,
                      std::span<const double> y, double lambda) {
  if (x.empty() || x.size() != y.size())
    throw std::invalid_argument("LinearModel::fit: bad shapes");
  const std::size_t n = x.size();
  const std::size_t d = x[0].size();
  for (const auto& row : x)
    if (row.size() != d)
      throw std::invalid_argument("LinearModel::fit: ragged features");
  // Transpose once and run the columnar fit (bit-identical, see header).
  std::vector<double> cols(n * d);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < d; ++i) cols[i * n + r] = x[r][i];
  fit_columns(cols, n, d, y, lambda);
}

void LinearModel::fit_columns(std::span<const double> x_cols, std::size_t rows,
                              std::size_t dims, std::span<const double> y,
                              double lambda) {
  if (rows == 0 || y.size() != rows || x_cols.size() != rows * dims)
    throw std::invalid_argument("LinearModel::fit_columns: bad shapes");
  if (lambda < 0.0)
    throw std::invalid_argument("LinearModel::fit_columns: negative lambda");
  const std::size_t n = rows;
  const std::size_t d = dims;

  // Augmented design [X | 1]; regularize only the first d coefficients.
  // Each entry is a contiguous dot product accumulated over rows in index
  // order — the same per-entry addition order as a row-at-a-time fit.
  const std::size_t m = d + 1;
  Matrix ata(m, m);
  std::vector<double> atb(m, 0.0);
  const auto col = [&](std::size_t i) { return x_cols.data() + i * n; };
  for (std::size_t i = 0; i < m; ++i) {
    const double* ci = i < d ? col(i) : nullptr;
    double b = 0.0;
    for (std::size_t r = 0; r < n; ++r) b += (ci ? ci[r] : 1.0) * y[r];
    atb[i] = b;
    for (std::size_t j = i; j < m; ++j) {
      const double* cj = j < d ? col(j) : nullptr;
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r)
        s += (ci ? ci[r] : 1.0) * (cj ? cj[r] : 1.0);
      ata(i, j) = s;
    }
  }
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < i; ++j) ata(i, j) = ata(j, i);

  // Solve with escalating jitter: perfectly collinear designs (constant
  // features, duplicated rows) can defeat a fixed ridge numerically, and
  // the agent must never crash on a degenerate quantum. The jitter scales
  // with the matrix's own magnitude.
  double trace = 0.0;
  for (std::size_t i = 0; i < m; ++i) trace += ata(i, i);
  const double scale = std::max(1e-12, trace / static_cast<double>(m));
  double ridge = std::max(lambda, 1e-10);
  std::vector<double> sol;
  for (int attempt = 0;; ++attempt) {
    Matrix reg = ata;
    for (std::size_t i = 0; i < d; ++i) reg(i, i) += ridge;
    reg(d, d) += ridge * 1e-2 + 1e-12;
    try {
      sol = cholesky_solve(reg, atb);
      break;
    } catch (const std::runtime_error&) {
      if (attempt >= 4) {
        // Constant fallback: predict the mean (always well-defined).
        weights_.assign(d, 0.0);
        intercept_ = 0.0;
        for (const double v : y) intercept_ += v;
        intercept_ /= static_cast<double>(n);
        sol.clear();
        break;
      }
      ridge = std::max(ridge * 1000.0, scale * 1e-8);
    }
  }
  if (!sol.empty()) {
    weights_.assign(sol.begin(),
                    sol.begin() + static_cast<std::ptrdiff_t>(d));
    intercept_ = sol[d];
  }

  // In-sample R^2. The per-row prediction accumulates weights in feature
  // order, matching predict() on a materialized row exactly.
  double mean_y = 0.0;
  for (const double v : y) mean_y += v;
  mean_y /= static_cast<double>(n);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double pred = intercept_;
    for (std::size_t i = 0; i < d; ++i) pred += weights_[i] * col(i)[r];
    const double e = y[r] - pred;
    ss_res += e * e;
    const double t = y[r] - mean_y;
    ss_tot += t * t;
  }
  r_squared_ = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : (ss_res == 0.0 ? 1.0 : 0.0);
}

double LinearModel::predict(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("LinearModel::predict before fit");
  if (x.size() != weights_.size())
    throw std::invalid_argument("LinearModel::predict: dims");
  double v = intercept_;
  for (std::size_t i = 0; i < weights_.size(); ++i) v += weights_[i] * x[i];
  return v;
}

}  // namespace sea
