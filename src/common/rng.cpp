#include "common/rng.h"

#include <algorithm>
#include <stdexcept>

namespace sea {

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be > 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

std::size_t ZipfDistribution::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  // One rank needs no search, but the draw above still advances the
  // stream, so every later draw stays the same.
  if (cdf_.size() == 1) return 0;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace sea
