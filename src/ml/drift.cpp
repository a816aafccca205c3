#include "ml/drift.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sea {

AdwinLiteDetector::AdwinLiteDetector(std::size_t window, double confidence)
    : capacity_(window), confidence_(confidence) {
  if (window < 8)
    throw std::invalid_argument("AdwinLiteDetector: window must be >= 8");
  if (confidence <= 0.0 || confidence >= 1.0)
    throw std::invalid_argument("AdwinLiteDetector: confidence in (0,1)");
}

bool AdwinLiteDetector::add(double value) {
  buf_.push_back(value);
  if (buf_.size() > capacity_) buf_.erase(buf_.begin());
  if (buf_.size() < 8) return false;

  const std::size_t half = buf_.size() / 2;
  double older = 0.0, recent = 0.0;
  for (std::size_t i = 0; i < half; ++i) older += buf_[i];
  for (std::size_t i = half; i < buf_.size(); ++i) recent += buf_[i];
  older /= static_cast<double>(half);
  recent /= static_cast<double>(buf_.size() - half);

  // Value range for the Hoeffding bound, taken from the *older* half only:
  // using the full window would let the shift itself inflate the bound and
  // mask the very change we are trying to detect.
  const auto [mn, mx] =
      std::minmax_element(buf_.begin(),
                          buf_.begin() + static_cast<std::ptrdiff_t>(half));
  const double range = std::max(1e-12, *mx - *mn);
  const double n0 = static_cast<double>(half);
  const double n1 = static_cast<double>(buf_.size() - half);
  const double m = 1.0 / (1.0 / n0 + 1.0 / n1);
  const double eps =
      range * std::sqrt(std::log(2.0 / confidence_) / (2.0 * m));
  if (recent - older > eps) {
    ++alarms_;
    // Keep only the recent half: the new concept.
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(half));
    return true;
  }
  return false;
}

}  // namespace sea
