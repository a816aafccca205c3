// Concept-drift detection on residual/error streams (paper RT1.4).
//
// AdwinLiteDetector — windowed two-halves mean comparison (a simplified
// ADWIN): keeps a bounded ring of recent values and alarms when the recent
// half's mean *exceeds* the older half's by more than an adaptive
// Hoeffding-style bound. One-sided by design: the agent feeds absolute
// residuals, and only error increases call for retraining (an error
// decrease just means the model got better).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sea {

class AdwinLiteDetector {
 public:
  explicit AdwinLiteDetector(std::size_t window = 64, double confidence = 0.01);

  /// Feeds one value; true when the recent half's mean exceeds the older
  /// half's beyond the Hoeffding bound (window then shrinks to the recent
  /// half).
  bool add(double value);

  std::size_t window_size() const noexcept { return buf_.size(); }
  std::uint64_t alarms() const noexcept { return alarms_; }

 private:
  std::size_t capacity_;
  double confidence_;
  std::vector<double> buf_;  ///< chronological
  std::uint64_t alarms_ = 0;
};

}  // namespace sea
