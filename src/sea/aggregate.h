// Mergeable aggregate state for distributed analytical query execution.
//
// Each storage node computes an AggregateState over its qualifying tuples;
// states merge associatively at reducers / the coordinator; finalize()
// yields the scalar answer for any AnalyticType. This is the unit shipped
// over the (accounted) network instead of raw tuples — already a key
// efficiency lever before any learning enters the picture.
#pragma once

#include <cstdint>

#include "sea/query.h"

namespace sea {

struct AggregateState {
  std::uint64_t count = 0;
  double sum_t = 0.0;    ///< sum of target_col
  double sum_tt = 0.0;   ///< sum of target_col^2
  double sum_u = 0.0;    ///< sum of target_col2
  double sum_uu = 0.0;   ///< sum of target_col2^2
  double sum_tu = 0.0;   ///< cross sum

  /// Accumulates one qualifying tuple's target values. Inline: it is the
  /// per-tuple step of every scan and probe fold.
  void add(double t, double u) noexcept {
    ++count;
    sum_t += t;
    sum_tt += t * t;
    sum_u += u;
    sum_uu += u * u;
    sum_tu += t * u;
  }

  void merge(const AggregateState& o) noexcept;

  /// Scalar answer for the analytic; degenerate cases (empty subspace,
  /// zero variance) return 0.
  double finalize(AnalyticType type) const noexcept;

  /// Wire size for transfer accounting.
  static constexpr std::size_t kWireBytes = 6 * 8;
};

}  // namespace sea
