// Query-answer explanations and higher-level data-less exploration
// (paper RT4).
//
// RT4.2 — instead of returning a single scalar, the system can attach a
// compact *functional* explanation: a piecewise-linear model of how the
// answer changes as one query parameter varies (e.g. count vs radius).
// Analysts then answer whole families of what-if queries by plugging
// values into the explanation, without issuing any of them (§III.A).
// The explanation itself is derived *data-lessly* from the agent's models,
// piecewise-fit in the spirit of segmented regression [23].
//
// RT4.1 — higher-level interrogations composed from predicted basics, e.g.
// "return the data subspaces where the correlation coefficient between
// attributes is greater than a threshold": a grid sweep over the domain
// answered entirely by the agent.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sea/agent.h"
#include "sea/query.h"

namespace sea {

enum class ExplainParameter {
  kRadius,  ///< radius of a kRadius selection
  kWidth,   ///< symmetric width of dimension `width_dim` of a kRange selection
  kK        ///< k of a kNN selection
};

struct ExplanationSegment {
  double lo = 0.0;
  double hi = 0.0;
  double slope = 0.0;
  double intercept = 0.0;

  double evaluate(double param) const noexcept {
    return slope * param + intercept;
  }
};

struct Explanation {
  std::string parameter;
  std::vector<ExplanationSegment> segments;

  /// Piecewise evaluation; clamps outside the modelled parameter range.
  double evaluate(double param) const;

  /// Compact human-readable rendering, e.g.
  /// "count(r) = 310.2*r - 1.5 on [0.05,0.12]; 954.8*r - 78.2 on [0.12,0.3]".
  std::string to_string() const;

  std::size_t byte_size() const noexcept {
    return segments.size() * sizeof(ExplanationSegment);
  }
};

struct ExplainConfig {
  std::size_t sweep_steps = 48;
  /// Relative residual tolerance before a new segment starts.
  double tolerance = 0.05;
  std::size_t max_segments = 8;
};

class Explainer {
 public:
  explicit Explainer(DatalessAgent& agent, ExplainConfig config = {})
      : agent_(agent), config_(config) {}

  /// Varies the chosen parameter of `query` over [lo, hi], predicts every
  /// point data-lessly, and fits a piecewise-linear explanation.
  /// Returns nullopt when the agent has no models along the sweep.
  std::optional<Explanation> explain(const AnalyticalQuery& query,
                                     ExplainParameter param, double lo,
                                     double hi,
                                     std::size_t width_dim = 0);

 private:
  DatalessAgent& agent_;
  ExplainConfig config_;
};

/// One interesting subspace found by data-less exploration.
struct SubspaceFinding {
  Ball region;
  double predicted_value = 0.0;
  double expected_abs_error = 0.0;
};

/// Sweeps ball-shaped subspaces of `radius` centred on a grid_per_dim^d
/// grid over `domain`, predicts `prototype`'s analytic for each (data-less)
/// and returns those where value > threshold (or < when `greater` is
/// false). `prototype` supplies analytic type, target columns and subspace
/// columns; its own selection geometry is ignored. Predictions whose
/// expected relative error exceeds `max_expected_rel_error` are dropped
/// (the agent's own error estimates gate exploration quality).
std::vector<SubspaceFinding> find_interesting_subspaces(
    DatalessAgent& agent, const AnalyticalQuery& prototype, const Rect& domain,
    double radius, double threshold, bool greater, std::size_t grid_per_dim,
    double max_expected_rel_error = 1e100);

}  // namespace sea
