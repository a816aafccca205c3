#include "aqp/sampling.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "data/columnar.h"
#include "exec/mapreduce.h"

namespace sea {

namespace {

/// Weighted aggregate over sampled rows (weights = inverse inclusion
/// probability, i.e. Horvitz-Thompson estimators).
struct WeightedAgg {
  double n = 0.0;       ///< sum of weights (estimated population)
  double raw_n = 0.0;   ///< sampled rows
  double var_n = 0.0;   ///< sum w*(w-1): Poisson variance proxy for count
  double sum_t = 0.0, sum_tt = 0.0;
  double sum_u = 0.0, sum_uu = 0.0, sum_tu = 0.0;

  void add(double w, double t, double u) noexcept {
    n += w;
    raw_n += 1.0;
    var_n += w * (w - 1.0);
    sum_t += w * t;
    sum_tt += w * t * t;
    sum_u += w * u;
    sum_uu += w * u * u;
    sum_tu += w * t * u;
  }

  void merge(const WeightedAgg& o) noexcept {
    n += o.n;
    raw_n += o.raw_n;
    var_n += o.var_n;
    sum_t += o.sum_t;
    sum_tt += o.sum_tt;
    sum_u += o.sum_u;
    sum_uu += o.sum_uu;
    sum_tu += o.sum_tu;
  }

  double finalize(AnalyticType type) const noexcept {
    switch (type) {
      case AnalyticType::kCount:
        return n;
      case AnalyticType::kSum:
        return sum_t;
      case AnalyticType::kAvg:
        return n > 0.0 ? sum_t / n : 0.0;
      case AnalyticType::kVariance: {
        if (n < 2.0) return 0.0;
        const double var = (sum_tt - sum_t * sum_t / n) / (n - 1.0);
        return var > 0.0 ? var : 0.0;
      }
      case AnalyticType::kCorrelation: {
        if (n < 2.0) return 0.0;
        const double cov = sum_tu - sum_t * sum_u / n;
        const double vt = sum_tt - sum_t * sum_t / n;
        const double vu = sum_uu - sum_u * sum_u / n;
        const double denom = std::sqrt(vt * vu);
        return denom > 0.0 ? cov / denom : 0.0;
      }
      case AnalyticType::kRegressionSlope: {
        if (n < 2.0) return 0.0;
        const double cov = sum_tu - sum_t * sum_u / n;
        const double vt = sum_tt - sum_t * sum_t / n;
        return vt > 0.0 ? cov / vt : 0.0;
      }
      case AnalyticType::kRegressionIntercept: {
        if (n < 2.0) return 0.0;
        const double cov = sum_tu - sum_t * sum_u / n;
        const double vt = sum_tt - sum_t * sum_t / n;
        const double slope = vt > 0.0 ? cov / vt : 0.0;
        return sum_u / n - slope * sum_t / n;
      }
    }
    return 0.0;
  }

  double ci_halfwidth(AnalyticType type) const noexcept {
    // Crude CLT-style 95% intervals; enough for the bench comparisons.
    switch (type) {
      case AnalyticType::kCount:
        return 1.96 * std::sqrt(std::max(0.0, var_n));
      case AnalyticType::kSum: {
        if (raw_n < 2.0 || n <= 0.0) return 0.0;
        const double mean = sum_t / n;
        const double var =
            std::max(0.0, sum_tt / n - mean * mean);
        return 1.96 * std::sqrt(var / raw_n) * n +
               1.96 * std::sqrt(std::max(0.0, var_n)) * std::abs(mean);
      }
      case AnalyticType::kAvg: {
        if (raw_n < 2.0 || n <= 0.0) return 0.0;
        const double mean = sum_t / n;
        const double var = std::max(0.0, sum_tt / n - mean * mean);
        return 1.96 * std::sqrt(var / raw_n);
      }
      default:
        return 0.0;  // dependence statistics: no closed form provided
    }
  }
};

}  // namespace

namespace {
/// Distinct engines over the same base table must not collide on the
/// materialized sample's name.
std::atomic<std::uint64_t> g_sample_id{0};
}  // namespace

SamplingEngine::SamplingEngine(Cluster& cluster, std::string base_table,
                               SamplingConfig config)
    : cluster_(cluster),
      base_table_(std::move(base_table)),
      sample_table_(base_table_ + "__sample" +
                    std::to_string(g_sample_id.fetch_add(1))),
      config_(config) {
  if (!cluster_.has_table(base_table_))
    throw std::invalid_argument("SamplingEngine: unknown table " +
                                base_table_);
  if (config_.sample_rate <= 0.0 || config_.sample_rate > 1.0)
    throw std::invalid_argument("SamplingEngine: sample_rate in (0,1]");
}

ExecReport SamplingEngine::build() {
  ExecReport total_report;

  // Stratified sampling needs per-stratum counts first: one accounted pass.
  std::vector<double> stratum_rate;
  double col_lo = 0.0, col_hi = 1.0;
  if (config_.strategy == SamplingStrategy::kStratified) {
    MapReduceJob<std::size_t, std::uint64_t, std::uint64_t> count_job;
    // First sub-pass (cheap, merged into the same job): global min/max of
    // the stratification column is required to bin. We fold min/max into
    // per-node scans at the coordinator by scanning bounds locally.
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
      const Table& part = cluster_.partition(base_table_,
                                             static_cast<NodeId>(n));
      cluster_.account_task(static_cast<NodeId>(n));
      cluster_.account_scan(static_cast<NodeId>(n), part.num_rows(),
                            part.num_rows() * sizeof(double));
      const auto col = part.column(config_.stratify_col);
      for (const double v : col) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (!(hi > lo)) hi = lo + 1.0;
    col_lo = lo;
    col_hi = hi;
    const std::size_t strata = std::max<std::size_t>(1, config_.strata);
    count_job.map = [this, lo, hi, strata](NodeId, const Table& part,
                                           Emitter<std::size_t,
                                                   std::uint64_t>& out) {
      std::vector<std::uint64_t> counts(strata, 0);
      const auto col = part.column(config_.stratify_col);
      for (const double v : col) {
        auto b = static_cast<std::size_t>((v - lo) / (hi - lo) *
                                          static_cast<double>(strata));
        b = std::min(b, strata - 1);
        ++counts[b];
      }
      for (std::size_t s = 0; s < strata; ++s)
        if (counts[s]) out.emit(s, counts[s]);
    };
    count_job.reduce = [](const std::size_t&, std::vector<std::uint64_t>& v) {
      std::uint64_t sum = 0;
      for (const auto c : v) sum += c;
      return sum;
    };
    auto counted = run_map_reduce(cluster_, base_table_, count_job);
    total_report.merge(counted.report);
    stratum_rate.assign(strata, config_.sample_rate);
    for (const auto& [s, cnt] : counted.results) {
      const double need =
          static_cast<double>(config_.min_per_stratum) /
          std::max<double>(1.0, static_cast<double>(cnt));
      stratum_rate[s] = std::min(1.0, std::max(config_.sample_rate, need));
    }
  }

  // Sampling pass: each node scans its partition, keeps rows per the rate,
  // and the kept rows travel (accounted) to form the sample table.
  const Table& part0 = cluster_.partition(base_table_, 0);
  const std::size_t base_cols = part0.num_columns();
  weight_col_ = base_cols;

  MapReduceJob<int, std::vector<double>, int> job;
  job.kv_bytes = (base_cols + 1) * sizeof(double);
  job.result_bytes = 8;
  const std::size_t strata = std::max<std::size_t>(1, config_.strata);
  const auto cfg = config_;
  const double lo = col_lo, hi = col_hi;
  std::vector<std::vector<double>> sampled_rows;
  job.map = [&, cfg](NodeId node, const Table& part,
                     Emitter<int, std::vector<double>>& out) {
    Rng rng(cfg.seed ^ (0x9e3779b9ULL * (node + 1)));
    std::vector<double> row(base_cols + 1);
    for (std::size_t r = 0; r < part.num_rows(); ++r) {
      double rate = cfg.sample_rate;
      if (cfg.strategy == SamplingStrategy::kStratified) {
        const double v = part.at(r, cfg.stratify_col);
        auto b = static_cast<std::size_t>((v - lo) / (hi - lo) *
                                          static_cast<double>(strata));
        b = std::min(b, strata - 1);
        rate = stratum_rate[b];
      }
      if (!rng.bernoulli(rate)) continue;
      for (std::size_t c = 0; c < base_cols; ++c) row[c] = part.at(r, c);
      row[base_cols] = 1.0 / rate;
      out.emit(0, row);
    }
  };
  job.reduce = [&sampled_rows](const int&,
                               std::vector<std::vector<double>>& rows) {
    for (auto& r : rows) sampled_rows.push_back(std::move(r));
    return 0;
  };
  auto mr = run_map_reduce(cluster_, base_table_, job);
  total_report.merge(mr.report);

  std::vector<std::string> names = part0.schema().names();
  names.push_back("__weight");
  Table sample{Schema(names)};
  sample.reserve(sampled_rows.size());
  for (const auto& r : sampled_rows) sample.append_row(r);
  sample_rows_ = sample.num_rows();
  sample_bytes_ = sample.byte_size();
  cluster_.load_table(sample_table_, sample, PartitionSpec{});
  built_ = true;
  return total_report;
}

AqpAnswer SamplingEngine::answer(const AnalyticalQuery& query) {
  AqpAnswer out;
  if (!built_) throw std::logic_error("SamplingEngine::answer before build");
  query.validate();
  if (query.selection == SelectionType::kNearestNeighbors) {
    out.supported = false;  // sample-kNN returns the wrong neighbourhood
    return out;
  }
  out.supported = true;

  const std::size_t wcol = weight_col_;
  MapReduceJob<int, WeightedAgg, WeightedAgg> job;
  job.kv_bytes = sizeof(WeightedAgg);
  job.result_bytes = sizeof(WeightedAgg);
  job.map = [&query, wcol](NodeId, const Table& part,
                           Emitter<int, WeightedAgg>& out_) {
    // Fused columnar scan: each block's qualifying rows (ascending ids)
    // are folded while in cache, in row order — the same adds in the same
    // order as folding one whole-partition selection vector.
    const auto w_col = part.column(wcol);
    const std::span<const double> t_col = needs_target(query.analytic)
                                              ? part.column(query.target_col)
                                              : std::span<const double>();
    const std::span<const double> u_col =
        needs_second_target(query.analytic) ? part.column(query.target_col2)
                                            : std::span<const double>();
    WeightedAgg agg;
    const auto fold = [&](std::span<const std::uint32_t> ids) {
      for (const std::uint32_t r : ids)
        agg.add(w_col[r], t_col.empty() ? 0.0 : t_col[r],
                u_col.empty() ? 0.0 : u_col[r]);
    };
    if (query.selection == SelectionType::kRange)
      visit_range(part, query.subspace_cols, query.range, fold);
    else
      visit_ball(part, query.subspace_cols, query.ball, fold);
    out_.emit(0, agg);
  };
  job.reduce = [](const int&, std::vector<WeightedAgg>& states) {
    WeightedAgg total;
    for (const auto& s : states) total.merge(s);
    return total;
  };
  auto mr = run_map_reduce(cluster_, sample_table_, job);
  WeightedAgg total;
  for (auto& [k, agg] : mr.results) {
    (void)k;
    total.merge(agg);
  }
  out.value = total.finalize(query.analytic);
  out.ci_halfwidth = total.ci_halfwidth(query.analytic);
  out.report = mr.report;
  return out;
}

}  // namespace sea
