#include "sea/agent.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"

namespace sea {

DatalessAgent::DatalessAgent(
    AgentConfig config,
    std::function<Rect(const std::vector<std::size_t>&)> domain_provider)
    : config_(config), domain_provider_(std::move(domain_provider)) {
  if (!domain_provider_)
    throw std::invalid_argument("DatalessAgent: null domain provider");
  if (config_.max_relative_error <= 0.0)
    throw std::invalid_argument("DatalessAgent: max_relative_error must be > 0");
  if (config_.confidence <= 0.0 || config_.confidence >= 1.0)
    throw std::invalid_argument("DatalessAgent: confidence must be in (0,1)");
}

namespace {

/// Mass-proportional analytics (count, sum) are learned as densities:
/// target / volume-proxy, where the volume proxy is the last model feature
/// (box volume, r^d, or k). This removes the dominant source of variance
/// (subspace size) before the local linear fit, cf. [26]-[29].
double mass_scale(const AnalyticalQuery& q,
                  const std::vector<double>& model_features) noexcept {
  if (q.analytic != AnalyticType::kCount && q.analytic != AnalyticType::kSum)
    return 1.0;
  return std::max(1e-3, model_features.back());
}

}  // namespace

DatalessAgent::SignatureState& DatalessAgent::state_for(
    const AnalyticalQuery& query) {
  const std::string sig = query.signature();
  auto it = signatures_.find(sig);
  if (it == signatures_.end()) {
    Rect domain = domain_provider_(query.subspace_cols);
    it = signatures_
             .emplace(sig, SignatureState(config_, std::move(domain)))
             .first;
  }
  return it->second;
}

double DatalessAgent::staleness_multiplier() const noexcept {
  if (staleness_ <= 0.0) return 1.0;
  const double recovery =
      config_.staleness_recovery == 0
          ? 0.0
          : 1.0 - std::min(1.0, static_cast<double>(fresh_since_update_) /
                                    static_cast<double>(
                                        config_.staleness_recovery));
  return 1.0 + config_.staleness_inflation * staleness_ * recovery;
}

std::optional<double> DatalessAgent::model_predict(
    const QuantumModel& qm, const std::vector<double>& features,
    std::size_t feature_dims) const {
  const bool warm_linear =
      qm.linear.fitted() && qm.xs.size() >= 2 * (feature_dims + 1);
  switch (config_.model_kind) {
    case QuantumModelKind::kLinear:
      if (qm.linear.fitted()) return qm.linear.predict(features);
      return std::nullopt;
    case QuantumModelKind::kKnn:
      if (qm.knn.size() > 0) return qm.knn.predict(features);
      return std::nullopt;
    case QuantumModelKind::kAuto:
      if (qm.prefer_gbm && qm.gbm.fitted()) return qm.gbm.predict(features);
      if (warm_linear) return qm.linear.predict(features);
      if (qm.knn.size() > 0) return qm.knn.predict(features);
      return std::nullopt;
    case QuantumModelKind::kGbm:
      if (qm.gbm.fitted() && qm.xs.size() >= 2 * (feature_dims + 1))
        return qm.gbm.predict(features);
      if (qm.knn.size() > 0) return qm.knn.predict(features);
      return std::nullopt;
  }
  return std::nullopt;
}

void DatalessAgent::maybe_refit(QuantumModel& qm, std::size_t feature_dims) {
  if (qm.xs.size() < feature_dims + 2) return;
  if (config_.model_kind == QuantumModelKind::kGbm) {
    if (qm.since_refit < config_.refit_interval && qm.gbm.fitted()) return;
    qm.gbm = GbmRegressor(quantum_gbm_params());
    qm.gbm.fit(qm.xs, qm.ys, &qm.rng);
    qm.since_refit = 0;
    return;
  }
  if (qm.since_refit < config_.refit_interval &&
      qm.linear.fitted())
    return;
  // Columnar refit: transpose the quantum's training store once and hand
  // the linear fit contiguous column spans (bit-identical to the row-major
  // fit, see linear.h; the normal-equation dot products then run over
  // contiguous memory).
  const std::size_t rows = qm.xs.size();
  const std::size_t dims = qm.xs[0].size();
  std::vector<double> x_cols(rows * dims);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < dims; ++i) x_cols[i * rows + r] = qm.xs[r][i];
  qm.linear.fit_columns(x_cols, rows, dims, qm.ys, config_.ridge_lambda);
  qm.since_refit = 0;

  // Query-driven model selection (paper [48]): compare linear vs GBM on a
  // chronological 80/20 split and keep the held-out winner.
  if (config_.model_kind == QuantumModelKind::kAuto &&
      config_.auto_select_model &&
      qm.xs.size() >= config_.select_min_samples) {
    const std::size_t split = qm.xs.size() * 4 / 5;
    const std::span<const std::vector<double>> train_x(qm.xs.data(), split);
    const std::span<const double> train_y(qm.ys.data(), split);
    // Train-prefix columns, re-packed at the prefix length.
    std::vector<double> train_cols(split * dims);
    for (std::size_t r = 0; r < split; ++r)
      for (std::size_t i = 0; i < dims; ++i)
        train_cols[i * split + r] = qm.xs[r][i];
    LinearModel lin;
    lin.fit_columns(train_cols, split, dims, train_y, config_.ridge_lambda);
    const GbmParams params = quantum_gbm_params();
    GbmRegressor gbm(params);
    gbm.fit(train_x, train_y, &qm.rng);
    double lin_sse = 0.0, gbm_sse = 0.0;
    for (std::size_t i = split; i < qm.xs.size(); ++i) {
      const double le = lin.predict(qm.xs[i]) - qm.ys[i];
      const double ge = gbm.predict(qm.xs[i]) - qm.ys[i];
      lin_sse += le * le;
      gbm_sse += ge * ge;
    }
    qm.prefer_gbm = gbm_sse < lin_sse;
    if (qm.prefer_gbm) {
      // Refit the winner on all pairs for serving.
      qm.gbm = GbmRegressor(params);
      qm.gbm.fit(qm.xs, qm.ys, &qm.rng);
    }
  }
}

std::optional<Prediction> DatalessAgent::try_predict(
    const AnalyticalQuery& query) {
  SignatureState& st = state_for(query);
  const QueryFeatures f = extract_features(query, st.domain);
  const std::size_t qid = st.quantizer.assign(f.position);
  if (qid == SIZE_MAX || qid >= st.models.size() || !st.models[qid]) {
    ++stats_.predictions_declined;
    return std::nullopt;
  }
  QuantumModel& qm = *st.models[qid];
  if (qm.xs.size() < config_.min_samples_to_predict ||
      qm.abs_residuals.count() < config_.min_samples_to_predict / 2) {
    ++stats_.predictions_declined;
    return std::nullopt;
  }
  auto value = model_predict(qm, f.model, f.model.size());
  if (!value) {
    ++stats_.predictions_declined;
    return std::nullopt;
  }
  value = *value * mass_scale(query, f.model);
  if (query.analytic == AnalyticType::kCount ||
      query.analytic == AnalyticType::kVariance)
    value = std::max(0.0, *value);
  Prediction p;
  p.value = *value;
  p.expected_abs_error =
      qm.abs_residuals.quantile(config_.confidence) * staleness_multiplier();
  p.expected_rel_error =
      p.expected_abs_error / std::max(std::abs(p.value), config_.rel_floor);
  p.quantum = qid;
  p.quantum_population = qm.xs.size();
  if (p.expected_rel_error > config_.max_relative_error) {
    ++stats_.predictions_declined;
    return std::nullopt;
  }
  ++stats_.predictions_served;
  return p;
}

Prediction DatalessAgent::predict_unchecked(const AnalyticalQuery& query) {
  auto p = maybe_predict(query);
  if (!p)
    throw std::logic_error("DatalessAgent::predict_unchecked: no model for " +
                           query.signature());
  return *p;
}

std::optional<Prediction> DatalessAgent::maybe_predict(
    const AnalyticalQuery& query) {
  SignatureState& st = state_for(query);
  const QueryFeatures f = extract_features(query, st.domain);
  const std::size_t qid = st.quantizer.assign(f.position);
  if (qid == SIZE_MAX || qid >= st.models.size() || !st.models[qid])
    return std::nullopt;
  QuantumModel& qm = *st.models[qid];
  auto value = model_predict(qm, f.model, f.model.size());
  if (!value) return std::nullopt;
  value = *value * mass_scale(query, f.model);
  // Domain knowledge: counts and variances cannot be negative.
  if (query.analytic == AnalyticType::kCount ||
      query.analytic == AnalyticType::kVariance)
    value = std::max(0.0, *value);
  Prediction p;
  p.value = *value;
  p.expected_abs_error =
      qm.abs_residuals.empty()
          ? std::numeric_limits<double>::infinity()
          : qm.abs_residuals.quantile(config_.confidence) *
                staleness_multiplier();
  p.expected_rel_error =
      p.expected_abs_error / std::max(std::abs(p.value), config_.rel_floor);
  p.quantum = qid;
  p.quantum_population = qm.xs.size();
  return p;
}

DatalessAgent::PeekResult DatalessAgent::peek_predict(
    const AnalyticalQuery& query) const {
  PeekResult out;
  const auto it = signatures_.find(query.signature());
  if (it == signatures_.end()) return out;
  const SignatureState& st = it->second;
  const QueryFeatures f = extract_features(query, st.domain);
  const std::size_t qid = st.quantizer.assign(f.position);
  if (qid == SIZE_MAX || qid >= st.models.size() || !st.models[qid]) return out;
  const QuantumModel& qm = *st.models[qid];
  auto value = model_predict(qm, f.model, f.model.size());
  if (!value) return out;
  value = *value * mass_scale(query, f.model);
  if (query.analytic == AnalyticType::kCount ||
      query.analytic == AnalyticType::kVariance)
    value = std::max(0.0, *value);
  Prediction& p = out.prediction;
  p.value = *value;
  p.expected_abs_error =
      qm.abs_residuals.empty()
          ? std::numeric_limits<double>::infinity()
          : qm.abs_residuals.quantile(config_.confidence) *
                staleness_multiplier();
  p.expected_rel_error =
      p.expected_abs_error / std::max(std::abs(p.value), config_.rel_floor);
  p.quantum = qid;
  p.quantum_population = qm.xs.size();
  out.usable = true;
  out.confident =
      qm.xs.size() >= config_.min_samples_to_predict &&
      qm.abs_residuals.count() >= config_.min_samples_to_predict / 2 &&
      p.expected_rel_error <= config_.max_relative_error;
  return out;
}

void DatalessAgent::observe(const AnalyticalQuery& query,
                            double exact_answer) {
  absorb(query, exact_answer, /*defer_refit=*/false);
}

void DatalessAgent::observe_batch(
    std::span<const std::pair<AnalyticalQuery, double>> batch) {
  // Phase 1 (serial, batch order): every shared-state mutation —
  // quantization, prequential residuals, drift handling, bounded stores,
  // staleness and purge bookkeeping — exactly as repeated observe() calls
  // would, except refits are marked pending instead of run inline.
  for (const auto& [query, answer] : batch)
    absorb(query, answer, /*defer_refit=*/true);

  // Phase 2 (parallel fan-out): refit each touched quantum at most once.
  // Quanta are independent — each owns its model state and its private RNG
  // stream — so the fitted models are identical at any thread count.
  std::vector<QuantumModel*> pending;
  for (auto& [sig, st] : signatures_) {
    (void)sig;
    for (auto& m : st.models)
      if (m && m->refit_pending) pending.push_back(&*m);
  }
  ParallelFor(pending.size(), [&](std::size_t i) {
    QuantumModel& qm = *pending[i];
    qm.refit_pending = false;
    if (!qm.xs.empty()) maybe_refit(qm, qm.xs.back().size());
  });
}

void DatalessAgent::absorb(const AnalyticalQuery& query, double exact_answer,
                           bool defer_refit) {
  SignatureState& st = state_for(query);
  const QueryFeatures f = extract_features(query, st.domain);
  const std::size_t qid = st.quantizer.observe(f.position);
  if (qid >= st.models.size()) st.models.resize(qid + 1);
  if (!st.models[qid])
    st.models[qid].emplace(config_, quantum_stream_seed(config_.seed, qid));
  QuantumModel& qm = *st.models[qid];

  const double scale = mass_scale(query, f.model);
  // Prequential residual: score the current model on this example *before*
  // absorbing it, so residual quantiles honestly estimate serving error.
  if (const auto pred = model_predict(qm, f.model, f.model.size())) {
    const double abs_err = std::abs(*pred * scale - exact_answer);
    qm.abs_residuals.add(abs_err);
    if (qm.drift.add(abs_err)) {
      ++stats_.drift_alarms;
      // Keep the most recent quarter of pairs: the new concept's data.
      const std::size_t keep = qm.xs.size() / 4;
      qm.xs.erase(qm.xs.begin(),
                  qm.xs.end() - static_cast<std::ptrdiff_t>(keep));
      qm.ys.erase(qm.ys.begin(),
                  qm.ys.end() - static_cast<std::ptrdiff_t>(keep));
      qm.knn.clear();
      for (std::size_t i = 0; i < qm.xs.size(); ++i)
        qm.knn.add(qm.xs[i], qm.ys[i]);
      qm.abs_residuals.clear();
      qm.linear = LinearModel{};
      qm.gbm = GbmRegressor{};
      qm.since_refit = config_.refit_interval;  // force refit
    }
  }

  // Bounded training store: drop the oldest pair when full.
  if (qm.xs.size() >= config_.max_samples_per_quantum) {
    qm.xs.erase(qm.xs.begin());
    qm.ys.erase(qm.ys.begin());
    qm.knn.pop_front();
  }
  qm.xs.push_back(f.model);
  qm.ys.push_back(exact_answer / scale);
  qm.knn.add(f.model, exact_answer / scale);
  ++qm.since_refit;
  if (defer_refit)
    qm.refit_pending = true;
  else
    maybe_refit(qm, f.model.size());

  ++stats_.observations;
  if (staleness_ > 0.0) {
    ++fresh_since_update_;
    if (fresh_since_update_ >= config_.staleness_recovery) {
      staleness_ = 0.0;
      fresh_since_update_ = 0;
    }
  }

  // Interest-drift housekeeping (RT1.4-i): drop long-unused quanta.
  if (config_.purge_idle > 0 &&
      st.quantizer.clock() % (config_.purge_idle / 4 + 1) == 0) {
    std::vector<std::size_t> remap;
    const auto removed = st.quantizer.purge_stale(config_.purge_idle, &remap);
    if (!removed.empty()) {
      stats_.quanta_purged += removed.size();
      std::vector<std::optional<QuantumModel>> kept(st.quantizer.size());
      for (std::size_t old = 0; old < remap.size(); ++old) {
        if (remap[old] != SIZE_MAX && old < st.models.size())
          kept[remap[old]] = std::move(st.models[old]);
      }
      st.models = std::move(kept);
    }
  }
}

void DatalessAgent::note_data_update(double fraction) {
  if (fraction < 0.0)
    throw std::invalid_argument("note_data_update: negative fraction");
  staleness_ = std::min(1.0, staleness_ + fraction);
  fresh_since_update_ = 0;
}

std::size_t DatalessAgent::num_quanta(const std::string& signature) const {
  const auto it = signatures_.find(signature);
  return it == signatures_.end() ? 0 : it->second.quantizer.size();
}

std::vector<Point> DatalessAgent::quanta_centers(
    const std::string& signature, std::uint64_t min_population) const {
  std::vector<Point> out;
  const auto it = signatures_.find(signature);
  if (it == signatures_.end()) return out;
  out.reserve(it->second.quantizer.size());
  for (std::size_t q = 0; q < it->second.quantizer.size(); ++q) {
    const Quantum& quantum = it->second.quantizer.quantum(q);
    if (quantum.population >= min_population)
      out.push_back(quantum.center);
  }
  return out;
}

Point DatalessAgent::query_position(const AnalyticalQuery& query) {
  SignatureState& st = state_for(query);
  return extract_features(query, st.domain).position;
}

std::size_t DatalessAgent::byte_size() const noexcept {
  std::size_t total = 0;
  for (const auto& [sig, st] : signatures_) {
    (void)sig;
    for (std::size_t q = 0; q < st.quantizer.size(); ++q)
      total += st.quantizer.quantum(q).center.size() * sizeof(double) +
               sizeof(Quantum);
    for (const auto& m : st.models) {
      if (!m) continue;
      for (const auto& x : m->xs) total += x.size() * sizeof(double);
      total += m->ys.size() * sizeof(double);
      total += m->linear.byte_size();
      if (m->gbm.fitted()) total += m->gbm.byte_size();
    }
  }
  return total;
}

}  // namespace sea
