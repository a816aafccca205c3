// The intelligent data-less analytics agent (paper §III.B, Fig. 2, RT1).
//
// The agent sits between analysts and the BDAS. It learns, per query
// *signature* (selection family × analytic × target columns):
//
//  RT1.1 Query-space quantization — an OnlineQuantizer over the normalized
//        subspace centres of incoming queries tracks where analysts are
//        looking; quanta grow, adapt, and are purged as interests drift.
//  RT1.2 Answer-space modelling — per quantum, a ridge linear model from
//        query geometry features to the answer (kNN regressor while the
//        quantum is cold, optional GBM for non-linear answer surfaces).
//  RT1.3 Prediction + error estimation — prequential absolute residuals
//        per quantum give a conformal-style error quantile; a prediction
//        is served data-less only when the expected error is acceptable,
//        otherwise the caller is told to execute exactly (and feed the
//        answer back via observe()).
//  RT1.4 Maintenance — an ADWIN-style drift detector per quantum retrains
//        on query-pattern/data drift; note_data_update() inflates error
//        expectations until enough fresh observations arrive.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "ml/drift.h"
#include "ml/gbm.h"
#include "ml/kmeans.h"
#include "ml/knn_model.h"
#include "ml/linear.h"
#include "sea/query.h"

namespace sea {

enum class QuantumModelKind {
  kAuto,    ///< linear once warm, kNN while cold (default)
  kLinear,  ///< force linear
  kKnn,     ///< force kNN regressor
  kGbm,     ///< gradient-boosted trees once warm, kNN while cold (RT3.3)
};

struct AgentConfig {
  std::size_t max_quanta = 128;
  /// Queries farther than this (normalized space) from all quanta open a
  /// new quantum.
  double create_distance = 0.12;
  /// Minimum (query, answer) pairs in a quantum before serving from it.
  std::size_t min_samples_to_predict = 20;
  /// Refit the quantum's linear model every this many new observations.
  std::size_t refit_interval = 16;
  double ridge_lambda = 1e-4;
  /// Conformal coverage target for the error interval.
  double confidence = 0.9;
  /// Serve a prediction only when the expected error relative to
  /// max(|prediction|, rel_floor) is below this.
  double max_relative_error = 0.2;
  double rel_floor = 1.0;
  std::size_t knn_k = 5;
  QuantumModelKind model_kind = QuantumModelKind::kAuto;
  /// Drift detector window / confidence over per-quantum abs residuals.
  std::size_t drift_window = 48;
  double drift_confidence = 0.01;
  /// Purge quanta unused for this many observations (0 = never).
  std::uint64_t purge_idle = 0;
  /// Error inflation applied per unit of reported data-update fraction.
  double staleness_inflation = 4.0;
  /// Fresh observations needed to fully clear staleness.
  std::size_t staleness_recovery = 32;
  /// Cap on stored training pairs per quantum (ring buffer semantics).
  std::size_t max_samples_per_quantum = 512;
  /// Query-driven model selection (paper [48], RT3.3): under kAuto, once a
  /// quantum holds at least `select_min_samples` pairs, each refit fits
  /// both a linear model and a GBM on the older 80% and keeps whichever
  /// wins on the held-out newest 20%.
  bool auto_select_model = false;
  std::size_t select_min_samples = 60;
  /// Root seed for the agent's stochastic components. Each quantum derives
  /// its own RNG stream from this seed and its quantum id, so refits draw
  /// identical randomness no matter which worker thread runs them
  /// (DESIGN.md "Concurrency model").
  std::uint64_t seed = 0x5ea00001ULL;
};

struct Prediction {
  double value = 0.0;
  /// Expected absolute error (conformal quantile, staleness-inflated).
  double expected_abs_error = 0.0;
  double expected_rel_error = 0.0;
  std::size_t quantum = 0;
  std::size_t quantum_population = 0;
};

struct AgentStats {
  std::uint64_t predictions_served = 0;   ///< confident, data-less answers
  std::uint64_t predictions_declined = 0; ///< fell back to exact execution
  std::uint64_t observations = 0;         ///< (query, answer) pairs absorbed
  std::uint64_t drift_alarms = 0;
  std::uint64_t quanta_purged = 0;
};

class DatalessAgent {
 public:
  /// `domain_provider` returns the data-domain bounding box for a set of
  /// subspace columns (used to normalize query features). Typically wired
  /// to ExactExecutor::domain.
  DatalessAgent(AgentConfig config,
                std::function<Rect(const std::vector<std::size_t>&)>
                    domain_provider);

  /// Data-less answer if the agent is confident; nullopt => the caller
  /// should execute exactly and call observe() with the truth.
  std::optional<Prediction> try_predict(const AnalyticalQuery& query);

  /// Always predicts (no confidence gate); throws std::logic_error when the
  /// signature has no usable model at all. Used by explanations and
  /// higher-level data-less exploration.
  Prediction predict_unchecked(const AnalyticalQuery& query);

  /// Like predict_unchecked but returns nullopt instead of throwing, and
  /// does not count towards serve/decline statistics.
  std::optional<Prediction> maybe_predict(const AnalyticalQuery& query);

  /// Result of a read-only prediction probe (peek_predict).
  struct PeekResult {
    Prediction prediction;
    bool usable = false;     ///< a model produced a value (maybe_predict)
    bool confident = false;  ///< it also passes the try_predict serving gate
  };

  /// Read-only analogue of try_predict / maybe_predict: never creates
  /// signature state, never updates statistics, safe to call concurrently
  /// with other const methods. Batched serving uses it to fan predictions
  /// out across SEA_THREADS workers against a frozen agent.
  PeekResult peek_predict(const AnalyticalQuery& query) const;

  /// Serving-outcome bookkeeping for batch callers that gate predictions
  /// obtained via peek_predict: counts a served / declined prediction
  /// exactly as try_predict would have.
  void record_serve_outcome(bool served) noexcept {
    if (served)
      ++stats_.predictions_served;
    else
      ++stats_.predictions_declined;
  }

  /// Absorbs ground truth for a query (training / feedback path).
  void observe(const AnalyticalQuery& query, double exact_answer);

  /// Absorbs a batch of (query, truth) pairs. Shared state — quantization,
  /// prequential residuals, drift handling, bounded stores — is updated
  /// serially in batch order, exactly as repeated observe() calls would;
  /// model refits are deferred to the end of the batch and then run at most
  /// once per touched quantum, in parallel (SEA_THREADS). Each quantum owns
  /// an RNG stream derived from config().seed and its id, so the result is
  /// identical at any thread count.
  void observe_batch(
      std::span<const std::pair<AnalyticalQuery, double>> batch);

  /// Signals that `fraction` of the base data changed (RT1.4-ii): inflates
  /// expected errors until staleness_recovery fresh observations arrive.
  void note_data_update(double fraction);

  const AgentStats& stats() const noexcept { return stats_; }
  const AgentConfig& config() const noexcept { return config_; }

  /// The per-quantum GBM configuration (shared by refit and deserialize;
  /// bench_micro times fits with it).
  static GbmParams quantum_gbm_params() noexcept {
    GbmParams params;
    params.num_trees = 60;
    params.max_depth = 3;
    params.min_leaf = 3;
    return params;
  }

  /// Number of quanta for a signature (0 when unseen).
  std::size_t num_quanta(const std::string& signature) const;
  std::size_t num_signatures() const noexcept { return signatures_.size(); }

  /// Centroids of the signature's quanta in normalized query space — the
  /// shareable "model state" of RT5.2 (which subspaces this agent has
  /// models for). Empty when the signature is unseen. `min_population`
  /// filters to quanta warm enough to be worth advertising to peers.
  std::vector<Point> quanta_centers(const std::string& signature,
                                    std::uint64_t min_population = 0) const;

  /// Normalized query-space position of a query (for routing decisions).
  Point query_position(const AnalyticalQuery& query);

  /// Total model footprint: codebooks + training pairs + fitted models.
  std::size_t byte_size() const noexcept;

  /// Writes the agent's shippable state (config, per-signature quantizers,
  /// training pairs, fitted linear models, residual windows) as a binary
  /// stream — the unit that crosses the WAN in model-shipping deployments
  /// (RT1.5, RT5.2). Drift-detector state is deliberately not shipped: a
  /// freshly placed model starts watching its new environment from scratch.
  void serialize(std::ostream& out) const;

  /// Reconstructs an agent from a serialized stream. kNN fallbacks are
  /// rebuilt from the shipped training pairs, so predictions match the
  /// source agent exactly. Throws std::runtime_error on malformed input.
  static DatalessAgent deserialize(
      std::istream& in,
      std::function<Rect(const std::vector<std::size_t>&)> domain_provider);

 private:
  struct QuantumModel {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    LinearModel linear;
    GbmRegressor gbm;  ///< fitted under kGbm, or by auto-selection ([48])
    /// kAuto + auto_select_model: true when the held-out comparison chose
    /// the GBM over the linear model for this quantum.
    bool prefer_gbm = false;
    KnnRegressor knn;
    SlidingQuantile abs_residuals;
    AdwinLiteDetector drift;
    std::size_t since_refit = 0;
    /// Private RNG stream (seeded from the agent seed + quantum id) that
    /// feeds stochastic refits; never shared across quanta, so parallel
    /// refits stay reproducible. Not serialized.
    Rng rng;
    /// Set by observe_batch() when a refit is due; cleared by the deferred
    /// refit pass. Transient, not serialized.
    bool refit_pending = false;

    QuantumModel(const AgentConfig& cfg, std::uint64_t stream_seed)
        : knn(cfg.knn_k),
          abs_residuals(96),
          drift(cfg.drift_window, cfg.drift_confidence),
          rng(stream_seed) {}
  };

  struct SignatureState {
    OnlineQuantizer quantizer;
    std::vector<std::optional<QuantumModel>> models;
    Rect domain;

    SignatureState(const AgentConfig& cfg, Rect dom)
        : quantizer(cfg.max_quanta, cfg.create_distance),
          domain(std::move(dom)) {}
  };

  /// Seed of a quantum's private RNG stream: a pure function of the root
  /// seed and the quantum id, so any worker (or a deserialized replica)
  /// reconstructs the same stream.
  static std::uint64_t quantum_stream_seed(std::uint64_t root_seed,
                                           std::uint64_t quantum_id) noexcept {
    SplitMix64 sm(root_seed + 0x9e3779b97f4a7c15ULL * (quantum_id + 1));
    return sm.next();
  }

  SignatureState& state_for(const AnalyticalQuery& query);
  /// Shared observe body; defer_refit postpones maybe_refit (observe_batch
  /// phase 2) instead of running it inline.
  void absorb(const AnalyticalQuery& query, double exact_answer,
              bool defer_refit);
  /// Model prediction for features within a quantum; nullopt when cold.
  std::optional<double> model_predict(const QuantumModel& qm,
                                      const std::vector<double>& features,
                                      std::size_t feature_dims) const;
  void maybe_refit(QuantumModel& qm, std::size_t feature_dims);
  double staleness_multiplier() const noexcept;

  AgentConfig config_;
  std::function<Rect(const std::vector<std::size_t>&)> domain_provider_;
  std::unordered_map<std::string, SignatureState> signatures_;
  AgentStats stats_;
  double staleness_ = 0.0;
  std::size_t fresh_since_update_ = 0;
};

}  // namespace sea
