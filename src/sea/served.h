// ServedAnalytics — the full Fig. 2 serving loop.
//
// Queries arrive; the agent intercepts them. During the bootstrap phase
// (and whenever the agent is not confident) the query executes exactly on
// the BDAS and the (query, answer) pair trains the agent. Once models are
// warm, confident queries are answered data-less: zero base-data access,
// zero network traffic. An optional audit channel re-executes a sample of
// served queries so accuracy can be tracked in production (and so the
// drift detectors keep receiving residuals after the system goes
// data-less — the paper's model-maintenance loop, RT1.4).
//
// Availability (paper P4): when exact execution fails — all replica
// holders of a shard down, an RPC exhausts its retries, or the query's
// deadline budget runs out — the loop does not throw: it serves the
// agent's best model answer flagged `degraded=true` (the Fig. 2 data-less
// agent is uniquely positioned to keep answering when base data is
// unreachable). Only a query whose signature the agent has never modelled
// fails: serve_batch() flags its slot `failed`, serve() rethrows the outage.
//
// There is one outcome ladder (serve_batch); serve(q) is a one-element
// batch, so single-query and batched serving cannot drift apart.
//
// Overload control (DESIGN.md "Deadlines & overload"): an optional
// admission queue tracks a *modelled* backlog of exact-execution work.
// Each arrival drains `drain_ms_per_query` of backlog; each exact
// execution adds its modelled cost. Above the high-water mark, queries
// that would hit the BDAS are shed to the model-backed path instead
// (`ServedAnswer.shed = true`) — the agent absorbs overload the same way
// it absorbs outages. All quantities are modelled, so shedding decisions
// are bit-identical at any SEA_THREADS setting.
#pragma once

#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sea/agent.h"
#include "sea/exact.h"

namespace sea {

struct ServeConfig {
  /// Execute the first N queries exactly regardless of confidence
  /// ("training queries", Fig. 2).
  std::size_t bootstrap_queries = 100;
  ExecParadigm exact_paradigm = ExecParadigm::kCoordinatorIndexed;
  /// Fraction of *served* (data-less) queries to also execute exactly, as
  /// an accuracy audit + continued training signal.
  double audit_fraction = 0.05;
  std::uint64_t audit_seed = 99;
  /// Per-query modelled-time budget (ms) for exact executions; a query
  /// whose modelled cost exceeds it aborts with DeadlineExceeded and falls
  /// back to the degraded model path. 0 disables deadlines.
  double deadline_ms = 0.0;
  /// Admission-queue capacity in modelled ms of backlog. 0 disables
  /// admission control (no query is ever shed).
  double queue_capacity_ms = 0.0;
  /// Shed to the model path when the backlog exceeds this fraction of
  /// queue_capacity_ms.
  double shed_high_water = 0.7;
  /// Modelled backlog drained per arriving query — the offered-load knob:
  /// smaller drain than the typical exact cost means the queue grows.
  double drain_ms_per_query = 0.0;
};

/// Abstraction over where the serving model lives. By default the serve
/// loop reads and trains its own in-process agent; a crash-recovery
/// deployment plugs in src/recovery's ModelReplicaSet here so serving
/// survives model-host crashes and stale answers are accounted. All calls
/// happen on the serial serving path, so implementations need no locking.
class ServingModelProvider {
 public:
  /// Recovery activity accumulated since the last drain (mirrored into
  /// ServeStats so the serving layer's counters stay self-contained).
  struct RecoveryDelta {
    std::uint64_t recoveries = 0;
    std::uint64_t replayed_updates = 0;
  };

  virtual ~ServingModelProvider() = default;
  /// The replica currently serving predictions; nullptr while no replica
  /// is up (the model path is unusable and every query goes exact).
  virtual DatalessAgent* primary() = 0;
  /// True when the primary's model version lags the latest committed
  /// update — answers produced from it are *stale* (pre-crash state).
  virtual bool primary_stale() const = 0;
  /// Ground truth routed into the replicated model (replaces the direct
  /// agent.observe call).
  virtual void observe(const AnalyticalQuery& query, double truth) = 0;
  /// Advances the provider's modelled clock by this serve's modelled
  /// exact-execution cost (checkpoints fall due, catch-ups complete).
  virtual void advance(double modelled_ms) = 0;
  /// Drains recovery counters accumulated since the last call.
  virtual RecoveryDelta take_recovery_delta() = 0;
};

/// Epoch fencing for the exact-serving path (implemented by the membership
/// layer's lease directory, src/membership; interface lives here so the
/// serving loop needs no membership dependency). check() throws StaleEpoch
/// when this serving process no longer holds a current lease for the data
/// the query touches — the ex-holder side of a partition must not serve
/// exact answers that a new holder may already be contradicting. Fenced
/// queries degrade to the model-backed read-only path.
class EpochFence {
 public:
  virtual ~EpochFence() = default;
  virtual void check(const AnalyticalQuery& query) const = 0;
};

struct ServedAnswer {
  double value = 0.0;
  bool data_less = false;
  bool audited = false;
  /// The model answer came from a replica whose version predates the
  /// latest committed update (it is mid crash-recovery catch-up). Only
  /// ever set when a ServingModelProvider is attached.
  bool stale_model = false;
  /// Exact execution failed (outage or blown deadline) and the value is
  /// the agent's model answer served without the usual confidence gate.
  bool degraded = false;
  /// Load shedding: the admission queue was over its high-water mark, so
  /// the query skipped the BDAS and was answered by the model.
  bool shed = false;
  /// The exact path was fenced (StaleEpoch: this process's shard-lease
  /// epoch is no longer current) and the value is a model answer. Always
  /// implies degraded.
  bool fenced = false;
  /// Outage + no model: the query is unanswerable. serve_batch() flags the
  /// slot so the rest of the batch still completes; serve() never returns
  /// such an answer — it rethrows the typed outage instead. `value` is
  /// meaningless when set.
  bool failed = false;
  Prediction prediction;    ///< valid when data_less
  ExactResult exact;        ///< valid when !data_less or audited
  double latency_ms = 0.0;  ///< measured end-to-end serve time
};

/// The ServeStats counters, declared once: X(field) per uint64 counter.
/// The struct fields, the `serve.<field>` metric handles, their
/// registration and the per-sync deltas are all generated from this list.
#define SEA_SERVE_STATS_FIELDS(X)                                          \
  X(queries)                                                               \
  X(data_less_served)   /* model answers (incl. degraded) */               \
  X(exact_answered)     /* answered from an exact execution */             \
  X(shed)               /* load-shed to the model path */                  \
  X(failed)             /* outage + no model: unanswerable */              \
  X(exact_executed)     /* includes bootstrap + declines + audits */       \
  X(exact_failures)     /* exact executions that raised an outage */       \
  X(degraded_served)    /* model answers served during outages */          \
  X(deadline_exceeded)  /* executions aborted on the budget */             \
  /* Degraded serves caused by epoch fencing (StaleEpoch): this process */ \
  /* is a fenced ex-holder and answered read-only from the model. */       \
  /* Subset of degraded_served. */                                         \
  X(fenced_serves)                                                         \
  /* Crash-recovery accounting (populated only when a */                   \
  /* ServingModelProvider is attached; see src/recovery). */               \
  X(recoveries)         /* model replicas fully recovered */               \
  X(replayed_updates)   /* WAL updates replayed on restart */              \
  X(stale_model_serves) /* model answers from a stale replica */

/// Serving counters. The top-level outcome classes partition the queries:
/// every query lands in exactly one of data_less_served, exact_answered,
/// shed, or failed (conserved() asserts this). degraded_served is a subset
/// of data_less_served; exact_executed / exact_failures / deadline_exceeded
/// count executions (including audits), not queries.
struct ServeStats {
#define SEA_SERVE_STATS_DECLARE(field) std::uint64_t field = 0;
  SEA_SERVE_STATS_FIELDS(SEA_SERVE_STATS_DECLARE)
#undef SEA_SERVE_STATS_DECLARE

  /// Query-conservation invariant: every query is counted in exactly one
  /// outcome class.
  bool conserved() const noexcept {
    return queries == data_less_served + exact_answered + shed + failed;
  }
};

class ServedAnalytics {
 public:
  ServedAnalytics(DatalessAgent& agent, ExactExecutor& exec,
                  ServeConfig config = {});

  /// Serves one query: a one-element serve_batch(). An unanswerable query
  /// (outage + no model) rethrows the typed outage the ladder caught
  /// (e.g. NoLiveReplicaError) instead of returning a failed answer.
  ServedAnswer serve(const AnalyticalQuery& query);

  /// Serves a batch of independent queries through the one outcome ladder.
  /// Model predictions run concurrently (SEA_THREADS) against the model
  /// state frozen at batch entry; confidence gating, audit coin flips,
  /// exact executions, and statistics updates then run serially in batch
  /// order, so answers and every counter are identical at any thread
  /// count. Ground truth from exact executions goes to the attached
  /// provider inline (before its clock advances), or else to the own agent
  /// once at the end via observe_batch(). An unanswerable query does not
  /// throw: its answer comes back with failed=true. An invalid query
  /// (AnalyticalQuery::validate) throws std::invalid_argument before any
  /// query of the batch is served, leaving stats and models unchanged.
  std::vector<ServedAnswer> serve_batch(
      std::span<const AnalyticalQuery> queries);

  /// Attaches (or detaches, with nullptr) a replicated model provider.
  /// While attached, predictions read provider->primary(), ground truth
  /// flows through provider->observe(), and stale/recovery counters are
  /// folded into stats(). Caller owns the provider; it must outlive use.
  void set_model_provider(ServingModelProvider* provider) noexcept {
    provider_ = provider;
  }

  /// Attaches (or detaches, with nullptr) an epoch fence consulted before
  /// every exact execution. Caller owns the fence; it must outlive use.
  void set_epoch_fence(const EpochFence* fence) noexcept { fence_ = fence; }

  const ServeStats& stats() const noexcept { return stats_; }
  DatalessAgent& agent() noexcept { return agent_; }
  ExactExecutor& executor() noexcept { return exec_; }
  /// Current modelled backlog of the admission queue (ms).
  double queue_backlog_ms() const noexcept { return queue_backlog_ms_; }

 private:
  /// Executes `query` exactly under the configured deadline, updating the
  /// admission backlog on success. Throws typed outage errors.
  ExactResult execute_exact(const AnalyticalQuery& query);
  /// True when the admission queue is over its high-water mark.
  bool overloaded() const noexcept;
  /// The model answering this batch: the provider's primary replica when
  /// one is attached (may be null mid-outage), else the own agent.
  DatalessAgent* serving_model() noexcept {
    return provider_ ? provider_->primary() : &agent_;
  }
  using TruthBatch = std::vector<std::pair<AnalyticalQuery, double>>;
  /// The outcome ladder for one query, given its batch-entry peek: fills
  /// `out` and returns the outcome tag for the query's root span.
  const char* serve_one(const AnalyticalQuery& query,
                        const DatalessAgent::PeekResult& peek,
                        DatalessAgent* model, ServedAnswer& out,
                        TruthBatch& train);
  /// Fills `out` with a model answer, flagging (and counting) it stale when
  /// the attached provider's primary lags.
  void answer_from_model(ServedAnswer& out, const Prediction& pred);
  /// Ground truth: committed to the provider inline when one is attached,
  /// else queued in `train` for the batch-end observe_batch().
  void absorb_truth(const AnalyticalQuery& query, double truth,
                    TruthBatch& train);
  /// Advances the attached provider's modelled clock and folds its
  /// recovery counters into stats_. No-op without a provider.
  void advance_provider(double modelled_ms);

  /// Observability plumbing: the tracer/registry live on the executor's
  /// cluster (Cluster::set_observability). bind_obs() re-resolves the
  /// serve.* metric handles when the attached registry changes (cheap
  /// pointer compare per serve call); sync_metrics() mirrors the ServeStats
  /// deltas since the last sync into the registry, so the counters track
  /// stats_ exactly from the moment of attachment.
  obs::Tracer* tracer() const noexcept { return exec_.cluster().tracer(); }
  void bind_obs();
  void sync_metrics();

  DatalessAgent& agent_;
  ExactExecutor& exec_;
  ServingModelProvider* provider_ = nullptr;
  const EpochFence* fence_ = nullptr;
  ServeConfig config_;
  ServeStats stats_;
  Rng audit_rng_;
  /// Modelled ms of exact-execution work admitted but not yet drained.
  double queue_backlog_ms_ = 0.0;
  /// The outage behind the latest failed slot, rethrown by serve().
  std::exception_ptr failure_;

  struct ServeMetrics {
#define SEA_SERVE_STATS_COUNTER(field) obs::Counter* field = nullptr;
    SEA_SERVE_STATS_FIELDS(SEA_SERVE_STATS_COUNTER)
#undef SEA_SERVE_STATS_COUNTER
    obs::Gauge* queue_backlog = nullptr;
    obs::Histogram* exact_modelled_ms = nullptr;
  };
  obs::MetricsRegistry* bound_registry_ = nullptr;
  ServeMetrics m_;
  ServeStats mirrored_;  ///< stats_ as of the last sync_metrics()
};

}  // namespace sea
