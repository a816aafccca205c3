#include "sea/served.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/timer.h"
#include "fault/outage.h"

namespace sea {

// Completeness guard: ServeStats is exactly the SEA_SERVE_STATS_FIELDS
// counters, so the generated metric handles, registration and sync deltas
// cover every field. A field declared outside the list changes the size and
// fails this assert; conserved() must still be reviewed by hand.
#define SEA_SERVE_STATS_COUNT(field) +1
static_assert(sizeof(ServeStats) ==
                  (0 SEA_SERVE_STATS_FIELDS(SEA_SERVE_STATS_COUNT)) * 8,
              "ServeStats field declared outside SEA_SERVE_STATS_FIELDS");
#undef SEA_SERVE_STATS_COUNT

ServedAnalytics::ServedAnalytics(DatalessAgent& agent, ExactExecutor& exec,
                                 ServeConfig config)
    : agent_(agent), exec_(exec), config_(config),
      audit_rng_(config.audit_seed) {}

void ServedAnalytics::bind_obs() {
  obs::MetricsRegistry* reg = exec_.cluster().metrics();
  if (reg == bound_registry_) return;
  bound_registry_ = reg;
  if (!reg) {
    m_ = ServeMetrics{};
    return;
  }
#define SEA_SERVE_STATS_BIND(field) m_.field = &reg->counter("serve." #field);
  SEA_SERVE_STATS_FIELDS(SEA_SERVE_STATS_BIND)
#undef SEA_SERVE_STATS_BIND
  m_.queue_backlog = &reg->gauge("serve.queue_backlog_ms");
  m_.exact_modelled_ms = &reg->histogram(
      "serve.exact_modelled_ms", {25.0, 50.0, 100.0, 200.0, 400.0, 800.0});
  // Count from the moment of attachment: a registry wired mid-run sees
  // only the serving activity that happens while it is attached.
  mirrored_ = stats_;
}

void ServedAnalytics::sync_metrics() {
  if (!m_.queries) return;
#define SEA_SERVE_STATS_SYNC(field) \
  m_.field->inc(stats_.field - mirrored_.field);
  SEA_SERVE_STATS_FIELDS(SEA_SERVE_STATS_SYNC)
#undef SEA_SERVE_STATS_SYNC
  m_.queue_backlog->set(queue_backlog_ms_);
  mirrored_ = stats_;
}

void ServedAnalytics::answer_from_model(ServedAnswer& out,
                                        const Prediction& pred) {
  out.data_less = true;
  out.value = pred.value;
  out.prediction = pred;
  if (!provider_ || !provider_->primary_stale()) return;
  out.stale_model = true;
  ++stats_.stale_model_serves;
}

void ServedAnalytics::absorb_truth(const AnalyticalQuery& query, double truth,
                                   TruthBatch& train) {
  // A provider commits truth through its replicated log before its clock
  // advances past this serve (the WAL order is the history, and a
  // checkpoint falling due in that advance must cover it).
  if (provider_)
    provider_->observe(query, truth);
  else
    train.emplace_back(query, truth);
}

void ServedAnalytics::advance_provider(double modelled_ms) {
  if (!provider_) return;
  provider_->advance(modelled_ms);
  const ServingModelProvider::RecoveryDelta d =
      provider_->take_recovery_delta();
  stats_.recoveries += d.recoveries;
  stats_.replayed_updates += d.replayed_updates;
}

bool ServedAnalytics::overloaded() const noexcept {
  return config_.queue_capacity_ms > 0.0 &&
         queue_backlog_ms_ >
             config_.shed_high_water * config_.queue_capacity_ms;
}

ExactResult ServedAnalytics::execute_exact(const AnalyticalQuery& query) {
  QueryDeadline budget(config_.deadline_ms);
  QueryDeadline* dl = config_.deadline_ms > 0.0 ? &budget : nullptr;
  obs::Tracer* tr = tracer();
  obs::SpanScope span(tr, "exact_exec");
  ExactResult res;
  try {
    // Epoch fence first: a fenced ex-holder must not even start exact
    // execution under its stale lease (split-brain prevention).
    if (fence_) fence_->check(query);
    res = exec_.execute(query, config_.exact_paradigm, dl);
  } catch (const StaleEpoch&) {
    ++stats_.exact_failures;
    span.set_tag("stale_epoch");
    if (tr) tr->event("stale_epoch");
    throw;
  } catch (const DeadlineExceeded&) {
    ++stats_.exact_failures;
    ++stats_.deadline_exceeded;
    span.set_tag("deadline_exceeded");
    if (tr) tr->event("deadline_exceeded");
    throw;
  } catch (const OutageError&) {
    ++stats_.exact_failures;
    span.set_tag("outage");
    throw;
  }
  span.set_tag("ok");
  if (m_.exact_modelled_ms)
    m_.exact_modelled_ms->observe(res.report.modelled_ms());
  ++stats_.exact_executed;
  // Successful exact work joins the admission backlog at its modelled
  // cost; failed attempts are not charged (their cost is unknowable here
  // and the breaker/deadline layers already bounded it).
  if (config_.queue_capacity_ms > 0.0)
    queue_backlog_ms_ += res.report.modelled_ms();
  return res;
}

ServedAnswer ServedAnalytics::serve(const AnalyticalQuery& query) {
  ServedAnswer out = std::move(serve_batch({&query, 1}).front());
  if (out.failed) std::rethrow_exception(std::exchange(failure_, nullptr));
  return out;
}

const char* ServedAnalytics::serve_one(const AnalyticalQuery& query,
                                       const DatalessAgent::PeekResult& peek,
                                       DatalessAgent* model, ServedAnswer& out,
                                       TruthBatch& train) {
  ++stats_.queries;
  // One query's worth of service capacity elapses per arrival.
  if (config_.queue_capacity_ms > 0.0)
    queue_backlog_ms_ =
        std::max(0.0, queue_backlog_ms_ - config_.drain_ms_per_query);
  const bool bootstrapping = stats_.queries <= config_.bootstrap_queries;
  if (!bootstrapping) {
    const bool confident = peek.usable && peek.confident;
    if (model) model->record_serve_outcome(confident);
    if (confident) {
      answer_from_model(out, peek.prediction);
      ++stats_.data_less_served;
      if (config_.audit_fraction > 0.0 &&
          audit_rng_.bernoulli(config_.audit_fraction)) {
        try {
          out.exact = execute_exact(query);
          out.audited = true;
          absorb_truth(query, out.exact.answer, train);
        } catch (const OutageError&) {
          // Audit is best-effort: an outage (or blown deadline) skips the
          // audit but never fails the (already confident) data-less answer.
        }
      }
      return out.audited ? "audited" : "data_less";
    }
    // Load shedding: the query would hit the BDAS, the admission queue is
    // over its high-water mark, and the model can stand in — shed.
    if (overloaded() && peek.usable) {
      answer_from_model(out, peek.prediction);
      out.shed = true;
      ++stats_.shed;
      if (obs::Tracer* tr = tracer()) tr->event("shed", "overloaded");
      return "shed";
    }
  }
  try {
    out.exact = execute_exact(query);
  } catch (const OutageError& err) {
    // Exact path unavailable (replicas exhausted / retries exhausted /
    // deadline blown / fenced by a stale lease epoch): serve the model's
    // best answer, explicitly flagged degraded, instead of failing the
    // query — the availability axis of the paper's P4. execute_exact
    // already classified the failure.
    if (!peek.usable) {
      ++stats_.failed;
      out.failed = true;
      failure_ = std::current_exception();
      return "failed";
    }
    const bool fenced = dynamic_cast<const StaleEpoch*>(&err) != nullptr;
    answer_from_model(out, peek.prediction);
    out.degraded = true;
    out.fenced = fenced;
    ++stats_.degraded_served;
    if (fenced) ++stats_.fenced_serves;
    ++stats_.data_less_served;
    return fenced ? "fenced" : "degraded";
  }
  out.value = out.exact.answer;
  absorb_truth(query, out.exact.answer, train);
  ++stats_.exact_answered;
  return "exact";
}

std::vector<ServedAnswer> ServedAnalytics::serve_batch(
    std::span<const AnalyticalQuery> queries) {
  // An invalid query throws here, before any model peek, counter or
  // training update, so a rejected batch leaves no trace.
  for (const AnalyticalQuery& q : queries) q.validate();
  std::vector<ServedAnswer> out(queries.size());
  if (queries.empty()) return out;
  bind_obs();
  obs::Tracer* tr = tracer();

  // Phase 1 (parallel): read-only model predictions against the model state
  // frozen at batch entry. Each query writes only its own slot. No span or
  // metric is recorded here — the model peek is traced serially in phase 2
  // (as a zero-duration marker: prediction compute is measured wall time,
  // which must never enter the modelled trace).
  // The model is resolved once and frozen for the whole batch (the
  // provider's primary replica, or the own agent). A crash mid-batch can
  // wipe its *contents*, but replicas are stored by value so the pointer
  // stays valid; the pre-computed peeks simply reflect pre-crash state.
  DatalessAgent* model = serving_model();
  std::vector<DatalessAgent::PeekResult> peek(queries.size());
  std::vector<double> predict_ms(queries.size(), 0.0);
  if (model) {
    ParallelFor(queries.size(), [&](std::size_t i) {
      Timer t;
      peek[i] = model->peek_predict(queries[i]);
      predict_ms[i] = t.elapsed_ms();
    });
  }

  // Phase 2 (serial, batch order): all shared-state work — confidence
  // gating, audit coin flips, admission/shedding decisions, exact
  // executions (cluster + fault injector), statistics — in the same order
  // at any thread count.
  TruthBatch train;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Timer timer;
    obs::SpanScope root(tr, "serve");
    // An exception escaping the ladder leaves the span tagged "failed".
    root.set_tag("failed");
    if (tr)
      tr->event("peek", !peek[i].usable        ? "unusable"
                        : peek[i].confident    ? "confident"
                                               : "usable");
    root.set_tag(serve_one(queries[i], peek[i], model, out[i], train));
    // The attached provider's clock advances by this serve's successful
    // exact (or audit) work — `exact` stays empty, so 0, when none ran;
    // the provider applies its own minimum per-query advance.
    advance_provider(out[i].exact.report.modelled_ms());
    out[i].latency_ms = predict_ms[i] + timer.elapsed_ms();
  }
  sync_metrics();

  // Phase 3: without a provider, the batch's ground truth is absorbed once
  // here — refits fan out per quantum via observe_batch.
  if (!train.empty()) agent_.observe_batch(train);
  return out;
}

}  // namespace sea
