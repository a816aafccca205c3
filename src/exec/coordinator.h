// Coordinator-cohort execution paradigm (paper RT3.2).
//
// A coordinating node bypasses the heavyweight distributed-processing
// layers and issues direct, surgical RPCs against the storage engine of
// specific cohort nodes — typically after consulting an index to learn
// *which* nodes and *which* tuples matter. This is the paradigm behind the
// paper's claimed orders-of-magnitude wins for rank-join [30] and kNN [33].
//
// Resilience: each rpc() applies the cluster's RetryPolicy — a dropped or
// timed-out request/response is retried with exponential backoff (jitter
// drawn from the fault injector's seeded RNG, so the whole recovery trace
// is deterministic). A cohort node that flaps mid-call raises
// NodeDownError so the caller can re-route to a replica holder. Retry
// cost lands in the ExecReport (retries, dropped_messages,
// modelled_backoff_ms) and therefore in makespan and money cost.
//
// Overload control (DESIGN.md "Deadlines & overload"):
//  * Deadline budgets — set_deadline() arms a per-query modelled-time
//    budget; every transfer, backoff wait, and RPC overhead charge
//    decrements it, and exhaustion raises DeadlineExceeded instead of
//    retrying past the latency target.
//  * Circuit breakers — every delivery failure feeds the cluster's
//    per-node breaker; an open breaker short-circuits the call with
//    NodeDownError (so callers re-route instead of burning retries), and
//    the breaker's modelled cooldown clock advances with the same charges
//    the cost model makes.
//  * Hedged replica reads — rpc_to() accepts a backup replica holder;
//    when the request leg's modelled latency exceeds a quantile of the
//    session's observed round trips, a backup RPC is issued and the first
//    success wins (classic tail-latency hedging, deterministic because
//    every latency is modelled and every draw comes from seeded streams).
//
// Observability: when the cluster carries a Tracer/MetricsRegistry
// (Cluster::set_observability), every rpc_to() records an "rpc" span with
// an outcome tag, plus "hedge"/"backoff" child spans and breaker events,
// all on the modelled clock — the tracer advances exactly where the
// deadline budget and breaker cooldowns are charged, so traces are
// bit-identical across runs and SEA_THREADS settings.
//
// The session accumulates an ExecReport comparable with MapReduce runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "common/timer.h"
#include "exec/exec_report.h"
#include "fault/fault.h"
#include "fault/outage.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sea {

class CohortSession {
 public:
  /// Sentinel for "no backup replica available" (hedging disabled).
  static constexpr NodeId kNoBackup = 0xffffffffu;

  CohortSession(Cluster& cluster, NodeId coordinator)
      : cluster_(cluster),
        coordinator_(coordinator),
        tracer_(cluster.tracer()),
        retry_obs_(RetryMetrics::bind(cluster.metrics())) {
    if (obs::MetricsRegistry* reg = cluster.metrics()) {
      m_round_trips_ = &reg->counter("rpc.round_trips");
      m_hedged_ = &reg->counter("rpc.hedged");
      m_hedges_won_ = &reg->counter("rpc.hedges_won");
      m_breaker_fast_fails_ = &reg->counter("rpc.breaker_fast_fails");
      m_rtt_ = &reg->histogram("rpc.rtt_ms",
                               {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    }
  }

  NodeId coordinator() const noexcept { return coordinator_; }
  Cluster& cluster() noexcept { return cluster_; }

  /// Arms a modelled-time deadline budget for subsequent RPCs (nullptr
  /// disarms). The budget object outlives the session's use of it.
  void set_deadline(QueryDeadline* deadline) noexcept { deadline_ = deadline; }
  QueryDeadline* deadline() const noexcept { return deadline_; }

  /// Retry tokens consumed so far (against RetryPolicy::retry_budget).
  std::size_t retry_tokens_used() const noexcept { return retry_tokens_used_; }

  /// One round trip: request of `request_bytes` to `node`, server-side work
  /// `fn()` (measured; fn must do its own account_probe/account_scan), and
  /// a `response_bytes` reply. Returns fn's value. Retries dropped/timed-out
  /// legs per the cluster's RetryPolicy (fn re-executes on a lost response —
  /// cohort reads are idempotent); throws RpcRetriesExhausted when attempts
  /// run out and NodeDownError when the cohort node is down or its breaker
  /// opens (re-route).
  template <typename F>
  auto rpc(NodeId node, std::size_t request_bytes, std::size_t response_bytes,
           F&& fn) -> decltype(fn()) {
    return rpc_to(node, kNoBackup, request_bytes, response_bytes,
                  [&](NodeId) { return fn(); });
  }

  /// Like rpc(), but the work function receives the node that actually
  /// executes it, and `backup` (a live replica holder, or kNoBackup) may
  /// serve a hedged read when the primary's request leg stalls.
  template <typename F>
  auto rpc_to(NodeId node, NodeId backup, std::size_t request_bytes,
              std::size_t response_bytes, F&& fn)
      -> decltype(fn(std::declval<NodeId>())) {
    using R = decltype(fn(std::declval<NodeId>()));
    const RetryPolicy& policy = cluster_.retry_policy();
    FaultInjector* injector = cluster_.fault_injector();
    CircuitBreakerSet& breakers = cluster_.breakers();
    // Only a DeadlineExceeded (thrown mid-charge) leaves the default tag;
    // every other exit overwrites it.
    obs::SpanScope span(tracer_, "rpc", static_cast<std::int64_t>(node));
    span.set_tag("deadline_exceeded");
    for (std::size_t attempt = 0;; ++attempt) {
      if (injector) {
        const TickEffects fx = injector->tick(cluster_);
        report_.recoveries += fx.restarts;
        report_.shard_restore_bytes += fx.restore_bytes;
      }
      if (cluster_.node_is_down(node)) {
        span.set_tag("node_down");
        throw NodeDownError(node, "CohortSession::rpc: cohort node " +
                                      std::to_string(node) + " is down");
      }
      if (!breakers.allow(node)) {
        ++report_.breaker_fast_fails;
        if (m_breaker_fast_fails_) m_breaker_fast_fails_->inc();
        if (tracer_)
          tracer_->event("breaker_open", "fast_fail",
                         static_cast<std::int64_t>(node));
        span.set_tag("breaker_open");
        throw NodeDownError(node, "CohortSession::rpc: circuit breaker open "
                                  "for node " +
                                      std::to_string(node));
      }
      const SendOutcome out =
          cluster_.network().try_send(coordinator_, node, request_bytes);
      if (out.delivered && out.ms <= policy.rpc_timeout_ms) {
        // Hedge: the request leg came in above the observed round-trip
        // quantile (straggler link). Fire one backup RPC at the next
        // replica holder; its success preempts the slow primary.
        if constexpr (!std::is_void_v<R>) {
          if (backup != kNoBackup && hedge_armed() &&
              out.ms > hedge_threshold_ms() &&
              !cluster_.node_is_down(backup) && breakers.allow(backup)) {
            ++report_.hedged_rpcs;
            if (m_hedged_) m_hedged_->inc();
            obs::SpanScope hedge_span(tracer_, "hedge",
                                      static_cast<std::int64_t>(backup));
            hedge_span.set_tag("lost");
            std::optional<R> hedged = attempt_once<R>(
                backup, request_bytes, response_bytes, fn, policy);
            if (hedged) {
              // The primary's in-flight request still consumed its time.
              charge_network(out.ms);
              ++report_.hedges_won;
              if (m_hedges_won_) m_hedges_won_->inc();
              hedge_span.set_tag("won");
              span.set_tag("hedge_won");
              span.add_bytes(request_bytes + response_bytes);
              return *hedged;
            }
          }
        }
        Timer t;
        if constexpr (std::is_void_v<R>) {
          fn(node);
          if (deliver_response(node, response_bytes, out.ms, t.elapsed_ms(),
                               policy)) {
            breakers.record_success(node);
            span.set_tag("ok");
            span.add_bytes(request_bytes + response_bytes);
            return;
          }
        } else {
          R result = fn(node);
          if (deliver_response(node, response_bytes, out.ms, t.elapsed_ms(),
                               policy)) {
            breakers.record_success(node);
            span.set_tag("ok");
            span.add_bytes(request_bytes + response_bytes);
            return result;
          }
        }
        breakers.record_failure(node);  // response leg lost / timed out
      } else {
        // Request leg lost (or modelled as timed out): the attempt still
        // consumed its transfer/detection time on the critical path.
        if (!out.delivered) {
          ++report_.dropped_messages;
          retry_obs_.on_drop();
        }
        charge_network(out.ms);
        breakers.record_failure(node);
      }
      if (breakers.open_now(node)) {
        // The breaker tripped on this failure: short-circuit the retry
        // storm and let the caller re-route to a replica holder.
        ++report_.breaker_fast_fails;
        if (m_breaker_fast_fails_) m_breaker_fast_fails_->inc();
        if (tracer_)
          tracer_->event("breaker_open", "tripped_mid_call",
                         static_cast<std::int64_t>(node));
        span.set_tag("breaker_open");
        throw NodeDownError(node, "CohortSession::rpc: circuit breaker "
                                  "opened for node " +
                                      std::to_string(node) + " mid-call");
      }
      note_retry(attempt, policy, injector, node, span);
    }
  }

  /// Accounts additional response payload from `node` whose size was only
  /// known after the RPC executed (e.g. variable-length match lists).
  void extra_response(NodeId node, std::size_t bytes) {
    const double ms = cluster_.network().send(node, coordinator_, bytes);
    charge_network(ms);
    report_.result_bytes += bytes;
  }

  /// Work done locally at the coordinator (merging, top-k maintenance...).
  template <typename F>
  auto local(F&& fn) -> decltype(fn()) {
    Timer t;
    if constexpr (std::is_void_v<decltype(fn())>) {
      std::forward<F>(fn)();
      report_.coordinator_compute_ms += t.elapsed_ms();
      return;
    } else {
      auto result = std::forward<F>(fn)();
      report_.coordinator_compute_ms += t.elapsed_ms();
      return result;
    }
  }

  /// Server-side compute an rpc_to() body did ahead of the call (a probe
  /// computed in a parallel region before the serial replay): charged the
  /// way the body's own measured time is, once per execution of the body.
  void add_server_compute_ms(double ms) noexcept {
    report_.coordinator_compute_ms += ms;
  }

  /// Records that a task was moved to a replica holder after its serving
  /// node flapped mid-query (called by executors on NodeDownError).
  void note_reroute() noexcept { ++report_.tasks_rerouted; }

  const ExecReport& report() const noexcept { return report_; }
  ExecReport take_report() noexcept {
    ExecReport r = report_;
    report_ = ExecReport{};
    return r;
  }

 private:
  /// Charges modelled transfer time everywhere it must land: the report,
  /// the breaker cooldown clock, and the armed deadline budget (which may
  /// throw DeadlineExceeded right here — the overload-control abort point).
  void charge_network(double ms) {
    // RPCs are issued in sequence by the coordinator, so every leg
    // (including failed ones) is on the critical path.
    report_.modelled_network_ms += ms;
    report_.modelled_network_ms_critical += ms;
    cluster_.breakers().advance(ms);
    if (tracer_) tracer_->advance(ms);
    if (deadline_) deadline_->charge("rpc transfer", ms);
  }

  bool hedge_armed() const noexcept {
    const HedgeConfig& h = cluster_.hedge_config();
    return h.enabled && rtt_ms_.count() >= h.min_samples;
  }
  double hedge_threshold_ms() const {
    const HedgeConfig& h = cluster_.hedge_config();
    return rtt_ms_.quantile(h.quantile) * h.multiplier;
  }

  /// One non-retrying round trip at `node` (the hedged backup attempt).
  /// Failure returns nullopt: the caller falls back to the primary.
  template <typename R, typename F>
  std::optional<R> attempt_once(NodeId node, std::size_t request_bytes,
                                std::size_t response_bytes, F& fn,
                                const RetryPolicy& policy) {
    CircuitBreakerSet& breakers = cluster_.breakers();
    const SendOutcome out =
        cluster_.network().try_send(coordinator_, node, request_bytes);
    if (!out.delivered || out.ms > policy.rpc_timeout_ms) {
      if (!out.delivered) {
        ++report_.dropped_messages;
        retry_obs_.on_drop();
      }
      charge_network(out.ms);
      breakers.record_failure(node);
      return std::nullopt;
    }
    Timer t;
    R result = fn(node);
    if (!deliver_response(node, response_bytes, out.ms, t.elapsed_ms(),
                          policy)) {
      breakers.record_failure(node);
      return std::nullopt;
    }
    breakers.record_success(node);
    return result;
  }

  /// Response leg of an attempt whose request+work succeeded. Returns true
  /// when delivered; on a drop/timeout charges the wasted round trip so the
  /// caller retries (server work is also wasted and re-measured).
  bool deliver_response(NodeId node, std::size_t response_bytes, double out_ms,
                        double server_ms, const RetryPolicy& policy) {
    const SendOutcome back =
        cluster_.network().try_send(node, coordinator_, response_bytes);
    charge_network(out_ms + back.ms);
    // RPCs run sequentially, so server-side work is critical-path compute.
    report_.coordinator_compute_ms += server_ms;
    if (!back.delivered || back.ms > policy.rpc_timeout_ms) {
      if (!back.delivered) {
        ++report_.dropped_messages;
        retry_obs_.on_drop();
      }
      return false;
    }
    const double rpc_ms = cluster_.cost_model().coordinator_rpc_ms;
    report_.modelled_overhead_ms += rpc_ms;
    if (tracer_) tracer_->advance(rpc_ms);
    if (deadline_) deadline_->charge("rpc overhead", rpc_ms);
    report_.result_bytes += response_bytes;
    ++report_.rpc_round_trips;
    if (m_round_trips_) m_round_trips_->inc();
    if (m_rtt_) m_rtt_->observe(out_ms + back.ms);
    rtt_ms_.add(out_ms + back.ms);  // hedge-threshold observation
    return true;
  }

  /// Bookkeeping between attempts; throws RpcRetriesExhausted at the cap
  /// (before any backoff draw, so max_attempts=1 consumes no jitter RNG).
  /// The session-wide retry token budget (RetryPolicy::retry_budget) is
  /// checked here too: once spent, every further failure fails fast —
  /// the retry-storm guard for correlated outages (partitions).
  void note_retry(std::size_t attempt, const RetryPolicy& policy,
                  FaultInjector* injector, NodeId node, obs::SpanScope& span) {
    if (attempt + 1 >= policy.max_attempts) {
      span.set_tag("retries_exhausted");
      throw RpcRetriesExhausted(
          "CohortSession::rpc: " + std::to_string(policy.max_attempts) +
          " attempts to node " + std::to_string(node) + " all failed");
    }
    if (policy.retry_budget > 0 && retry_tokens_used_ >= policy.retry_budget) {
      ++report_.retry_budget_exhausted;
      retry_obs_.on_budget_exhausted();
      span.set_tag("retry_budget_exhausted");
      throw RpcRetriesExhausted(
          "CohortSession::rpc: session retry budget of " +
          std::to_string(policy.retry_budget) +
          " tokens exhausted (failing call to node " + std::to_string(node) +
          ")");
    }
    ++retry_tokens_used_;
    ++report_.retries;
    const double wait =
        policy.backoff_ms(attempt, injector ? injector->rng() : backoff_rng_);
    report_.modelled_backoff_ms += wait;
    retry_obs_.on_retry(wait);
    if (tracer_)
      tracer_->span_event("backoff", wait, "", 0,
                          static_cast<std::int64_t>(node));
    cluster_.breakers().advance(wait);
    if (deadline_) deadline_->charge("retry backoff", wait);
  }

  Cluster& cluster_;
  NodeId coordinator_;
  ExecReport report_;
  QueryDeadline* deadline_ = nullptr;
  /// Retry tokens spent so far this session (retry-storm guard; compared
  /// against RetryPolicy::retry_budget in note_retry).
  std::size_t retry_tokens_used_ = 0;
  /// Observability handles resolved once at construction (all null when
  /// the cluster has no tracer/registry attached — zero-cost path).
  obs::Tracer* tracer_ = nullptr;
  RetryMetrics retry_obs_;
  obs::Counter* m_round_trips_ = nullptr;
  obs::Counter* m_hedged_ = nullptr;
  obs::Counter* m_hedges_won_ = nullptr;
  obs::Counter* m_breaker_fast_fails_ = nullptr;
  obs::Histogram* m_rtt_ = nullptr;
  /// Observed modelled round-trip times of successful RPCs — the quantile
  /// source for the hedge threshold. Session-local and updated only on the
  /// (serial) coordinator path, so it is deterministic.
  SlidingQuantile rtt_ms_{128};
  /// Jitter source when no fault injector is attached (fixed seed keeps
  /// even injector-less retry traces deterministic).
  Rng backoff_rng_{0x5eabac0ffULL};
};

}  // namespace sea
