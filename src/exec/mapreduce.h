// In-library MapReduce engine over the simulated cluster.
//
// This is the baseline execution paradigm the paper critiques (§II.A):
// every map task reads its *entire* partition through all BDAS layers,
// intermediate key/value pairs are shuffled across the (accounted) network
// to reducers, and reduced results are gathered at a coordinator. The
// engine really executes the user's map and reduce functions on real
// partition data; the network/overhead costs are modelled per DESIGN.md.
//
// Resilience: with a FaultInjector attached to the cluster, the engine
// ticks the flap schedule at task boundaries, re-routes map/reduce tasks
// whose placement node flapped (ExecReport::tasks_rerouted), and delivers
// shuffle/result messages through the fallible send path with the
// cluster's RetryPolicy (retries/dropped_messages/modelled_backoff_ms).
//
// Concurrency (DESIGN.md "Concurrency model"): map tasks, per-reducer
// shuffle bucketing, and reduce groups execute on the fork-join runtime
// (SEA_THREADS), but everything that consumes shared mutable state —
// fault-injector ticks, retry RNG draws, cluster/network accounting —
// runs on the calling thread in fixed task-index order, so results and
// fault counters are bit-for-bit identical at any thread count. Span and
// metric updates (when the cluster carries observability, see
// Cluster::set_observability) happen only in those serial sections too:
// phase spans ("map_phase"/"shuffle"/"reduce_phase"), "backoff" leaf
// spans, and "reroute" events are bit-identical at any SEA_THREADS.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/parallel.h"
#include "common/primitives.h"
#include "common/timer.h"
#include "exec/exec_report.h"
#include "fault/fault.h"
#include "fault/outage.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sea {

/// Collects (key, value) pairs emitted by one map task.
template <typename K, typename V>
class Emitter {
 public:
  void emit(K key, V value) { pairs_.emplace_back(std::move(key), std::move(value)); }
  /// Pre-sizes the pair buffer (the engine reserves by partition row count
  /// so row-granular emitters never rehash/realloc mid-scan).
  void reserve(std::size_t n) { pairs_.reserve(n); }
  std::vector<std::pair<K, V>>& pairs() noexcept { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

/// A MapReduce job over a single stored table.
///
/// K must be hashable and equality comparable. `kv_bytes` sizes one (K,V)
/// pair for shuffle accounting; `result_bytes` sizes one reduced result for
/// the final gather. Defaults assume fixed-size binary encodings.
///
/// map and reduce run concurrently across shards / reducer groups: they
/// must not touch shared mutable state beyond their own Emitter / value
/// group (the engine's own accounting is handled outside the pool).
template <typename K, typename V, typename R>
struct MapReduceJob {
  std::function<void(NodeId, const Table&, Emitter<K, V>&)> map;
  std::function<R(const K&, std::vector<V>&)> reduce;
  std::size_t kv_bytes = sizeof(K) + sizeof(V);
  std::size_t result_bytes = sizeof(K) + sizeof(R);
  std::size_t num_reducers = 0;  ///< 0 = one per cluster node
};

template <typename K, typename V, typename R>
struct MapReduceResult {
  std::vector<std::pair<K, R>> results;
  ExecReport report;
};

/// Reusable shuffle buffers for run_map_reduce. A caller issuing many runs
/// over the same cluster (ExactExecutor, the sampling engine) passes one of
/// these to keep the emitter pair arenas, route tables, per-(mapper,
/// reducer) counters, and the shuffled-pair arena warm across runs instead
/// of growing each from empty every time. Purely an allocation cache:
/// every field is fully overwritten per run, so reuse never changes
/// results. Requires K and V default-constructible (the shuffled arena is
/// resized, not rebuilt).
template <typename K, typename V>
struct MapReduceScratch {
  std::vector<Emitter<K, V>> emitted;             ///< per-mapper pair arenas
  std::vector<std::vector<std::uint32_t>> route;  ///< per-pair reducer id
  std::vector<std::uint64_t> route_counts;  ///< (mapper, reducer) histogram
  std::vector<std::uint64_t> batch_bytes;   ///< (mapper, reducer) bytes
  std::vector<std::uint64_t> seg_begin;     ///< per-reducer segment bounds
  std::vector<std::pair<K, V>> shuffled;    ///< reducer-partitioned pairs
};

/// Runs the job over every partition of `table_name`, gathering reduced
/// results at `coordinator` (default node 0). Accounts:
///  - one task + full partition scan per storage node (map phase),
///  - shuffle messages mapper->reducer sized by emitted pairs,
///  - one task per active reducer,
///  - result messages reducer->coordinator,
///  - under injected faults: message retries, backoff, and task re-routes.
/// An armed `deadline` budget is charged with every modelled cost (task
/// overheads, transfers, backoff waits) and aborts the run with
/// DeadlineExceeded when exhausted.
template <typename K, typename V, typename R>
MapReduceResult<K, V, R> run_map_reduce(Cluster& cluster,
                                        const std::string& table_name,
                                        const MapReduceJob<K, V, R>& job,
                                        NodeId coordinator = 0,
                                        QueryDeadline* deadline = nullptr,
                                        MapReduceScratch<K, V>* scratch = nullptr) {
  MapReduceResult<K, V, R> out;
  ExecReport& rep = out.report;
  Timer wall;
  MapReduceScratch<K, V> local_scratch;
  MapReduceScratch<K, V>& scr = scratch ? *scratch : local_scratch;
  const std::size_t n = cluster.num_nodes();
  const RetryPolicy& policy = cluster.retry_policy();
  FaultInjector* injector = cluster.fault_injector();
  CircuitBreakerSet& breakers = cluster.breakers();
  Rng fallback_backoff_rng(0x5eab0ffULL);
  Rng& backoff_rng = injector ? injector->rng() : fallback_backoff_rng;
  obs::Tracer* tracer = cluster.tracer();
  const RetryMetrics retry_obs = RetryMetrics::bind(cluster.metrics());
  obs::Counter* m_map_tasks = nullptr;
  obs::Counter* m_reduce_tasks = nullptr;
  obs::Counter* m_rerouted = nullptr;
  if (obs::MetricsRegistry* reg = cluster.metrics()) {
    m_map_tasks = &reg->counter("mr.map_tasks");
    m_reduce_tasks = &reg->counter("mr.reduce_tasks");
    m_rerouted = &reg->counter("mr.tasks_rerouted");
  }

  // Fault-aware message delivery: retries dropped/timed-out messages with
  // backoff per the cluster's RetryPolicy. Returns the modelled time of
  // all attempts plus backoff waits; throws RpcRetriesExhausted when the
  // attempt budget runs out. Every outcome feeds the destination's circuit
  // breaker and every modelled millisecond advances the breaker cooldown
  // clock and decrements the deadline budget. Consumes injector/backoff
  // RNG state — only ever called from the serial sections below.
  // Run-scoped retry token budget (retry-storm guard): shared across every
  // deliver() call this run makes, so a correlated outage (partition) stops
  // amplifying once the budget is spent instead of paying the full per-call
  // retry ladder on each of O(mappers x reducers) messages.
  std::size_t retry_tokens_used = 0;
  const auto deliver = [&](NodeId from, NodeId to,
                           std::uint64_t bytes) -> double {
    double total_ms = 0.0;
    for (std::size_t attempt = 0;; ++attempt) {
      const SendOutcome sent = cluster.network().try_send(
          from, to, static_cast<std::size_t>(bytes));
      total_ms += sent.ms;
      breakers.advance(sent.ms);
      if (tracer) tracer->advance(sent.ms);
      if (deadline) deadline->charge("mapreduce transfer", sent.ms);
      if (sent.delivered && sent.ms <= policy.rpc_timeout_ms) {
        breakers.record_success(to);
        return total_ms;
      }
      if (!sent.delivered) {
        ++rep.dropped_messages;
        retry_obs.on_drop();
      }
      breakers.record_failure(to);
      if (attempt + 1 >= policy.max_attempts)
        throw RpcRetriesExhausted(
            "run_map_reduce: " + std::to_string(policy.max_attempts) +
            " delivery attempts " + std::to_string(from) + "->" +
            std::to_string(to) + " all failed");
      if (policy.retry_budget > 0 && retry_tokens_used >= policy.retry_budget) {
        ++rep.retry_budget_exhausted;
        retry_obs.on_budget_exhausted();
        throw RpcRetriesExhausted(
            "run_map_reduce: run retry budget of " +
            std::to_string(policy.retry_budget) +
            " tokens exhausted (failing delivery " + std::to_string(from) +
            "->" + std::to_string(to) + ")");
      }
      ++retry_tokens_used;
      ++rep.retries;
      const double backoff = policy.backoff_ms(attempt, backoff_rng);
      rep.modelled_backoff_ms += backoff;
      retry_obs.on_retry(backoff);
      if (tracer)
        tracer->span_event("backoff", backoff, "", 0,
                           static_cast<std::int64_t>(to));
      breakers.advance(backoff);
      if (deadline) deadline->charge("mapreduce backoff", backoff);
      total_ms += backoff;
    }
  };

  // Failover-aware placement: each shard's map task runs at its serving
  // node (primary, or a live replica holder when the primary is down);
  // reducers are placed on live nodes only.
  std::vector<NodeId> shard_node(n);
  for (std::size_t shard = 0; shard < n; ++shard)
    shard_node[shard] = cluster.serving_node(table_name, shard);

  // --- map phase: full scans through the stack at every shard ---
  //
  // Serial pre-pass (shard order): the flap schedule advances at task
  // boundaries; a task whose planned node went down since placement is
  // re-routed to the shard's current serving node (a live replica
  // holder), like a real scheduler would. Task launch accounting happens
  // here too, so the injector-visible sequence is identical to a serial
  // run regardless of how the compute below is scheduled.
  std::vector<Emitter<K, V>>& emitted = scr.emitted;
  emitted.resize(n);
  for (auto& e : emitted) e.pairs().clear();  // keeps capacity across runs
  {
    obs::SpanScope map_span(tracer, "map_phase");
    for (std::size_t shard = 0; shard < n; ++shard) {
      if (injector) {
        const TickEffects fx = injector->tick(cluster);
        rep.recoveries += fx.restarts;
        rep.shard_restore_bytes += fx.restore_bytes;
      }
      const NodeId node = cluster.serving_node(table_name, shard);
      if (node != shard_node[shard]) {
        ++rep.tasks_rerouted;
        if (m_rerouted) m_rerouted->inc();
        if (tracer)
          tracer->event("reroute", "map", static_cast<std::int64_t>(node));
        shard_node[shard] = node;
      }
      cluster.account_task(node);
      rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
      if (tracer) tracer->advance(cluster.cost_model().task_overhead_ms());
      if (deadline)
        deadline->charge("map task overhead",
                         cluster.cost_model().task_overhead_ms());
      ++rep.map_tasks;
      if (m_map_tasks) m_map_tasks->inc();
    }
    // Parallel compute: each map task owns its emitter and reads only its
    // (immutable) partition.
    std::vector<double> map_ms(n, 0.0);
    ParallelFor(n, [&](std::size_t shard) {
      const Table& part = cluster.partition(table_name, shard);
      emitted[shard].reserve(part.num_rows());
      Timer t;
      job.map(shard_node[shard], part, emitted[shard]);
      map_ms[shard] = t.elapsed_ms();
    });
    // Serial post-pass: fold timings and charge the scans in shard order.
    for (std::size_t shard = 0; shard < n; ++shard) {
      rep.map_compute_ms_total += map_ms[shard];
      rep.map_compute_ms_max = std::max(rep.map_compute_ms_max, map_ms[shard]);
      const Table& part = cluster.partition(table_name, shard);
      cluster.account_scan(shard_node[shard], part.num_rows(),
                           part.byte_size());
      map_span.add_bytes(part.byte_size());
    }
  }

  // Reducers go on live nodes whose breaker is not open — a grey-failing
  // node that just tripped its breaker is as unusable as a down one.
  std::vector<NodeId> live;
  for (std::size_t node = 0; node < n; ++node)
    if (!cluster.node_is_down(static_cast<NodeId>(node)) &&
        !breakers.open_now(static_cast<NodeId>(node)))
      live.push_back(static_cast<NodeId>(node));
  const std::size_t num_reducers =
      job.num_reducers == 0 ? live.size()
                            : std::min(job.num_reducers, live.size());
  if (num_reducers == 0)
    throw NoLiveReplicaError(
        "run_map_reduce: no live node to place reducers on (down nodes: " +
        cluster.down_nodes_string() + ")");

  // --- shuffle: counting-sort partition by reducer route ---
  //
  // A two-pass counting sort with mappers as the blocks: (1) hash every
  // pair to its reducer and histogram per (mapper, reducer); (2) a
  // column-major exclusive scan turns the histogram into per-mapper write
  // cursors; (3) each mapper scatters its pairs into its pre-assigned
  // slots of one contiguous arena. Reducer r's segment then holds its
  // pairs in (mapper, emit-index) order — exactly the order the old
  // per-reducer scan over all mappers observed — with no per-pair hash-map
  // insertions and no O(reducers x total_pairs) re-scan.
  std::hash<K> hasher;
  std::size_t total_pairs = 0;
  for (std::size_t mapper = 0; mapper < n; ++mapper)
    total_pairs += emitted[mapper].pairs().size();
  std::vector<std::vector<std::uint32_t>>& route = scr.route;
  route.resize(n);
  std::vector<std::uint64_t>& counts = scr.route_counts;
  counts.assign(n * num_reducers, 0);
  ParallelFor(n, [&](std::size_t mapper) {
    auto& pairs = emitted[mapper].pairs();
    route[mapper].resize(pairs.size());
    std::uint64_t* c = counts.data() + mapper * num_reducers;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto r =
          static_cast<std::uint32_t>(hasher(pairs[i].first) % num_reducers);
      route[mapper][i] = r;
      ++c[r];
    }
  });
  // Batch bytes per (mapper, reducer): one message per batch, as a
  // combiner-enabled framework would send. Snapshotted before the counts
  // become write cursors.
  std::vector<std::uint64_t>& batch_bytes = scr.batch_bytes;
  batch_bytes.assign(n * num_reducers, 0);
  std::vector<std::uint64_t>& seg_begin = scr.seg_begin;
  seg_begin.assign(num_reducers + 1, 0);
  {
    std::uint64_t running = 0;
    for (std::size_t r = 0; r < num_reducers; ++r) {
      seg_begin[r] = running;
      for (std::size_t mapper = 0; mapper < n; ++mapper) {
        const std::uint64_t c = counts[mapper * num_reducers + r];
        batch_bytes[mapper * num_reducers + r] = c * job.kv_bytes;
        counts[mapper * num_reducers + r] = running;
        running += c;
      }
    }
    seg_begin[num_reducers] = running;
  }
  std::vector<std::pair<K, V>>& shuffled = scr.shuffled;
  shuffled.resize(total_pairs);
  ParallelFor(n, [&](std::size_t mapper) {
    auto& pairs = emitted[mapper].pairs();
    std::uint64_t* cur = counts.data() + mapper * num_reducers;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      shuffled[cur[route[mapper][i]]++] = std::move(pairs[i]);
  });

  // Group each reducer's segment by key: ids assigned at first occurrence
  // (segment order), then a stable counting sort over group ids yields
  // each group's value run — collect_reduce for arbitrary hashable keys.
  // Group content *and order* are a pure function of the emitted data: no
  // dependence on unordered_map iteration order (the old bucketing's one
  // stdlib-specific artifact) or on SEA_THREADS.
  struct ReducerGroups {
    std::vector<K> keys;
    std::vector<std::vector<V>> values;
  };
  std::vector<ReducerGroups> groups(num_reducers);
  ParallelFor(num_reducers, [&](std::size_t r) {
    const std::uint64_t lo = seg_begin[r], hi = seg_begin[r + 1];
    if (lo == hi) return;
    ReducerGroups& g = groups[r];
    std::unordered_map<K, std::uint32_t> group_of;
    group_of.reserve(static_cast<std::size_t>(hi - lo));
    std::vector<std::uint32_t> gid(static_cast<std::size_t>(hi - lo));
    for (std::uint64_t i = lo; i < hi; ++i) {
      const auto [it, inserted] = group_of.emplace(
          shuffled[i].first, static_cast<std::uint32_t>(g.keys.size()));
      if (inserted) g.keys.push_back(shuffled[i].first);
      gid[i - lo] = it->second;
    }
    const par::CountingSort cs = par::counting_sort(gid, g.keys.size());
    g.values.resize(g.keys.size());
    for (std::size_t k = 0; k < g.keys.size(); ++k) {
      auto& vals = g.values[k];
      vals.reserve(cs.offsets[k + 1] - cs.offsets[k]);
      for (std::uint32_t j = cs.offsets[k]; j < cs.offsets[k + 1]; ++j)
        vals.push_back(std::move(shuffled[lo + cs.order[j]].second));
    }
  });
  // Serial delivery in (mapper, reducer) order — the same message order a
  // serial engine produces, so drop/spike/backoff draws line up exactly.
  std::vector<double> inbound_ms(num_reducers, 0.0);
  std::vector<std::uint64_t> inbound_bytes(num_reducers, 0);
  {
    obs::SpanScope shuffle_span(tracer, "shuffle");
    for (std::size_t mapper = 0; mapper < n; ++mapper) {
      for (std::size_t r = 0; r < num_reducers; ++r) {
        const std::uint64_t bytes = batch_bytes[mapper * num_reducers + r];
        if (bytes == 0) continue;
        const double ms = deliver(shard_node[mapper], live[r], bytes);
        rep.modelled_network_ms += ms;
        inbound_ms[r] += ms;
        inbound_bytes[r] += bytes;
        rep.shuffle_bytes += bytes;
        shuffle_span.add_bytes(bytes);
      }
    }
  }

  // --- reduce phase ---
  //
  // Serial pre-pass (reducer order): ticks, flap re-routes, task launch
  // accounting, and result-message delivery. The result batch size is a
  // function of the group's key count, so delivery can be charged before
  // the reduce functions actually run.
  obs::SpanScope reduce_span(tracer, "reduce_phase");
  for (std::size_t r = 0; r < num_reducers; ++r) {
    if (seg_begin[r] == seg_begin[r + 1]) continue;
    NodeId rnode = live[r];
    if (injector) {
      const TickEffects fx = injector->tick(cluster);
      rep.recoveries += fx.restarts;
      rep.shard_restore_bytes += fx.restore_bytes;
    }
    if (cluster.node_is_down(rnode) || breakers.open_now(rnode)) {
      // The reducer flapped (or its breaker tripped) after the shuffle:
      // restart the reduce task on another usable node, which bulk
      // re-fetches its inbound partition (one re-sent batch, like a
      // speculative restart).
      NodeId fallback = rnode;
      bool found = false;
      for (std::size_t cand = 0; cand < n; ++cand) {
        if (!cluster.node_is_down(static_cast<NodeId>(cand)) &&
            !breakers.open_now(static_cast<NodeId>(cand))) {
          fallback = static_cast<NodeId>(cand);
          found = true;
          break;
        }
      }
      if (!found)
        throw NoLiveReplicaError(
            "run_map_reduce: reduce task " + std::to_string(r) +
            " has no live node to restart on (down nodes: " +
            cluster.down_nodes_string() + ")");
      ++rep.tasks_rerouted;
      if (m_rerouted) m_rerouted->inc();
      if (tracer)
        tracer->event("reroute", "reduce", static_cast<std::int64_t>(fallback));
      const double refetch_ms = deliver(rnode, fallback, inbound_bytes[r]);
      rep.modelled_network_ms += refetch_ms;
      inbound_ms[r] += refetch_ms;
      rnode = fallback;
    }
    cluster.account_task(rnode);
    rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
    if (tracer) tracer->advance(cluster.cost_model().task_overhead_ms());
    if (deadline)
      deadline->charge("reduce task overhead",
                       cluster.cost_model().task_overhead_ms());
    ++rep.reduce_tasks;
    if (m_reduce_tasks) m_reduce_tasks->inc();
    const std::uint64_t result_batch =
        static_cast<std::uint64_t>(groups[r].keys.size()) * job.result_bytes;
    const double net_ms = deliver(rnode, coordinator, result_batch);
    rep.modelled_network_ms += net_ms;
    rep.result_bytes += result_batch;
    reduce_span.add_bytes(result_batch);
  }
  // Parallel compute: each reducer owns its input group and result buffer.
  std::vector<std::vector<std::pair<K, R>>> reduced(num_reducers);
  std::vector<double> reduce_ms(num_reducers, 0.0);
  ParallelFor(num_reducers, [&](std::size_t r) {
    ReducerGroups& g = groups[r];
    if (g.keys.empty()) return;
    Timer t;
    reduced[r].reserve(g.keys.size());
    for (std::size_t k = 0; k < g.keys.size(); ++k)
      reduced[r].emplace_back(g.keys[k], job.reduce(g.keys[k], g.values[k]));
    reduce_ms[r] = t.elapsed_ms();
  });
  // Serial gather in reducer order.
  for (std::size_t r = 0; r < num_reducers; ++r) {
    if (reduced[r].empty()) continue;
    rep.reduce_compute_ms_total += reduce_ms[r];
    rep.reduce_compute_ms_max =
        std::max(rep.reduce_compute_ms_max, reduce_ms[r]);
    out.results.insert(out.results.end(),
                       std::make_move_iterator(reduced[r].begin()),
                       std::make_move_iterator(reduced[r].end()));
  }
  for (const double ms : inbound_ms)
    rep.modelled_network_ms_critical =
        std::max(rep.modelled_network_ms_critical, ms);
  rep.wall_ms = wall.elapsed_ms();
  return out;
}

}  // namespace sea
