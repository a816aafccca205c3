// End-to-end serving benchmark: closed-loop ServedAnalytics workloads.
//
// One client process plays a closed loop of analysts: each request is one
// ServedAnalytics::serve_batch call of 8 queries, and the next request is
// sent only when the previous one returns. A run is K episodes; each sets
// a fresh system up and serves a fixed query count on its own
// query stream. Every model, accuracy and cost figure is therefore a pure
// function of (workload, seed, query count) and repeats bit for bit; only
// the wall-clock figures move between runs.
//
// Usage:
//   serving_bench --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--queries Q] [--episodes K] [--threads T]
//                 [--spans-out PATH]
//
// --seconds sets the fixed work: S times the workload's budget rate, split
// over the episodes. --queries overrides the per-episode count
// (self-tests), --threads the workload's SEA_THREADS. With --trace 0 the
// run reports end-to-end metrics over K untraced episodes (setup_s is the
// median set-up). With --trace 1 it serves episode 0 untraced and then
// traced, and reports per-layer metrics from the traced window.
//
// Prints one JSON object on stdout. Exits 1, printing nothing on stdout,
// when a correctness check fails: an exact answer off the full-scan oracle
// by more than 1e-9 relative, ServeStats::conserved() false, traced and
// untraced windows answering differently, or harness work reaching 1% of
// the timed window.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/parallel.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/replica.h"
#include "sea/agent.h"
#include "sea/exact.h"
#include "sea/served.h"
#include "workload/workload.h"

namespace {

using namespace sea;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 8;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kBootstrapQueries = 200;
constexpr std::size_t kMinRequests = 1000;  // >= 10 samples beyond p99
// Oracle samples per episode: data-less answers (the rel-error sample) and
// exact or audited answers (the 1e-9 check), each every n-th of its kind.
constexpr std::size_t kDatalessSamples = 2000;
constexpr std::size_t kExactSamples = 400;
constexpr double kExactTolerance = 1e-9;
constexpr double kHarnessShareLimit = 0.01;
const char* const kTable = "t";

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  std::size_t rows;
  ExecParadigm paradigm;
  std::size_t hotspots;
  double audit_fraction;
  std::size_t threads;       ///< SEA_THREADS for the whole run
  std::size_t drift_every;   ///< queries between hotspot drifts; 0 = stable
  double drift_fraction;     ///< of the domain width, per drift
  std::size_t write_every;   ///< queries between write batches; 0 = none
  double write_fraction;     ///< share of rows replaced per write batch
  bool replicated_model;     ///< serve from a 3-replica ModelReplicaSet
  bool auto_select_model;
  std::uint64_t purge_idle;
  double budget_qps;         ///< fixed work per second of --seconds
};

const WorkloadSpec kWorkloads[] = {
    {"dashboard_1m", 1'000'000, ExecParadigm::kCoordinatorIndexed, 3, 0.05,
     1, 0, 0.0, 0, 0.0, false, false, 0, 500.0},
    {"ingest_1m", 1'000'000, ExecParadigm::kCoordinatorIndexed, 3, 0.05, 2,
     0, 0.0, 256, 0.005, true, false, 0, 330.0},
    {"explore_100k", 100'000, ExecParadigm::kMapReduce, 8, 0.20, 1, 512,
     0.03, 0, 0.0, false, true, 1024, 1000.0},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// The workload's fixed structure: the table and the hotspot anchors are
/// drawn from this seed, so every --seed serves the same dataset and the
/// same analyst interests and varies only the query streams and the
/// written rows. The hotspots' drift path is structure too. Drawing tables
/// and hotspots from --seed moved throughput by up to 40% between seeds.
constexpr std::uint64_t kStructureSeed = 7;

/// The query mix: 50% range COUNT, 30% radius AVG(y), 20% kNN SUM(y), all
/// over (x0, x1), around hotspots anchored on sampled rows. One generator
/// per (hotspot, family) keeps the hotspot positions part of the fixed
/// structure while the streams follow the seed; hotspots are picked by
/// Zipf popularity.
class QueryMix {
 public:
  QueryMix(const Table& table, const WorkloadSpec& spec, std::uint64_t seed)
      : domain_(table_bounds(table, kCols)),
        hotspots_(sample_anchor_points(table, kCols, spec.hotspots,
                                       kStructureSeed)),
        drift_rng_(kStructureSeed),
        stream_seeds_(seed),
        popularity_(spec.hotspots, WorkloadConfig{}.hotspot_skew),
        pick_(seed * 0x9e3779b97f4a7c15ULL + 3) {
    restart_generators();
  }

  AnalyticalQuery next() {
    const std::size_t hotspot = popularity_(pick_);
    const double u = pick_.uniform();
    return gens_[hotspot * 3 + (u < 0.5 ? 0 : u < 0.8 ? 1 : 2)].next();
  }

  /// Moves every hotspot by a uniform offset of up to `fraction` of the
  /// domain width per dimension (as QueryWorkload::drift_hotspots does),
  /// along a drift path drawn from the structure seed.
  void drift(double fraction) {
    for (Point& h : hotspots_) {
      for (std::size_t i = 0; i < h.size(); ++i) {
        const double w = domain_.hi[i] - domain_.lo[i];
        h[i] = std::clamp(h[i] + drift_rng_.uniform(-1.0, 1.0) * fraction * w,
                          domain_.lo[i] + 0.05 * w, domain_.hi[i] - 0.05 * w);
      }
    }
    restart_generators();
  }

 private:
  inline static const std::vector<std::size_t> kCols{0, 1};

  void restart_generators() {
    const std::pair<SelectionType, AnalyticType> families[] = {
        {SelectionType::kRange, AnalyticType::kCount},
        {SelectionType::kRadius, AnalyticType::kAvg},
        {SelectionType::kNearestNeighbors, AnalyticType::kSum}};
    gens_.clear();
    for (const Point& hotspot : hotspots_) {
      for (const auto& [sel, an] : families) {
        WorkloadConfig wc;
        wc.selection = sel;
        wc.analytic = an;
        wc.subspace_cols = kCols;
        wc.target_col = 2;
        wc.num_hotspots = 1;
        wc.hotspot_anchors = {hotspot};
        wc.seed = stream_seeds_.next();
        gens_.emplace_back(wc, domain_);
      }
    }
  }

  Rect domain_;
  std::vector<Point> hotspots_;
  Rng drift_rng_;
  SplitMix64 stream_seeds_;
  std::vector<QueryWorkload> gens_;
  ZipfDistribution popularity_;
  Rng pick_;
};

/// Deterministic write batches: each replaces the oldest rows of every
/// partition with rows drawn around a cluster centre that moves a little
/// with every batch. Rows are a pure function of (seed, batch index), so
/// the oracle replays the same edits on a fresh copy of the table.
class WriteStream {
 public:
  WriteStream(std::uint64_t seed, std::size_t rows_per_partition)
      : rng_(seed ^ 0x3779b97f4a7c15e9ULL),
        per_partition_(rows_per_partition) {}

  /// Draws the rows of the next batch (kNodes * rows_per_partition rows of
  /// x0, x1, y; y follows the table's y = 2 x0 + 0.5 + noise).
  std::vector<double> draw() {
    const double step = 0.004 * static_cast<double>(batches_++);
    const double cx = std::min(0.9, 0.3 + step);
    const double cy = std::min(0.9, 0.3 + 0.5 * step);
    std::vector<double> rows;
    rows.reserve(kNodes * per_partition_ * 3);
    for (std::size_t i = 0; i < kNodes * per_partition_; ++i) {
      const double x0 = std::clamp(rng_.normal(cx, 0.05), 0.0, 1.0);
      const double x1 = std::clamp(rng_.normal(cy, 0.05), 0.0, 1.0);
      rows.push_back(x0);
      rows.push_back(x1);
      rows.push_back(2.0 * x0 + 0.5 + rng_.normal(0.0, 0.05));
    }
    return rows;
  }

  /// Erases the oldest rows of each partition and appends `rows`.
  void apply(Cluster& cluster, const std::vector<double>& rows) const {
    for (std::size_t n = 0; n < kNodes; ++n) {
      Table& part = cluster.mutable_partition(kTable, static_cast<NodeId>(n));
      part.erase_rows(0, std::min(per_partition_, part.num_rows()));
      for (std::size_t i = 0; i < per_partition_; ++i)
        part.append_row(std::span<const double>(
            rows.data() + (n * per_partition_ + i) * 3, 3));
    }
  }

  std::size_t rows_per_batch() const noexcept {
    return kNodes * per_partition_;
  }

 private:
  Rng rng_;
  std::size_t per_partition_;
  std::size_t batches_ = 0;
};

std::size_t write_rows_per_partition(const WorkloadSpec& spec) {
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(spec.rows) * spec.write_fraction /
                   static_cast<double>(kNodes)));
}

std::unique_ptr<Cluster> load_cluster(const Table& table) {
  auto cluster =
      std::make_unique<Cluster>(kNodes, Network::single_zone(kNodes));
  PartitionSpec ps;
  ps.replicas = 2;
  cluster->load_table(kTable, table, ps);
  return cluster;
}

// -------------------------------------------------------------- span export

/// Wall-clock spans recorded by the harness around its calls into each
/// layer; kept in memory and written once at exit.
class SpanRecorder {
 public:
  std::uint32_t begin(const char* name, std::uint32_t request) {
    const std::uint32_t id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({stack_.empty() ? kNone : stack_.back(), request, name,
                      Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    spans_[id].end = Clock::now();
    stack_.pop_back();
  }
  std::size_t size() const noexcept { return spans_.size(); }

  bool write_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const auto origin = spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    f << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\":%zu,\"parent\":%lld,\"request\":%u,"
                    "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}",
                    i, s.parent == kNone ? -1LL : (long long)s.parent,
                    s.request, s.name, us(s.start), us(s.end));
      f << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]\n";
    return static_cast<bool>(f);
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Span {
    std::uint32_t parent;
    std::uint32_t request;
    const char* name;
    Clock::time_point start, end;
  };
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint32_t request)
      : rec_(rec), id_(rec ? rec->begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

/// Forwarding ServingModelProvider for the traced run: times the recovery
/// layer's observe/advance calls as the serving loop makes them.
class TimedProvider final : public ServingModelProvider {
 public:
  TimedProvider(recovery::ModelReplicaSet& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  DatalessAgent* primary() override { return inner_.primary(); }
  bool primary_stale() const override { return inner_.primary_stale(); }
  void observe(const AnalyticalQuery& query, double truth) override {
    ScopedSpan span(spans_, "recovery.observe", request);
    const auto t0 = Clock::now();
    inner_.observe(query, truth);
    observe_ms += ms_between(t0, Clock::now());
    ++observes;
  }
  void advance(double modelled_ms) override {
    ScopedSpan span(spans_, "recovery.advance", request);
    const auto t0 = Clock::now();
    inner_.advance(modelled_ms);
    advance_ms += ms_between(t0, Clock::now());
    ++advances;
  }
  RecoveryDelta take_recovery_delta() override {
    return inner_.take_recovery_delta();
  }

  std::uint32_t request = 0;
  double observe_ms = 0.0, advance_ms = 0.0;
  std::uint64_t observes = 0, advances = 0;

 private:
  recovery::ModelReplicaSet& inner_;
  SpanRecorder* spans_;
};

// ------------------------------------------------------------------ system

/// One loaded serving deployment: table partitions on the cluster, the
/// exact executor, the agent (or its replica set) and the serving loop.
struct System {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ExactExecutor> exec;
  std::unique_ptr<DatalessAgent> agent;
  std::unique_ptr<recovery::ModelReplicaSet> replicas;
  std::unique_ptr<ServedAnalytics> served;
  std::unique_ptr<QueryMix> mix;
  std::unique_ptr<WriteStream> writes;
  std::uint64_t bootstrap_digest = 0;
  double setup_s = 0.0;

  DatalessAgent* model() {
    return replicas ? replicas->primary() : agent.get();
  }
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint8_t answer_flags(const ServedAnswer& a) {
  return static_cast<std::uint8_t>(a.data_less | a.audited << 1 |
                                   a.degraded << 2 | a.shed << 3 |
                                   a.failed << 4 | a.stale_model << 5);
}

std::uint64_t digest_answer(std::uint64_t h, const ServedAnswer& a) {
  const std::uint8_t flags = answer_flags(a);
  h = fnv1a(h, &a.value, sizeof(a.value));
  return fnv1a(h, &flags, 1);
}

/// Generation, load, first index build and the bootstrap queries.
std::unique_ptr<System> set_up(const WorkloadSpec& spec, std::uint64_t seed) {
  const auto t0 = Clock::now();
  auto sys = std::make_unique<System>();
  {
    const Table table =
        make_clustered_dataset(spec.rows, 2, 3, kStructureSeed);
    sys->cluster = load_cluster(table);
    sys->mix = std::make_unique<QueryMix>(table, spec, seed);
  }
  sys->exec = std::make_unique<ExactExecutor>(*sys->cluster, kTable);
  ExactExecutor& exec = *sys->exec;
  const auto domain = [&exec](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  };
  AgentConfig acfg = bench::default_agent_config();
  acfg.auto_select_model = spec.auto_select_model;
  acfg.purge_idle = spec.purge_idle;
  sys->agent = std::make_unique<DatalessAgent>(acfg, domain);
  ServeConfig scfg;
  scfg.bootstrap_queries = kBootstrapQueries;
  scfg.exact_paradigm = spec.paradigm;
  scfg.audit_fraction = spec.audit_fraction;
  sys->served = std::make_unique<ServedAnalytics>(*sys->agent, exec, scfg);
  if (spec.replicated_model) {
    recovery::ReplicaSetConfig rcfg;
    rcfg.nodes = {1, 2, 3};
    rcfg.agent = acfg;
    sys->replicas =
        std::make_unique<recovery::ModelReplicaSet>(rcfg, domain);
    sys->served->set_model_provider(sys->replicas.get());
  }
  if (spec.write_every > 0)
    sys->writes = std::make_unique<WriteStream>(
        seed, write_rows_per_partition(spec));

  std::uint64_t digest = kFnvBasis;
  std::vector<AnalyticalQuery> batch(kBatch);
  for (std::size_t done = 0; done < kBootstrapQueries; done += kBatch) {
    for (auto& q : batch) q = sys->mix->next();
    for (const ServedAnswer& a : sys->served->serve_batch(batch))
      digest = digest_answer(digest, a);
  }
  sys->bootstrap_digest = digest;
  sys->setup_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return sys;
}

// ------------------------------------------------------------ timed window

struct Sample {
  AnalyticalQuery query;
  double value = 0.0;
  double expected_abs_error = 0.0;
  bool data_less = false;  ///< model answer (rel-error sample)
  bool has_exact = false;  ///< exact or audit value to check at 1e-9
  double exact_value = 0.0;
  std::size_t epoch = 0;   ///< write batches applied before the query
  double oracle = 0.0;
};

/// Per-execution sums of ExecReport fields (exact answers and audits).
struct ExactTotals {
  std::uint64_t execs = 0;
  double wall = 0, coordinator = 0, map = 0, reduce = 0, modelled = 0;
  std::uint64_t tuples = 0, rpcs = 0, map_tasks = 0, shuffle_bytes = 0;

  void add(const ExactResult& r) {
    ++execs;
    wall += r.report.wall_ms;
    coordinator += r.report.coordinator_compute_ms;
    map += r.report.map_compute_ms_total;
    reduce += r.report.reduce_compute_ms_total;
    modelled += r.report.modelled_ms();
    tuples += r.qualifying_tuples;
    rpcs += r.report.rpc_round_trips;
    map_tasks += r.report.map_tasks;
    shuffle_bytes += r.report.shuffle_bytes;
  }
};

struct WindowResult {
  std::size_t queries = 0;
  double wall_ms = 0.0;
  double harness_ms = 0.0;     ///< generation + bookkeeping in the window
  double generate_ms = 0.0;    ///< QueryMix::next calls alone
  std::vector<double> request_ms;
  std::vector<double> write_ms;  ///< partition edits + invalidate
  double write_apply_ms = 0.0, write_invalidate_ms = 0.0;
  std::uint64_t write_rows = 0;
  std::uint64_t digest = kFnvBasis;  ///< bootstrap + window answers
  std::uint64_t dataless = 0, exact = 0, audited = 0, failed = 0, shed = 0;
  std::uint64_t threw = 0;
  double modelled_ms = 0.0;
  ExactTotals ex;
  std::vector<double> exact_lat_ms, dataless_lat_ms;
  double latency_sum_ms = 0.0;
  double index_build_ms = 0.0;
  std::uint64_t index_builds = 0;
  double peek_ms = 0.0;
  std::uint64_t peeks = 0;
  std::vector<Sample> samples;
  bool conserved = false;
  AgentStats agent_before, agent_after;
  std::size_t model_bytes = 0;
};

struct TraceHooks {
  SpanRecorder* spans = nullptr;
  TimedProvider* provider = nullptr;
};

WindowResult run_window(System& sys, const WorkloadSpec& spec,
                        std::size_t queries, const TraceHooks* trace) {
  WindowResult w;
  w.queries = queries;
  w.digest = sys.bootstrap_digest;
  const std::size_t requests = queries / kBatch;
  const std::size_t dataless_stride =
      std::max<std::size_t>(1, queries / kDatalessSamples);
  const std::size_t exact_stride =
      std::max<std::size_t>(1, queries / kExactSamples);
  w.request_ms.reserve(requests);
  w.samples.reserve(kDatalessSamples + kExactSamples);
  SpanRecorder* spans = trace ? trace->spans : nullptr;
  if (DatalessAgent* m = sys.model()) w.agent_before = m->stats();

  std::vector<AnalyticalQuery> batch(kBatch);
  std::size_t epoch = 0;
  double index_ms = sys.exec->index_build_ms();
  const auto start = Clock::now();
  for (std::size_t r = 0; r < requests; ++r) {
    const std::size_t first = r * kBatch;
    const auto req32 = static_cast<std::uint32_t>(r);
    ScopedSpan req_span(spans, "request", req32);
    if (spec.write_every > 0 && first > 0 && first % spec.write_every == 0) {
      ScopedSpan span(spans, "write", req32);
      const auto g0 = Clock::now();
      const std::vector<double> rows = sys.writes->draw();
      const auto t0 = Clock::now();
      {
        ScopedSpan s(spans, "write.apply", req32);
        sys.writes->apply(*sys.cluster, rows);
      }
      const auto t1 = Clock::now();
      {
        ScopedSpan s(spans, "write.invalidate", req32);
        sys.exec->invalidate_caches();
      }
      const auto t2 = Clock::now();
      w.harness_ms += ms_between(g0, t0);
      w.write_apply_ms += ms_between(t0, t1);
      w.write_invalidate_ms += ms_between(t1, t2);
      w.write_ms.push_back(ms_between(t0, t2));
      w.write_rows += sys.writes->rows_per_batch();
      ++epoch;
    }
    const auto g0 = Clock::now();
    {
      ScopedSpan span(spans, "generate", req32);
      if (spec.drift_every > 0 && first > 0 && first % spec.drift_every == 0)
        sys.mix->drift(spec.drift_fraction);
      for (auto& q : batch) q = sys.mix->next();
    }
    const auto g1 = Clock::now();
    w.generate_ms += ms_between(g0, g1);
    w.harness_ms += ms_between(g0, g1);

    if (trace) {
      // Model peek on the frozen model, outside the request's wall.
      ScopedSpan span(spans, "agent.peek", req32);
      if (const DatalessAgent* m = sys.model()) {
        for (const auto& q : batch) {
          const auto p0 = Clock::now();
          const DatalessAgent::PeekResult peek = m->peek_predict(q);
          w.peek_ms += ms_between(p0, Clock::now());
          ++w.peeks;
          (void)peek;
        }
      }
      if (trace->provider) trace->provider->request = req32;
    }

    std::vector<ServedAnswer> answers;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(spans, "serve_batch", req32);
      answers = sys.served->serve_batch(batch);
    } catch (const std::exception&) {
      answers.clear();
    }
    const auto t1 = Clock::now();
    w.request_ms.push_back(ms_between(t0, t1));

    // Bookkeeping (counted as harness time).
    if (answers.size() != kBatch) {
      w.threw += kBatch;
      const std::uint8_t flag = 0xff;
      w.digest = fnv1a(w.digest, &flag, 1);
    }
    const double build_now = sys.exec->index_build_ms();
    if (build_now > index_ms) {
      w.index_build_ms += build_now - index_ms;
      ++w.index_builds;
    }
    index_ms = build_now;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const ServedAnswer& a = answers[i];
      w.digest = digest_answer(w.digest, a);
      w.latency_sum_ms += a.latency_ms;
      if (a.failed) {
        ++w.failed;
        continue;
      }
      if (a.shed) ++w.shed;
      const bool executed = !a.data_less || a.audited;
      if (executed) {
        w.ex.add(a.exact);
        w.modelled_ms += a.exact.report.modelled_ms();
      }
      if (!a.data_less) {
        ++w.exact;
        w.exact_lat_ms.push_back(a.latency_ms);
      } else if (a.audited) {
        ++w.dataless;
        ++w.audited;
      } else {
        ++w.dataless;
        w.dataless_lat_ms.push_back(a.latency_ms);
      }
      const std::size_t qi = first + i;
      const bool sampled = qi % (a.data_less ? dataless_stride
                                             : exact_stride) == 0;
      if (sampled && !a.degraded && !a.shed) {
        Sample s;
        s.query = batch[i];
        s.value = a.value;
        s.data_less = a.data_less;
        s.expected_abs_error = a.prediction.expected_abs_error;
        s.has_exact = executed;
        s.exact_value = a.exact.answer;
        s.epoch = epoch;
        w.samples.push_back(std::move(s));
      }
    }
    w.harness_ms += ms_between(t1, Clock::now());
  }
  w.wall_ms = ms_between(start, Clock::now());
  w.conserved = sys.served->stats().conserved();
  if (DatalessAgent* m = sys.model()) {
    w.agent_after = m->stats();
    w.model_bytes = m->byte_size();
  }
  return w;
}

/// Digest of a run: the answers of every episode (bootstrap and window),
/// in order.
std::uint64_t run_digest(std::span<const WindowResult> windows) {
  std::uint64_t h = kFnvBasis;
  for (const WindowResult& w : windows)
    h = fnv1a(h, &w.digest, sizeof(w.digest));
  return h;
}

// ------------------------------------------------------------------ oracle

/// Full-scan oracle state of one query: plain loops over the columns,
/// independent of the executor's index, MapReduce and selection kernels.
/// Ranges are closed boxes and balls closed (d^2 <= r^2), as in the
/// library. Only the two-column (x0, x1) COUNT/SUM/AVG queries of the mix
/// occur, so a count and a target sum (or the k nearest targets) are all
/// the state needed.
struct OracleScan {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::pair<double, double>> heap;  ///< kNN: max-heap (d^2, y)

  /// Folds rows [first, last) of one partition into the state.
  void scan(const Table& part, const AnalyticalQuery& q, std::size_t first,
            std::size_t last) {
    const auto x = part.column(q.subspace_cols[0]);
    const auto y = part.column(q.subspace_cols[1]);
    const auto t = needs_target(q.analytic) ? part.column(q.target_col)
                                            : std::span<const double>();
    const auto target = [&](std::size_t r) { return t.empty() ? 0.0 : t[r]; };
    // Branch-free counting and summing: the selections qualify rows at
    // random, so a branchy loop would mostly measure mispredictions.
    switch (q.selection) {
      case SelectionType::kRange: {
        const Rect& b = q.range;
        for (std::size_t r = first; r < last; ++r) {
          const bool in = (x[r] >= b.lo[0]) & (x[r] <= b.hi[0]) &
                          (y[r] >= b.lo[1]) & (y[r] <= b.hi[1]);
          count += in;
          sum += in ? target(r) : 0.0;
        }
        break;
      }
      case SelectionType::kRadius: {
        const double r2 = q.ball.radius * q.ball.radius;
        const double cx = q.ball.center[0], cy = q.ball.center[1];
        for (std::size_t r = first; r < last; ++r) {
          const double dx = x[r] - cx, dy = y[r] - cy;
          const bool in = dx * dx + dy * dy <= r2;
          count += in;
          sum += in ? target(r) : 0.0;
        }
        break;
      }
      case SelectionType::kNearestNeighbors: {
        const double cx = q.knn_point[0], cy = q.knn_point[1];
        for (std::size_t r = first; r < last; ++r) {
          const double dx = x[r] - cx, dy = y[r] - cy;
          const double d2 = dx * dx + dy * dy;
          if (heap.size() < q.knn_k) {
            heap.emplace_back(d2, target(r));
            std::push_heap(heap.begin(), heap.end());
          } else if (d2 < heap.front().first) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = {d2, target(r)};
            std::push_heap(heap.begin(), heap.end());
          }
        }
        break;
      }
    }
  }

  double answer(const AnalyticalQuery& q) {
    AggregateState agg;
    agg.count = count;
    agg.sum_t = sum;
    std::sort(heap.begin(), heap.end());
    for (const auto& [d2, value] : heap) agg.add(value, 0.0);
    return agg.finalize(q.analytic);
  }
};

/// Fills Sample::oracle for every sample, replaying the window's write
/// batches on a freshly generated copy of the table so each answer is
/// checked against the data version it was served from. Runs after the
/// timed windows, on all hardware threads.
/// `mirror` is reused across calls on read-only workloads.
void run_oracle(const WorkloadSpec& spec, std::uint64_t seed,
                std::vector<Sample>& samples,
                std::unique_ptr<Cluster>& mirror) {
  if (!mirror || spec.write_every > 0)
    mirror =
        load_cluster(make_clustered_dataset(spec.rows, 2, 3, kStructureSeed));
  std::optional<WriteStream> writes;
  if (spec.write_every > 0)
    writes.emplace(seed, write_rows_per_partition(spec));
  std::size_t begin = 0;
  std::size_t epoch = 0;
  while (begin < samples.size()) {
    while (epoch < samples[begin].epoch) {
      writes->apply(*mirror, writes->draw());
      ++epoch;
    }
    std::size_t end = begin;
    while (end < samples.size() && samples[end].epoch == epoch) ++end;
    // Row-block-major: a chunk of queries scans one block of rows while it
    // is in cache, rather than every query streaming the whole table.
    constexpr std::size_t kBlockRows = 8192;
    ParallelChunks(end - begin, [&](std::size_t lo, std::size_t hi) {
      std::vector<OracleScan> scans(hi - lo);
      for (std::size_t n = 0; n < kNodes; ++n) {
        const Table& part = mirror->partition(kTable, static_cast<NodeId>(n));
        for (std::size_t r = 0; r < part.num_rows(); r += kBlockRows) {
          const std::size_t r_end = std::min(r + kBlockRows, part.num_rows());
          for (std::size_t i = lo; i < hi; ++i)
            scans[i - lo].scan(part, samples[begin + i].query, r, r_end);
        }
      }
      for (std::size_t i = lo; i < hi; ++i)
        samples[begin + i].oracle =
            scans[i - lo].answer(samples[begin + i].query);
    });
    begin = end;
  }
}

struct AccuracyResult {
  std::size_t dataless_sampled = 0;
  std::size_t exact_checked = 0;
  std::size_t mismatches = 0;
  double rel_err_p50 = 0.0, rel_err_p90 = 0.0, rel_err_p99 = 0.0;
  double coverage = 0.0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool exact_mismatch(const Sample& s) {
  const double tolerance = kExactTolerance * std::max(std::fabs(s.oracle), 1.0);
  return s.has_exact && std::fabs(s.exact_value - s.oracle) > tolerance;
}

AccuracyResult score(const std::vector<Sample>& samples) {
  AccuracyResult r;
  std::vector<double> rel;
  std::size_t covered = 0;
  for (const Sample& s : samples) {
    r.exact_checked += s.has_exact;
    r.mismatches += exact_mismatch(s);
    if (s.data_less) {
      const double err = std::fabs(s.value - s.oracle);
      rel.push_back(err / std::max(std::fabs(s.oracle), 1.0));
      if (err <= s.expected_abs_error) ++covered;
    }
  }
  r.dataless_sampled = rel.size();
  r.rel_err_p50 = quantile(rel, 0.5);
  r.rel_err_p90 = quantile(rel, 0.90);
  r.rel_err_p99 = quantile(rel, 0.99);
  r.coverage = rel.empty() ? 0.0
                           : static_cast<double>(covered) /
                                 static_cast<double>(rel.size());
  return r;
}

// ------------------------------------------------------------------ output

/// Ordered JSON object writer (numbers at full precision).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& num(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Metric table: name -> {value, unit}.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    Json m;
    m.num("value", value).str("unit", unit);
    json_.raw(name, m.dump());
  }
  std::string dump() const { return json_.dump(); }

 private:
  Json json_;
};

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::size_t queries = 0;
  std::size_t episodes = 3;
  std::size_t threads = 0;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--queries") a.queries = std::stoull(v);
    else if (k == "--episodes") a.episodes = std::stoull(v);
    else if (k == "--threads") a.threads = std::stoull(v);
    else if (k == "--spans-out") a.spans_out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.episodes == 0) throw std::invalid_argument("--episodes must be >= 1");
  return a;
}

/// Fixed work of one episode's window: --queries, else --seconds x the
/// workload's budget rate split over the episodes, so that a run serves at
/// least kMinRequests requests.
std::size_t window_queries(const Args& a, const WorkloadSpec& spec) {
  const auto round_up = [](std::size_t q) {
    return (q + kBatch - 1) / kBatch * kBatch;
  };
  if (a.queries > 0) return round_up(a.queries);
  const auto q = static_cast<std::size_t>(a.seconds * spec.budget_qps) /
                 a.episodes;
  return round_up(std::max(q, kMinRequests * kBatch / a.episodes));
}

/// Stream seed of episode k of a run.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t k) {
  SplitMix64 sm(seed + 0x9e3779b97f4a7c15ULL * (k + 1));
  return sm.next();
}

std::vector<std::string> check_window(const WindowResult& w) {
  std::vector<std::string> fails;
  if (!w.conserved) fails.push_back("ServeStats::conserved() is false");
  const AccuracyResult acc = score(w.samples);
  for (const Sample& s : w.samples)
    if (exact_mismatch(s))
      std::fprintf(stderr,
                   "oracle mismatch: %s answered %.17g, full scan %.17g\n",
                   s.query.describe().c_str(), s.exact_value, s.oracle);
  if (acc.mismatches > 0)
    fails.push_back(std::to_string(acc.mismatches) +
                    " exact answers differ from the full-scan oracle");
  if (acc.exact_checked == 0) fails.push_back("no exact answer was checked");
  const double share = w.harness_ms / w.wall_ms;
  if (share >= kHarnessShareLimit)
    fails.push_back("harness work is " + std::to_string(100.0 * share) +
                    "% of the timed window");
  return fails;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (!spec) throw std::invalid_argument("unknown workload " + args.workload);
  const std::size_t threads = args.threads ? args.threads : spec->threads;
  set_configured_threads(threads);
  const std::size_t queries = window_queries(args, *spec);

  std::vector<std::string> fails;
  Json out;
  out.str("workload", spec->name)
      .num("seed", args.seed)
      .num("threads", static_cast<std::uint64_t>(threads))
      .num("queries", static_cast<std::uint64_t>(queries))
      .num("trace", static_cast<std::uint64_t>(args.trace));

  if (args.trace == 0) {
    // End-to-end run: K episodes, each a set-up and a fixed-work window on
    // its own stream. Timings are medians or pools over the episodes;
    // accuracy pools their samples. The oracle runs after every window.
    std::vector<WindowResult> windows;
    std::vector<double> setup_s, qps, request_ms, write_ms;
    for (std::size_t k = 0; k < args.episodes; ++k) {
      std::unique_ptr<System> sys = set_up(*spec, episode_seed(args.seed, k));
      setup_s.push_back(sys->setup_s);
      windows.push_back(run_window(*sys, *spec, queries, nullptr));
    }
    const double rss = peak_rss_mb();
    const auto oracle_start = Clock::now();
    set_configured_threads(std::thread::hardware_concurrency());
    WindowResult all;
    std::vector<Sample> samples;
    std::unique_ptr<Cluster> mirror;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      WindowResult& w = windows[k];
      run_oracle(*spec, episode_seed(args.seed, k), w.samples, mirror);
      for (auto& f : check_window(w)) fails.push_back(f);
      qps.push_back(static_cast<double>(w.queries) / (w.wall_ms / 1000.0));
      request_ms.insert(request_ms.end(), w.request_ms.begin(),
                        w.request_ms.end());
      write_ms.insert(write_ms.end(), w.write_ms.begin(), w.write_ms.end());
      samples.insert(samples.end(), w.samples.begin(), w.samples.end());
      all.queries += w.queries;
      all.wall_ms += w.wall_ms;
      all.harness_ms += w.harness_ms;
      all.dataless += w.dataless;
      all.failed += w.failed;
      all.shed += w.shed;
      all.threw += w.threw;
      all.modelled_ms += w.modelled_ms;
    }
    const AccuracyResult acc = score(samples);
    const double oracle_s = ms_between(oracle_start, Clock::now()) / 1000.0;

    const double q = static_cast<double>(all.queries);
    const std::uint64_t failed = all.failed + all.shed + all.threw;
    Metrics m;
    m.add("setup_s", quantile(setup_s, 0.5), "s");
    m.add("throughput_qps", quantile(qps, 0.5), "1/s");
    m.add("request_p50_ms", quantile(request_ms, 0.5), "ms");
    m.add("request_p99_ms", quantile(request_ms, 0.99), "ms");
    m.add("dataless_share", static_cast<double>(all.dataless) / q, "ratio");
    m.add("rel_err_p50", acc.rel_err_p50, "ratio");
    m.add("rel_err_p90", acc.rel_err_p90, "ratio");
    m.add("rel_err_p99", acc.rel_err_p99, "ratio");
    m.add("error_bound_coverage", acc.coverage, "ratio");
    m.add("modelled_ms_per_query", all.modelled_ms / q, "ms");
    m.add("peak_rss_mb", rss, "MB");
    m.add("failed_share", static_cast<double>(failed) / q, "ratio");
    if (spec->write_every > 0)
      m.add("write_p50_ms", quantile(write_ms, 0.5), "ms");
    out.raw("metrics", m.dump());
    Json det;
    det.num("dataless_share", static_cast<double>(all.dataless) / q)
        .num("rel_err_p50", acc.rel_err_p50)
        .num("rel_err_p90", acc.rel_err_p90)
        .num("rel_err_p99", acc.rel_err_p99)
        .num("error_bound_coverage", acc.coverage)
        .num("modelled_ms_per_query", all.modelled_ms / q)
        .num("failed_share", static_cast<double>(failed) / q);
    out.raw("deterministic", det.dump())
        .str("digest", hex64(run_digest(windows)))
        .num("attempted", static_cast<std::uint64_t>(all.queries))
        .num("failed", failed)
        .num("oracle_exact_checked",
             static_cast<std::uint64_t>(acc.exact_checked))
        .num("oracle_dataless_sampled",
             static_cast<std::uint64_t>(acc.dataless_sampled))
        .num("harness_share", all.harness_ms / all.wall_ms)
        .num("oracle_s", oracle_s);
  } else {
    // Traced run: an untraced window for the overhead baseline, then the
    // same fixed work again on a fresh set-up with the obs tracer, the
    // timed provider and the harness spans attached.
    const std::uint64_t seed0 = episode_seed(args.seed, 0);
    std::unique_ptr<System> sys = set_up(*spec, seed0);
    const WindowResult base = run_window(*sys, *spec, queries, nullptr);
    sys.reset();
    sys = set_up(*spec, seed0);
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    sys->cluster->set_observability(&tracer, &registry);
    SpanRecorder spans;
    std::optional<TimedProvider> provider;
    if (sys->replicas) {
      sys->replicas->bind_obs(&tracer, &registry);
      provider.emplace(*sys->replicas, &spans);
      sys->served->set_model_provider(&*provider);
    }
    const recovery::RecoveryStats rec0 =
        sys->replicas ? sys->replicas->stats() : recovery::RecoveryStats{};
    const recovery::CheckpointStoreStats store0 =
        sys->replicas ? sys->replicas->store().stats()
                      : recovery::CheckpointStoreStats{};
    TraceHooks hooks{&spans, provider ? &*provider : nullptr};
    WindowResult w = run_window(*sys, *spec, queries, &hooks);
    const recovery::RecoveryStats rec1 =
        sys->replicas ? sys->replicas->stats() : recovery::RecoveryStats{};
    const recovery::CheckpointStoreStats store1 =
        sys->replicas ? sys->replicas->store().stats()
                      : recovery::CheckpointStoreStats{};
    const std::uint64_t obs_spans =
        tracer.spans().size() + tracer.dropped_spans();
    if (sys->replicas) sys->served->set_model_provider(sys->replicas.get());
    sys->cluster->set_observability(nullptr, nullptr);
    sys.reset();
    if (base.digest != w.digest)
      fails.push_back("traced and untraced windows answered differently");
    std::unique_ptr<Cluster> mirror;
    set_configured_threads(std::thread::hardware_concurrency());
    run_oracle(*spec, seed0, w.samples, mirror);
    for (auto& f : check_window(w)) fails.push_back(f);
    if (!args.spans_out.empty() && !spans.write_json(args.spans_out))
      fails.push_back("cannot write " + args.spans_out);

    // Means guard against empty denominators (a workload without writes
    // or replicas reports 0 for those layers).
    const auto per = [](double total, double n) {
      return n > 0.0 ? total / n : 0.0;
    };
    const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
    const double execs = num(w.ex.execs);
    const double writes = num(w.write_ms.size());
    double request_wall = 0.0;
    for (const double r : w.request_ms) request_wall += r;
    const double absorb = request_wall - w.latency_sum_ms;
    const double advance = provider ? provider->advance_ms : 0.0;
    const double unattributed =
        request_wall - w.ex.wall - w.peek_ms - advance - absorb;
    const double frame_bytes =
        num(store1.frame_bytes_written - store0.frame_bytes_written);
    const double base_qps = num(base.queries) / base.wall_ms;
    const double traced_qps = num(w.queries) / w.wall_ms;
    const AgentStats& a0 = w.agent_before;
    const AgentStats& a1 = w.agent_after;

    Metrics m;
    // sea serving ladder
    m.add("serve.dataless_n", num(w.dataless - w.audited), "count");
    m.add("serve.exact_n", num(w.exact), "count");
    m.add("serve.audited_n", num(w.audited), "count");
    m.add("serve.exact_lat_p50_ms", quantile(w.exact_lat_ms, 0.5), "ms");
    m.add("serve.exact_lat_p99_ms", quantile(w.exact_lat_ms, 0.99), "ms");
    m.add("serve.dataless_lat_p50_us",
          1000.0 * quantile(w.dataless_lat_ms, 0.5), "us");
    m.add("serve.absorb_ms_per_req", per(absorb, num(w.request_ms.size())),
          "ms");
    // sea agent
    m.add("agent.peek_us", 1000.0 * per(w.peek_ms, num(w.peeks)), "us");
    m.add("agent.observations", num(a1.observations - a0.observations),
          "count");
    m.add("agent.declined",
          num(a1.predictions_declined - a0.predictions_declined), "count");
    m.add("agent.drift_alarms", num(a1.drift_alarms - a0.drift_alarms),
          "count");
    m.add("agent.quanta_purged", num(a1.quanta_purged - a0.quanta_purged),
          "count");
    m.add("agent.model_kb", num(w.model_bytes) / 1024.0, "KiB");
    // sea exact + exec + cluster/net, per execution
    m.add("exact.execs", execs, "count");
    m.add("exact.wall_ms", per(w.ex.wall, execs), "ms");
    m.add("exact.coordinator_ms", per(w.ex.coordinator, execs), "ms");
    m.add("exact.map_ms", per(w.ex.map, execs), "ms");
    m.add("exact.reduce_ms", per(w.ex.reduce, execs), "ms");
    m.add("exact.other_ms",
          per(w.ex.wall - w.ex.coordinator - w.ex.map - w.ex.reduce, execs),
          "ms");
    m.add("exact.tuples", per(num(w.ex.tuples), execs), "count");
    m.add("exact.rpcs", per(num(w.ex.rpcs), execs), "count");
    m.add("exact.map_tasks", per(num(w.ex.map_tasks), execs), "count");
    m.add("exact.shuffle_kb", per(num(w.ex.shuffle_bytes) / 1024.0, execs),
          "KiB");
    m.add("exact.modelled_ms", per(w.ex.modelled, execs), "ms");
    // index
    m.add("index.build_ms", w.index_build_ms, "ms");
    m.add("index.builds", num(w.index_builds), "count");
    m.add("index.build_ms_per_build",
          per(w.index_build_ms, num(w.index_builds)), "ms");
    // data writes
    m.add("write.apply_ms", per(w.write_apply_ms, writes), "ms");
    m.add("write.invalidate_ms", per(w.write_invalidate_ms, writes), "ms");
    m.add("write.rows", num(w.write_rows), "count");
    // recovery
    m.add("recovery.observe_us",
          provider ? 1000.0 * per(provider->observe_ms,
                                  num(provider->observes))
                   : 0.0,
          "us");
    m.add("recovery.advance_us",
          provider ? 1000.0 * per(provider->advance_ms,
                                  num(provider->advances))
                   : 0.0,
          "us");
    m.add("recovery.checkpoints", num(rec1.checkpoints - rec0.checkpoints),
          "count");
    m.add("recovery.frame_kb_written", frame_bytes / 1024.0, "KiB");
    m.add("recovery.bytes_per_update",
          per(frame_bytes, num(store1.wal_appends - store0.wal_appends)), "B");
    // workload generator
    m.add("workload.next_us", 1000.0 * per(w.generate_ms, num(w.queries)),
          "us");
    m.add("workload.wall_share", w.harness_ms / w.wall_ms, "ratio");
    // obs
    m.add("trace.overhead_pct", 100.0 * (base_qps - traced_qps) / base_qps,
          "%");
    m.add("trace.spans", num(obs_spans + spans.size()), "count");
    // attribution of the summed request wall
    m.add("attr.request_wall_ms", request_wall, "ms");
    m.add("attr.exact_ms", w.ex.wall, "ms");
    m.add("attr.peek_ms", w.peek_ms, "ms");
    m.add("attr.advance_ms", advance, "ms");
    m.add("attr.absorb_ms", absorb, "ms");
    m.add("unattributed_ms", unattributed, "ms");
    m.add("unattributed_pct", 100.0 * unattributed / request_wall, "%");
    // layer loads as shares of the timed window
    m.add("window.wall_ms", w.wall_ms, "ms");
    m.add("share.exact_pct", 100.0 * w.ex.wall / w.wall_ms, "%");
    m.add("share.index_build_pct", 100.0 * w.index_build_ms / w.wall_ms, "%");
    m.add("share.absorb_mr_pct",
          100.0 * (absorb + w.ex.map + w.ex.reduce) / w.wall_ms, "%");
    m.add("share.write_pct",
          100.0 * (w.write_apply_ms + w.write_invalidate_ms) / w.wall_ms, "%");
    out.raw("metrics", m.dump())
        .str("digest", hex64(run_digest({&w, 1})))
        .num("attempted", static_cast<std::uint64_t>(w.queries))
        .num("failed", w.failed + w.shed + w.threw);
  }

  if (!fails.empty()) {
    for (const auto& f : fails)
      std::fprintf(stderr, "serving_bench: %s: %s\n", spec->name, f.c_str());
    return 1;
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 2;
  }
}
