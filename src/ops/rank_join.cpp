#include "ops/rank_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "exec/coordinator.h"
#include "index/bloom.h"
#include "index/score_index.h"

namespace sea {

namespace {

constexpr std::size_t kTupleWireBytes = 24;  // key + score + payload

struct TaggedTuple {
  std::uint64_t key;
  double score;
  bool from_r;
};

/// Min-heap based top-k accumulator over combined scores.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void offer(const JoinResult& r) {
    if (heap_.size() < k_) {
      heap_.push(r);
    } else if (r.combined > heap_.top().combined) {
      heap_.pop();
      heap_.push(r);
    }
  }

  double kth_best() const noexcept {
    return heap_.size() < k_ ? -std::numeric_limits<double>::infinity()
                             : heap_.top().combined;
  }

  bool full() const noexcept { return heap_.size() >= k_; }

  std::vector<JoinResult> take_sorted() {
    std::vector<JoinResult> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  struct Cmp {
    bool operator()(const JoinResult& a, const JoinResult& b) const noexcept {
      return a.combined > b.combined;  // min-heap on combined
    }
  };
  std::size_t k_;
  std::priority_queue<JoinResult, std::vector<JoinResult>, Cmp> heap_;
};

/// Node-resident index state for the surgical algorithm, cached per
/// (cluster, table) so repeated joins amortize builds like persistent
/// storage-node indexes would.
struct SurgicalIndexes {
  std::vector<ScoreIndex> r_index;      // per node
  std::vector<ScoreIndex> s_index;      // per node
  std::vector<BloomFilter> s_blooms;    // per node, over S keys
  double s_max_score = 0.0;
  double build_ms = 0.0;
  /// Bloom filters and top scores ship to the coordinator once per index
  /// lifetime (like any persistent metadata), not once per join.
  bool bootstrap_accounted = false;
};

std::unordered_map<std::string, SurgicalIndexes>& index_cache() {
  static std::unordered_map<std::string, SurgicalIndexes> cache;
  return cache;
}

std::string cache_key(const Cluster& cluster, const RankJoinSpec& spec) {
  return std::to_string(reinterpret_cast<std::uintptr_t>(&cluster)) + "/" +
         spec.table_r + "/" + spec.table_s + "/" +
         std::to_string(spec.key_col) + "," + std::to_string(spec.score_col);
}

SurgicalIndexes& surgical_indexes(Cluster& cluster,
                                  const RankJoinSpec& spec) {
  const std::string key = cache_key(cluster, spec);
  auto& cache = index_cache();
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  Timer t;
  SurgicalIndexes idx;
  const std::size_t n = cluster.num_nodes();
  idx.r_index.reserve(n);
  idx.s_index.reserve(n);
  idx.s_blooms.reserve(n);
  idx.s_max_score = -std::numeric_limits<double>::infinity();
  for (std::size_t node = 0; node < n; ++node) {
    const Table& rp = cluster.partition(spec.table_r,
                                        static_cast<NodeId>(node));
    const Table& sp = cluster.partition(spec.table_s,
                                        static_cast<NodeId>(node));
    idx.r_index.emplace_back(rp, spec.key_col, spec.score_col,
                             spec.payload_col);
    idx.s_index.emplace_back(sp, spec.key_col, spec.score_col,
                             spec.payload_col);
    BloomFilter bloom(std::max<std::size_t>(1, sp.num_rows()),
                      spec.bloom_fpr);
    const auto keys = sp.column(spec.key_col);
    for (const double kv : keys)
      bloom.insert(static_cast<std::uint64_t>(std::llround(kv)));
    idx.s_blooms.push_back(std::move(bloom));
    const double top = idx.s_index.back().empty()
                           ? -std::numeric_limits<double>::infinity()
                           : idx.s_index.back().by_rank(0).score;
    idx.s_max_score = std::max(idx.s_max_score, top);
  }
  idx.build_ms = t.elapsed_ms();
  return cache.emplace(key, std::move(idx)).first->second;
}

}  // namespace

void invalidate_rank_join_indexes() { index_cache().clear(); }

RankJoinOutcome rank_join_mapreduce(Cluster& cluster,
                                    const RankJoinSpec& spec,
                                    NodeId coordinator) {
  RankJoinOutcome out;
  ExecReport& rep = out.report;
  const std::size_t n = cluster.num_nodes();

  // --- map phase: full scans of both relations, shuffle by join key ---
  std::vector<std::unordered_map<std::uint64_t, std::vector<TaggedTuple>>>
      buckets(n);
  for (const std::string* table : {&spec.table_r, &spec.table_s}) {
    const bool from_r = table == &spec.table_r;
    for (std::size_t node = 0; node < n; ++node) {
      const Table& part = cluster.partition(*table,
                                            static_cast<NodeId>(node));
      cluster.account_task(static_cast<NodeId>(node));
      rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
      ++rep.map_tasks;
      Timer t;
      std::vector<std::uint64_t> batch_bytes(n, 0);
      const auto keys = part.column(spec.key_col);
      const auto scores = part.column(spec.score_col);
      for (std::size_t r = 0; r < part.num_rows(); ++r) {
        const auto key =
            static_cast<std::uint64_t>(std::llround(keys[r]));
        const std::size_t reducer = key % n;
        buckets[reducer][key].push_back(TaggedTuple{key, scores[r], from_r});
        batch_bytes[reducer] += kTupleWireBytes;
      }
      const double ms = t.elapsed_ms();
      rep.map_compute_ms_total += ms;
      rep.map_compute_ms_max = std::max(rep.map_compute_ms_max, ms);
      cluster.account_scan(static_cast<NodeId>(node), part.num_rows(),
                           part.byte_size());
      std::vector<double> inbound(n, 0.0);
      for (std::size_t reducer = 0; reducer < n; ++reducer) {
        if (batch_bytes[reducer] == 0) continue;
        const double net =
            cluster.network().send(static_cast<NodeId>(node),
                                   static_cast<NodeId>(reducer),
                                   batch_bytes[reducer]);
        rep.modelled_network_ms += net;
        inbound[reducer] += net;
        rep.shuffle_bytes += batch_bytes[reducer];
      }
      for (const double ms_in : inbound)
        rep.modelled_network_ms_critical =
            std::max(rep.modelled_network_ms_critical, ms_in);
    }
  }

  // --- reduce phase: per-key score products, reducer-local top-k ---
  TopK global(spec.k);
  for (std::size_t reducer = 0; reducer < n; ++reducer) {
    if (buckets[reducer].empty()) continue;
    cluster.account_task(static_cast<NodeId>(reducer));
    rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
    ++rep.reduce_tasks;
    Timer t;
    TopK local(spec.k);
    for (const auto& [key, tuples] : buckets[reducer]) {
      for (const auto& a : tuples) {
        if (!a.from_r) continue;
        for (const auto& b : tuples) {
          if (b.from_r) continue;
          local.offer(JoinResult{key, a.score, b.score, a.score + b.score});
        }
      }
    }
    auto local_top = local.take_sorted();
    const double ms = t.elapsed_ms();
    rep.reduce_compute_ms_total += ms;
    rep.reduce_compute_ms_max = std::max(rep.reduce_compute_ms_max, ms);
    const std::uint64_t bytes =
        local_top.size() * sizeof(JoinResult);
    rep.modelled_network_ms += cluster.network().send(
        static_cast<NodeId>(reducer), coordinator, bytes);
    rep.result_bytes += bytes;
    for (const auto& r : local_top) global.offer(r);
  }
  out.topk = global.take_sorted();
  return out;
}

RankJoinOutcome rank_join_surgical(Cluster& cluster, const RankJoinSpec& spec,
                                   NodeId coordinator) {
  RankJoinOutcome out;
  auto& idx = surgical_indexes(cluster, spec);
  const std::size_t n = cluster.num_nodes();
  CohortSession session(cluster, coordinator);

  // Bootstrap: every node ships its Bloom filter and top scores, once per
  // index lifetime (amortized across joins like the indexes themselves).
  if (!idx.bootstrap_accounted) {
    for (std::size_t node = 0; node < n; ++node) {
      session.rpc(static_cast<NodeId>(node), 16,
                  idx.s_blooms[node].byte_size() + 16, [] {});
    }
    idx.bootstrap_accounted = true;
  }

  // Per-node sorted-access cursors into R; `next_score` peeks are part of
  // each batch response.
  std::vector<std::size_t> cursor(n, 0);
  std::vector<double> next_score(n);
  for (std::size_t node = 0; node < n; ++node)
    next_score[node] = idx.r_index[node].empty()
                           ? -std::numeric_limits<double>::infinity()
                           : idx.r_index[node].by_rank(0).score;

  TopK topk(spec.k);

  const auto best_frontier = [&]() -> std::size_t {
    std::size_t best = n;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t node = 0; node < n; ++node) {
      if (cursor[node] < idx.r_index[node].size() &&
          next_score[node] > best_score) {
        best_score = next_score[node];
        best = node;
      }
    }
    return best;
  };

  for (;;) {
    const std::size_t node = best_frontier();
    if (node == n) break;  // R exhausted everywhere
    // Threshold bound: no undiscovered result can beat kth_best once the
    // best remaining R score plus the global S maximum falls below it.
    if (topk.full() &&
        next_score[node] + idx.s_max_score <= topk.kth_best())
      break;

    // Sorted-access batch pull from this node.
    const std::size_t take =
        std::min(spec.batch_size, idx.r_index[node].size() - cursor[node]);
    std::vector<ScoredTuple> batch = session.rpc(
        static_cast<NodeId>(node), 16, take * kTupleWireBytes + 8, [&] {
          std::vector<ScoredTuple> b;
          b.reserve(take);
          for (std::size_t i = 0; i < take; ++i)
            b.push_back(idx.r_index[node].by_rank(cursor[node] + i));
          cluster.account_probe(static_cast<NodeId>(node), 1, take,
                                take * kTupleWireBytes);
          return b;
        });
    cursor[node] += take;
    next_score[node] = cursor[node] < idx.r_index[node].size()
                           ? idx.r_index[node].by_rank(cursor[node]).score
                           : -std::numeric_limits<double>::infinity();
    out.r_tuples_consumed += take;

    // Random access, batched per node ([30]): group this batch's keys by
    // the S nodes whose Bloom filter may hold them, with a per-key score
    // threshold — S matches scoring below (kth_best - best_r_for_key)
    // cannot enter the top-k, so they never leave the node. One RPC per
    // (batch, node) amortizes round-trip latency.
    std::unordered_map<std::uint64_t, double> key_best_r;
    for (const auto& rt : batch) {
      if (topk.full() && rt.score + idx.s_max_score <= topk.kth_best())
        continue;
      const auto it = key_best_r.find(rt.key);
      if (it == key_best_r.end() || rt.score > it->second)
        key_best_r[rt.key] = rt.score;
    }
    for (std::size_t snode = 0; snode < n && !key_best_r.empty(); ++snode) {
      std::vector<std::pair<std::uint64_t, double>> probe_keys;
      for (const auto& [key, best_r] : key_best_r) {
        if (idx.s_blooms[snode].may_contain(key))
          probe_keys.emplace_back(
              key, topk.full()
                       ? topk.kth_best() - best_r
                       : -std::numeric_limits<double>::infinity());
      }
      if (probe_keys.empty()) continue;
      out.s_probes += probe_keys.size();
      // (key, s_score) matches above the per-key threshold.
      auto matches = session.rpc(
          static_cast<NodeId>(snode), probe_keys.size() * 16 + 8, 8, [&] {
            std::vector<std::pair<std::uint64_t, double>> found;
            std::uint64_t touched = 0;
            for (const auto& [key, threshold] : probe_keys) {
              const auto ranks = idx.s_index[snode].ranks_for_key(key);
              // Ascending rank positions = descending scores: stop at the
              // first below-threshold score.
              for (const auto rank : ranks) {
                const double sc = idx.s_index[snode].by_rank(rank).score;
                if (sc <= threshold) break;
                found.emplace_back(key, sc);
                ++touched;
              }
            }
            cluster.account_probe(static_cast<NodeId>(snode),
                                  probe_keys.size(), touched + 1,
                                  (touched + 1) * kTupleWireBytes);
            return found;
          });
      // The 8-byte response covered the header; account the variable-
      // length match list now that its size is known.
      session.extra_response(static_cast<NodeId>(snode),
                             matches.size() * 16);
      for (const auto& [key, s_score] : matches) {
        // All R tuples of this batch with that key join against the match.
        for (const auto& rt : batch) {
          if (rt.key != key) continue;
          topk.offer(
              JoinResult{key, rt.score, s_score, rt.score + s_score});
        }
      }
    }
  }
  out.topk = topk.take_sorted();
  out.report = session.take_report();
  return out;
}

}  // namespace sea
