#include "ops/knn_variants.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/timer.h"
#include "exec/coordinator.h"
#include "index/kdtree.h"

namespace sea {

namespace {

std::vector<Point> gather_points(const Table& part,
                                 const std::vector<std::size_t>& cols) {
  std::vector<Point> pts;
  pts.reserve(part.num_rows());
  Point p;
  for (std::size_t r = 0; r < part.num_rows(); ++r) {
    part.gather(r, cols, p);
    pts.push_back(p);
  }
  return pts;
}

/// k-th smallest value of `dists` (1-based k); +inf when fewer than k.
double kth_smallest(std::vector<double>& dists, std::size_t k) {
  if (dists.size() < k) return std::numeric_limits<double>::infinity();
  std::nth_element(dists.begin(),
                   dists.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dists.end());
  return dists[k - 1];
}

}  // namespace

RknnOutcome reverse_knn_scan(Cluster& cluster, const std::string& table,
                             const std::vector<std::size_t>& cols,
                             const Point& query, std::size_t k,
                             NodeId coordinator) {
  if (k == 0) throw std::invalid_argument("reverse_knn: k must be > 0");
  RknnOutcome out;
  ExecReport& rep = out.report;
  const std::size_t n = cluster.num_nodes();

  // Baseline: every partition's points are broadcast to every node so each
  // node can compute exact k-th-NN distances for its own tuples.
  std::vector<std::vector<Point>> all(n);
  std::uint64_t total_bytes = 0;
  for (std::size_t node = 0; node < n; ++node) {
    const Table& part = cluster.partition(table, static_cast<NodeId>(node));
    cluster.account_task(static_cast<NodeId>(node));
    rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
    ++rep.map_tasks;
    cluster.account_scan(static_cast<NodeId>(node), part.num_rows(),
                         part.byte_size());
    all[node] = gather_points(part, cols);
    total_bytes += all[node].size() * cols.size() * sizeof(double);
  }
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      const std::uint64_t bytes =
          all[from].size() * cols.size() * sizeof(double);
      rep.modelled_network_ms += cluster.network().send(
          static_cast<NodeId>(from), static_cast<NodeId>(to), bytes);
      rep.shuffle_bytes += bytes;
    }
  }

  for (std::size_t node = 0; node < n; ++node) {
    cluster.account_task(static_cast<NodeId>(node));
    rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
    ++rep.reduce_tasks;
    Timer t;
    for (std::uint32_t r = 0; r < all[node].size(); ++r) {
      const Point& p = all[node][r];
      const double dq = euclidean_distance(p, query);
      std::vector<double> dists;
      for (std::size_t other = 0; other < n; ++other) {
        for (std::uint32_t j = 0; j < all[other].size(); ++j) {
          if (other == node && j == r) continue;  // exclude self
          dists.push_back(euclidean_distance(p, all[other][j]));
        }
      }
      if (dq <= kth_smallest(dists, k))
        out.results.push_back(RknnResult{static_cast<NodeId>(node), r, dq});
    }
    const double ms = t.elapsed_ms();
    rep.reduce_compute_ms_total += ms;
    rep.reduce_compute_ms_max = std::max(rep.reduce_compute_ms_max, ms);
  }
  const std::uint64_t result_bytes = out.results.size() * 16;
  for (std::size_t node = 0; node < n; ++node)
    rep.modelled_network_ms += cluster.network().send(
        static_cast<NodeId>(node), coordinator, result_bytes / n + 8);
  rep.result_bytes += result_bytes;
  (void)total_bytes;
  return out;
}

RknnOutcome reverse_knn_indexed(Cluster& cluster, const std::string& table,
                                const std::vector<std::size_t>& cols,
                                const Point& query, std::size_t k,
                                NodeId coordinator) {
  if (k == 0) throw std::invalid_argument("reverse_knn: k must be > 0");
  RknnOutcome out;
  const std::size_t n = cluster.num_nodes();
  CohortSession session(cluster, coordinator);
  const auto trees = build_kdtrees(cluster.partitions(table), cols);

  // Phase 1 — local filter: a tuple whose distance to q exceeds its k-th
  // *local* NN distance certainly has k closer neighbours overall, so it
  // can be rejected without leaving its node.
  struct Survivor {
    NodeId node;
    std::uint32_t row;
    Point p;
    double dq;
  };
  std::vector<Survivor> survivors;
  for (std::size_t node = 0; node < n; ++node) {
    const Table& part = cluster.partition(table, static_cast<NodeId>(node));
    session.rpc(static_cast<NodeId>(node),
                (cols.size() + 2) * sizeof(double), 16, [&] {
      KdQueryCost cost;
      Point p;
      for (std::uint32_t r = 0; r < part.num_rows(); ++r) {
        part.gather(r, cols, p);
        const double dq = euclidean_distance(p, query);
        // k+1 because the tuple itself is its own 0-distance neighbour.
        const auto local = trees[node].knn(p, k + 1, &cost);
        const double local_kth =
            local.size() > k ? local[k].second
                             : std::numeric_limits<double>::infinity();
        if (dq <= local_kth)
          survivors.push_back(
              Survivor{static_cast<NodeId>(node), r, p, dq});
      }
      cluster.account_probe(static_cast<NodeId>(node), part.num_rows(),
                            cost.points_examined,
                            cost.points_examined * cols.size() *
                                sizeof(double));
    });
  }
  out.verified_globally = survivors.size();

  // Phase 2 — global verification for the (few) survivors: batched probes
  // against every other node's tree collect k candidate distances each.
  std::vector<std::vector<double>> cand(survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const auto local = trees[survivors[i].node].knn(survivors[i].p, k + 1);
    for (std::size_t j = 1; j < local.size(); ++j)  // drop self (j=0)
      cand[i].push_back(local[j].second);
  }
  for (std::size_t node = 0; node < n; ++node) {
    std::vector<std::size_t> remote_idx;
    for (std::size_t i = 0; i < survivors.size(); ++i)
      if (survivors[i].node != node) remote_idx.push_back(i);
    if (remote_idx.empty() || trees[node].empty()) continue;
    session.rpc(
        static_cast<NodeId>(node),
        remote_idx.size() * cols.size() * sizeof(double),
        remote_idx.size() * k * sizeof(double), [&] {
          KdQueryCost cost;
          for (const auto i : remote_idx) {
            const auto nn = trees[node].knn(survivors[i].p, k, &cost);
            for (const auto& [id, dist] : nn) {
              (void)id;
              cand[i].push_back(dist);
            }
          }
          cluster.account_probe(static_cast<NodeId>(node), remote_idx.size(),
                                cost.points_examined,
                                cost.points_examined * cols.size() *
                                    sizeof(double));
        });
  }
  session.local([&] {
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (survivors[i].dq <= kth_smallest(cand[i], k))
        out.results.push_back(RknnResult{survivors[i].node,
                                         survivors[i].row,
                                         survivors[i].dq});
    }
    std::sort(out.results.begin(), out.results.end(),
              [](const RknnResult& a, const RknnResult& b) {
                return a.node != b.node ? a.node < b.node : a.row < b.row;
              });
  });
  out.report = session.take_report();
  return out;
}

namespace {

/// Shared retrieval core: probe the given nodes' trees, merge to global k.
KnnRetrieval retrieve_from_nodes(Cluster& cluster, const std::string& table,
                                 const std::vector<std::size_t>& cols,
                                 const Point& query, std::size_t k,
                                 const std::vector<std::size_t>& nodes,
                                 NodeId coordinator) {
  KnnRetrieval out;
  CohortSession session(cluster, coordinator);
  const auto trees = build_kdtrees(cluster.partitions(table), cols);
  std::vector<RknnResult> merged;
  for (const auto node : nodes) {
    if (trees[node].empty()) continue;
    ++out.nodes_probed;
    session.rpc(static_cast<NodeId>(node),
                (cols.size() + 2) * sizeof(double), k * 16, [&] {
      KdQueryCost cost;
      const auto nn = trees[node].knn(query, k, &cost);
      for (const auto& [row, dist] : nn)
        merged.push_back(RknnResult{static_cast<NodeId>(node),
                                    static_cast<std::uint32_t>(row), dist});
      cluster.account_probe(static_cast<NodeId>(node), 1,
                            cost.points_examined,
                            cost.points_examined * cols.size() *
                                sizeof(double));
    });
  }
  session.local([&] {
    std::sort(merged.begin(), merged.end(),
              [](const RknnResult& a, const RknnResult& b) {
                return a.distance_to_query < b.distance_to_query;
              });
    if (merged.size() > k) merged.resize(k);
    out.neighbors = std::move(merged);
  });
  out.report = session.take_report();
  return out;
}

}  // namespace

KnnRetrieval knn_retrieve_exact(Cluster& cluster, const std::string& table,
                                const std::vector<std::size_t>& cols,
                                const Point& query, std::size_t k,
                                NodeId coordinator) {
  if (k == 0) throw std::invalid_argument("knn_retrieve: k must be > 0");
  std::vector<std::size_t> nodes(cluster.num_nodes());
  for (std::size_t n = 0; n < nodes.size(); ++n) nodes[n] = n;
  return retrieve_from_nodes(cluster, table, cols, query, k, nodes,
                             coordinator);
}

KnnRetrieval knn_retrieve_approx(Cluster& cluster, const std::string& table,
                                 const std::vector<std::size_t>& cols,
                                 const Point& query, std::size_t k,
                                 std::size_t nodes_to_probe,
                                 NodeId coordinator) {
  if (k == 0) throw std::invalid_argument("knn_retrieve: k must be > 0");
  if (nodes_to_probe == 0)
    throw std::invalid_argument("knn_retrieve_approx: need >= 1 node");
  // Rank nodes by the distance from the query to their partition's
  // bounding box (coordinator-side metadata, no data touched).
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    const Table& part = cluster.partition(table, static_cast<NodeId>(n));
    if (part.num_rows() == 0) continue;
    const Rect bounds = table_bounds(part, cols);
    ranked.emplace_back(bounds.min_squared_distance(query), n);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < std::min(nodes_to_probe, ranked.size()); ++i)
    nodes.push_back(ranked[i].second);
  return retrieve_from_nodes(cluster, table, cols, query, k, nodes,
                             coordinator);
}

double knn_recall(const KnnRetrieval& truth, const KnnRetrieval& approx) {
  if (truth.neighbors.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& t : truth.neighbors) {
    for (const auto& a : approx.neighbors) {
      if (a.node == t.node && a.row == t.row) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) /
         static_cast<double>(truth.neighbors.size());
}

KnnJoinOutcome knn_join_broadcast(Cluster& cluster, const std::string& table_a,
                                  const std::vector<std::size_t>& cols_a,
                                  const std::string& table_b,
                                  const std::vector<std::size_t>& cols_b,
                                  std::size_t k, NodeId coordinator) {
  if (k == 0) throw std::invalid_argument("knn_join: k must be > 0");
  if (cols_a.size() != cols_b.size())
    throw std::invalid_argument("knn_join: dims mismatch");
  KnnJoinOutcome out;
  ExecReport& rep = out.report;
  const std::size_t n = cluster.num_nodes();

  // All of B to every node.
  std::vector<Point> all_b;
  std::uint64_t b_bytes = 0;
  for (std::size_t node = 0; node < n; ++node) {
    const Table& bp = cluster.partition(table_b, static_cast<NodeId>(node));
    cluster.account_task(static_cast<NodeId>(node));
    rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
    ++rep.map_tasks;
    cluster.account_scan(static_cast<NodeId>(node), bp.num_rows(),
                         bp.byte_size());
    auto pts = gather_points(bp, cols_b);
    b_bytes += pts.size() * cols_b.size() * sizeof(double);
    all_b.insert(all_b.end(), pts.begin(), pts.end());
  }
  for (std::size_t node = 0; node < n; ++node) {
    const double ms = cluster.network().send(coordinator,
                                             static_cast<NodeId>(node),
                                             b_bytes);
    rep.modelled_network_ms += ms;
    rep.modelled_network_ms_critical =
        std::max(rep.modelled_network_ms_critical, ms);
    rep.shuffle_bytes += b_bytes;
  }

  double dist_sum = 0.0;
  for (std::size_t node = 0; node < n; ++node) {
    const Table& ap = cluster.partition(table_a, static_cast<NodeId>(node));
    cluster.account_task(static_cast<NodeId>(node));
    rep.modelled_overhead_ms += cluster.cost_model().task_overhead_ms();
    ++rep.map_tasks;
    Timer t;
    Point a;
    std::vector<double> dists;
    for (std::size_t r = 0; r < ap.num_rows(); ++r) {
      ap.gather(r, cols_a, a);
      dists.clear();
      dists.reserve(all_b.size());
      for (const auto& b : all_b)
        dists.push_back(euclidean_distance(a, b));
      const std::size_t take = std::min(k, dists.size());
      std::partial_sort(dists.begin(),
                        dists.begin() + static_cast<std::ptrdiff_t>(take),
                        dists.end());
      for (std::size_t i = 0; i < take; ++i) dist_sum += dists[i];
      out.pairs += take;
    }
    const double ms = t.elapsed_ms();
    rep.map_compute_ms_total += ms;
    rep.map_compute_ms_max = std::max(rep.map_compute_ms_max, ms);
    cluster.account_scan(static_cast<NodeId>(node), ap.num_rows(),
                         ap.byte_size());
  }
  out.mean_knn_distance =
      out.pairs ? dist_sum / static_cast<double>(out.pairs) : 0.0;
  return out;
}

KnnJoinOutcome knn_join_indexed(Cluster& cluster, const std::string& table_a,
                                const std::vector<std::size_t>& cols_a,
                                const std::string& table_b,
                                const std::vector<std::size_t>& cols_b,
                                std::size_t k, NodeId coordinator) {
  if (k == 0) throw std::invalid_argument("knn_join: k must be > 0");
  if (cols_a.size() != cols_b.size())
    throw std::invalid_argument("knn_join: dims mismatch");
  KnnJoinOutcome out;
  const std::size_t n = cluster.num_nodes();
  CohortSession session(cluster, coordinator);
  const auto trees = build_kdtrees(cluster.partitions(table_b), cols_b);

  double dist_sum = 0.0;
  for (std::size_t anode = 0; anode < n; ++anode) {
    const Table& ap = cluster.partition(table_a, static_cast<NodeId>(anode));
    if (ap.num_rows() == 0) continue;
    const auto a_pts = gather_points(ap, cols_a);
    // Per A-node candidate lists across all B trees, batched per B node.
    std::vector<std::vector<double>> cand(a_pts.size());
    for (std::size_t bnode = 0; bnode < n; ++bnode) {
      if (trees[bnode].empty()) continue;
      session.rpc(
          static_cast<NodeId>(bnode),
          a_pts.size() * cols_a.size() * sizeof(double),
          a_pts.size() * k * sizeof(double), [&] {
            KdQueryCost cost;
            for (std::size_t i = 0; i < a_pts.size(); ++i) {
              const auto nn = trees[bnode].knn(a_pts[i], k, &cost);
              for (const auto& [id, dist] : nn) {
                (void)id;
                cand[i].push_back(dist);
              }
            }
            cluster.account_probe(static_cast<NodeId>(bnode), a_pts.size(),
                                  cost.points_examined,
                                  cost.points_examined * cols_b.size() *
                                      sizeof(double));
          });
    }
    session.local([&] {
      for (auto& c : cand) {
        const std::size_t take = std::min(k, c.size());
        std::partial_sort(c.begin(),
                          c.begin() + static_cast<std::ptrdiff_t>(take),
                          c.end());
        for (std::size_t i = 0; i < take; ++i) dist_sum += c[i];
        out.pairs += take;
      }
    });
  }
  out.mean_knn_distance =
      out.pairs ? dist_sum / static_cast<double>(out.pairs) : 0.0;
  out.report = session.take_report();
  return out;
}

}  // namespace sea
