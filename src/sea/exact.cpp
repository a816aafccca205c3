#include "sea/exact.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>

#include "common/primitives.h"
#include "common/timer.h"
#include "data/columnar.h"
#include "exec/coordinator.h"
#include "exec/mapreduce.h"

namespace sea {

namespace {

/// Contiguous spans of the query's target columns (empty spans when the
/// analytic has no / no second target): row-r targets are one indexed load
/// each instead of a bounds-checked Table::at per row.
struct TargetColumns {
  std::span<const double> t;
  std::span<const double> u;

  TargetColumns(const Table& part, const AnalyticalQuery& q)
      : t(needs_target(q.analytic) ? part.column(q.target_col)
                                   : std::span<const double>()),
        u(needs_second_target(q.analytic) ? part.column(q.target_col2)
                                          : std::span<const double>()) {}

  double t_of(std::size_t r) const noexcept { return t.empty() ? 0.0 : t[r]; }
  double u_of(std::size_t r) const noexcept { return u.empty() ? 0.0 : u[r]; }
};

/// Candidate for distributed kNN selections: distance + target values.
struct KnnCand {
  double dist = 0.0;
  double t = 0.0;
  double u = 0.0;
};

/// Fused k-d probe fold: qualifying slots go straight into the aggregate,
/// reading the slot-ordered target copies (null = no such target). With no
/// target (COUNT) a wholly covered subtree adds its size in O(1); otherwise
/// every value is added in walk order — the order range_query returns row
/// ids in, so the sums are bit-identical to gathering those rows.
struct SlotFold {
  const double* t = nullptr;
  const double* u = nullptr;
  AggregateState agg;

  bool subtree(std::uint32_t begin, std::uint32_t end) noexcept {
    if (t != nullptr) return false;
    agg.count += end - begin;
    return true;
  }
  void run(std::uint32_t begin, std::uint32_t end) noexcept {
    if (t == nullptr) {
      agg.count += end - begin;  // add(0, 0) leaves every sum at +0.0
      return;
    }
    AggregateState a = agg;  // a local: the sums stay in registers
    if (u == nullptr) {
      for (std::uint32_t s = begin; s < end; ++s) a.add(t[s], 0.0);
    } else {
      for (std::uint32_t s = begin; s < end; ++s) a.add(t[s], u[s]);
    }
    agg = a;
  }
};

/// Per-node grid-build inputs, shared by the uniform and the learned grid
/// caches so both structures see identical points, domains and cell counts.
struct GridBuildInput {
  std::vector<Point> pts;
  Rect dom;
  std::size_t cells = 2;
};

GridBuildInput grid_build_input(const Table& part,
                                const std::vector<std::size_t>& cols) {
  GridBuildInput in;
  // Column-at-a-time fill from contiguous spans (no per-row gather).
  in.pts.assign(part.num_rows(), Point(cols.size()));
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const auto col = part.column(cols[c]);
    for (std::size_t r = 0; r < part.num_rows(); ++r) in.pts[r][c] = col[r];
  }
  in.dom = part.num_rows() ? table_bounds(part, cols) : Rect{};
  if (part.num_rows() == 0) {
    in.dom.lo.assign(cols.size(), 0.0);
    in.dom.hi.assign(cols.size(), 1.0);
  }
  // Pad the upper edge so maxima land inside the last cell.
  for (std::size_t i = 0; i < cols.size(); ++i)
    in.dom.hi[i] = std::nextafter(in.dom.hi[i] + 1e-12,
                                  std::numeric_limits<double>::max());
  // Cells per dimension: ~rows^(1/d) capped to keep memory sane.
  const double per_dim = std::pow(
      std::max<double>(1.0, static_cast<double>(part.num_rows())),
      1.0 / static_cast<double>(cols.size()));
  in.cells = std::clamp<std::size_t>(
      static_cast<std::size_t>(per_dim / 2.0), 2, 32);
  return in;
}

}  // namespace

/// Reusable shuffle buffers, one per MapReduce job shape the executor runs.
struct ExactExecutor::MrScratch {
  MapReduceScratch<int, KnnCand> knn;
  MapReduceScratch<int, AggregateState> agg;
};

const char* to_string(ExecParadigm p) noexcept {
  switch (p) {
    case ExecParadigm::kMapReduce:
      return "mapreduce";
    case ExecParadigm::kCoordinatorIndexed:
      return "coordinator_indexed";
    case ExecParadigm::kCoordinatorGrid:
      return "coordinator_grid";
    case ExecParadigm::kCoordinatorLearned:
      return "coordinator_learned";
  }
  return "?";
}

ExactExecutor::ExactExecutor(Cluster& cluster, std::string table_name,
                             NodeId coordinator)
    : cluster_(cluster), table_(std::move(table_name)),
      coordinator_(coordinator),
      mr_scratch_(std::make_unique<MrScratch>()) {
  if (!cluster_.has_table(table_))
    throw std::invalid_argument("ExactExecutor: unknown table " + table_);
}

ExactExecutor::~ExactExecutor() = default;

std::string ExactExecutor::colset_key(const std::vector<std::size_t>& cols) {
  std::ostringstream os;
  for (const auto c : cols) os << c << ',';
  return os.str();
}

ExactExecutor::NodeIndexes& ExactExecutor::indexes_for(
    const std::vector<std::size_t>& cols) {
  const std::string key = colset_key(cols);
  auto it = index_cache_.find(key);
  if (it != index_cache_.end()) return it->second;
  Timer t;
  NodeIndexes idx;
  idx.per_node = build_kdtrees(cluster_.partitions(table_), cols);
  index_build_ms_ += t.elapsed_ms();
  return index_cache_.emplace(key, std::move(idx)).first->second;
}

const std::vector<std::vector<double>>& ExactExecutor::slot_targets(
    NodeIndexes& idx, std::size_t col) {
  auto it = idx.slot_targets.find(col);
  if (it != idx.slot_targets.end()) return it->second;
  // A column copy, not a build: the time stays on the query that needs
  // it, so index_build_ms() keeps counting tree builds only. Like the
  // builds, the copies are allocated here and filled one node per task.
  std::vector<std::vector<double>> per_node(idx.per_node.size());
  std::vector<std::span<const double>> src(per_node.size());
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    per_node[n].resize(idx.per_node[n].size());
    src[n] = cluster_.partition(table_, static_cast<NodeId>(n)).column(col);
  }
  ParallelFor(per_node.size(), [&](std::size_t n) {
    const auto ids = idx.per_node[n].slot_ids();
    for (std::size_t s = 0; s < ids.size(); ++s)
      per_node[n][s] = src[n][static_cast<std::size_t>(ids[s])];
  });
  return idx.slot_targets.emplace(col, std::move(per_node)).first->second;
}

const ExactExecutor::NodeGrids& ExactExecutor::grids_for(
    const std::vector<std::size_t>& cols) {
  const std::string key = colset_key(cols);
  auto it = grid_cache_.find(key);
  if (it != grid_cache_.end()) return it->second;
  Timer t;
  NodeGrids grids;
  grids.per_node.reserve(cluster_.num_nodes());
  for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
    const Table& part = cluster_.partition(table_, static_cast<NodeId>(n));
    GridBuildInput in = grid_build_input(part, cols);
    grids.per_node.emplace_back(std::move(in.pts), std::move(in.dom),
                                in.cells);
  }
  index_build_ms_ += t.elapsed_ms();
  return grid_cache_.emplace(key, std::move(grids)).first->second;
}

const ExactExecutor::NodeLearnedGrids& ExactExecutor::learned_for(
    const std::vector<std::size_t>& cols) {
  const std::string key = colset_key(cols);
  auto it = learned_cache_.find(key);
  if (it != learned_cache_.end()) return it->second;
  Timer t;
  NodeLearnedGrids grids;
  grids.per_node.reserve(cluster_.num_nodes());
  for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
    const Table& part = cluster_.partition(table_, static_cast<NodeId>(n));
    GridBuildInput in = grid_build_input(part, cols);
    grids.per_node.emplace_back(std::move(in.pts), std::move(in.dom),
                                in.cells);
  }
  index_build_ms_ += t.elapsed_ms();
  return learned_cache_.emplace(key, std::move(grids)).first->second;
}

const Rect& ExactExecutor::domain(const std::vector<std::size_t>& cols) {
  const std::string key = colset_key(cols);
  auto it = domain_cache_.find(key);
  if (it != domain_cache_.end()) return it->second;
  // Fold every partition's non-NaN min/max (par::minmax gives {+inf, -inf}
  // for a partition with none, which adds nothing); a column with no
  // non-NaN value anywhere gets the empty table's unit domain.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rect bounds;
  bounds.lo.assign(cols.size(), kInf);
  bounds.hi.assign(cols.size(), -kInf);
  for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
    const Table& part = cluster_.partition(table_, static_cast<NodeId>(n));
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const auto [mn, mx] = par::minmax(part.column(cols[i]));
      bounds.lo[i] = std::min(bounds.lo[i], mn);
      bounds.hi[i] = std::max(bounds.hi[i], mx);
    }
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (bounds.lo[i] > bounds.hi[i]) {
      bounds.lo[i] = 0.0;
      bounds.hi[i] = 1.0;
    }
  }
  return domain_cache_.emplace(key, std::move(bounds)).first->second;
}

void ExactExecutor::invalidate_caches() {
  index_cache_.clear();
  grid_cache_.clear();
  learned_cache_.clear();
  domain_cache_.clear();
}

ExactResult ExactExecutor::execute(const AnalyticalQuery& query,
                                   ExecParadigm paradigm,
                                   QueryDeadline* deadline) {
  query.validate();
  // End-to-end wall clock of the whole call (index builds included), so
  // every paradigm's report carries a measured wall_ms next to the
  // modelled columns.
  Timer wall;
  obs::SpanScope span(cluster_.tracer(), "exact");
  span.set_tag(to_string(paradigm));
  ExactResult res = [&] {
    switch (paradigm) {
      case ExecParadigm::kMapReduce:
        return execute_mapreduce(query, deadline);
      case ExecParadigm::kCoordinatorIndexed:
      case ExecParadigm::kCoordinatorGrid:
      case ExecParadigm::kCoordinatorLearned:
        return execute_indexed(query, paradigm, deadline);
    }
    throw std::logic_error("ExactExecutor::execute: bad paradigm");
  }();
  res.report.wall_ms = wall.elapsed_ms();
  return res;
}

AggregateState ExactExecutor::aggregate_rows(
    const Table& part, const std::vector<std::uint64_t>& rows,
    const AnalyticalQuery& q) const {
  AggregateState agg;
  const TargetColumns tc(part, q);
  for (const auto r : rows) {
    const auto i = static_cast<std::size_t>(r);
    agg.add(tc.t_of(i), tc.u_of(i));
  }
  return agg;
}

AggregateState scan_aggregate(const Table& part, const AnalyticalQuery& q) {
  if (q.selection == SelectionType::kNearestNeighbors)
    throw std::invalid_argument("scan_aggregate: kNN has no row predicate");
  const TargetColumns tc(part, q);
  AggregateState agg;
  if (tc.t.empty()) {  // add(0, 0) leaves every sum at +0.0: count only
    agg.count = q.selection == SelectionType::kRange
                    ? count_range(part, q.subspace_cols, q.range)
                    : count_ball(part, q.subspace_cols, q.ball);
    return agg;
  }
  const auto fold = [&](std::span<const std::uint32_t> ids) {
    AggregateState a = agg;  // a local: the sums stay in registers
    if (tc.u.empty()) {
      for (const std::uint32_t r : ids) a.add(tc.t[r], 0.0);
    } else {
      for (const std::uint32_t r : ids) a.add(tc.t[r], tc.u[r]);
    }
    agg = a;
  };
  if (q.selection == SelectionType::kRange)
    visit_range(part, q.subspace_cols, q.range, fold);
  else
    visit_ball(part, q.subspace_cols, q.ball, fold);
  return agg;
}

ExactResult ExactExecutor::execute_mapreduce(const AnalyticalQuery& q,
                                             QueryDeadline* deadline) {
  const auto finish = [&q](const auto& mr) {
    AggregateState total;
    for (const auto& [key, agg] : mr.results) {
      (void)key;
      total.merge(agg);
    }
    ExactResult out;
    out.answer = total.finalize(q.analytic);
    out.state = total;
    out.qualifying_tuples = total.count;
    out.report = mr.report;
    return out;
  };
  if (q.selection == SelectionType::kNearestNeighbors) {
    // Map: the partition's k nearest rows from one filtered scan,
    // emitted ascending by (distance, row); reduce: the global k nearest.
    MapReduceJob<int, KnnCand, AggregateState> job;
    job.kv_bytes = sizeof(KnnCand);
    job.result_bytes = AggregateState::kWireBytes;
    const std::size_t k = q.knn_k;
    job.map = [&q, k](NodeId, const Table& part, Emitter<int, KnnCand>& out_) {
      std::vector<NearRow> nearest;
      nearest_rows(part, q.subspace_cols, q.knn_point, k, nearest);
      const TargetColumns tc(part, q);
      for (const NearRow& n : nearest)
        out_.emit(0, KnnCand{std::sqrt(n.d2), tc.t_of(n.row), tc.u_of(n.row)});
    };
    job.reduce = [k](const int&, std::vector<KnnCand>& cands) {
      // Candidates arrive in (node, row-rank) order; a stable sort by
      // distance keeps that order among ties (NaN distances last).
      std::stable_sort(cands.begin(), cands.end(),
                       [](const KnnCand& a, const KnnCand& b) {
                         return distance_rank(a.dist) < distance_rank(b.dist);
                       });
      const std::size_t take = std::min(k, cands.size());
      AggregateState agg;
      for (std::size_t i = 0; i < take; ++i) agg.add(cands[i].t, cands[i].u);
      return agg;
    };
    auto mr = run_map_reduce(cluster_, table_, job, coordinator_, deadline,
                             &mr_scratch_->knn);
    return finish(mr);
  }

  // Range / radius selections: one fused scan-and-fold per partition.
  MapReduceJob<int, AggregateState, AggregateState> job;
  job.kv_bytes = AggregateState::kWireBytes;
  job.result_bytes = AggregateState::kWireBytes;
  job.map = [&q](NodeId, const Table& part,
                 Emitter<int, AggregateState>& out_) {
    out_.emit(0, scan_aggregate(part, q));
  };
  job.reduce = [](const int&, std::vector<AggregateState>& states) {
    AggregateState total;
    for (const auto& s : states) total.merge(s);
    return total;
  };
  auto mr = run_map_reduce(cluster_, table_, job, coordinator_, deadline,
                           &mr_scratch_->agg);
  return finish(mr);
}

ExactResult ExactExecutor::execute_indexed(const AnalyticalQuery& q,
                                           ExecParadigm access,
                                           QueryDeadline* deadline) {
  ExactResult out;
  const bool use_grid = access == ExecParadigm::kCoordinatorGrid;
  const bool use_learned = access == ExecParadigm::kCoordinatorLearned;
  NodeIndexes* kd =
      (use_grid || use_learned) ? nullptr : &indexes_for(q.subspace_cols);
  const NodeGrids* grid = use_grid ? &grids_for(q.subspace_cols) : nullptr;
  const NodeLearnedGrids* learned =
      use_learned ? &learned_for(q.subspace_cols) : nullptr;
  // Uniform access wrappers over the three access structures (RT3.1).
  const auto node_knn = [&](std::size_t n, std::span<const double> point,
                            std::size_t k, std::uint64_t& examined) {
    if (use_grid || use_learned) {
      GridQueryCost cost;
      auto nn = use_learned ? learned->per_node[n].knn(point, k, &cost)
                            : grid->per_node[n].knn(point, k, &cost);
      examined = cost.points_examined;
      return nn;
    }
    KdQueryCost cost;
    auto nn = kd->per_node[n].knn(point, k, &cost);
    examined = cost.points_examined;
    return nn;
  };
  // Range / radius probe of shard `n`, folded into its aggregate. The k-d
  // path folds during the tree walk over slot-ordered target copies (built
  // here, before any RPC, on first use); the grids select row ids, then
  // gather.
  const bool kd_fold = kd != nullptr &&
                       q.selection != SelectionType::kNearestNeighbors;
  const std::vector<std::vector<double>>* kd_t =
      kd_fold && needs_target(q.analytic) ? &slot_targets(*kd, q.target_col)
                                          : nullptr;
  const std::vector<std::vector<double>>* kd_u =
      kd_fold && needs_second_target(q.analytic)
          ? &slot_targets(*kd, q.target_col2)
          : nullptr;
  const auto node_aggregate = [&](std::size_t n, const Table& part,
                                  std::uint64_t& examined) {
    if (use_grid || use_learned) {
      GridQueryCost cost;
      std::vector<std::uint64_t> rows;
      if (use_learned) {
        rows = q.selection == SelectionType::kRange
                   ? learned->per_node[n].range_query(q.range, &cost)
                   : learned->per_node[n].radius_query(q.ball, &cost);
      } else {
        rows = q.selection == SelectionType::kRange
                   ? grid->per_node[n].range_query(q.range, &cost)
                   : grid->per_node[n].radius_query(q.ball, &cost);
      }
      examined = cost.points_examined;
      return aggregate_rows(part, rows, q);
    }
    SlotFold fold;
    if (kd_t != nullptr) fold.t = (*kd_t)[n].data();
    if (kd_u != nullptr) fold.u = (*kd_u)[n].data();
    KdQueryCost cost;
    if (q.selection == SelectionType::kRange)
      kd->per_node[n].visit_range(q.range, fold, &cost);
    else
      kd->per_node[n].visit_radius(q.ball, fold, &cost);
    examined = cost.points_examined;
    return fold.agg;
  };
  CohortSession session(cluster_, coordinator_);
  session.set_deadline(deadline);
  // Request = the query geometry: centre + extents, ~ (2d + 2) doubles.
  const std::size_t req_bytes = (2 * q.subspace_cols.size() + 2) * 8;

  // Shard `n` is answered by its serving node (primary, or a live replica
  // holder under failures). A node that flaps *mid-RPC* raises
  // NodeDownError (a tripped circuit breaker raises it too); the shard is
  // then re-resolved and re-routed to the next available holder. Replica
  // exhaustion (ShardUnavailable) propagates to the caller, where the
  // serving layer degrades to a model-backed answer.
  const auto rpc_with_reroute = [&](std::size_t shard, auto&& do_rpc) {
    for (;;) {
      const NodeId serving = cluster_.serving_node(table_, shard);
      try {
        return do_rpc(serving);
      } catch (const NodeDownError& e) {
        session.note_reroute();
        if (obs::Tracer* tr = cluster_.tracer())
          tr->event("reroute", "rpc", static_cast<std::int64_t>(e.node));
      }
    }
  };
  // Backup holder for hedged reads: the next available replica holder of
  // `shard` other than the serving node (kNoBackup when there is none).
  const auto backup_for = [&](std::size_t shard, NodeId serving) -> NodeId {
    const NodeId backup = cluster_.backup_node(table_, shard, serving);
    return backup == ShardPlacementAuthority::kNoHolder
               ? CohortSession::kNoBackup
               : backup;
  };

  if (q.selection == SelectionType::kNearestNeighbors) {
    // Each cohort node returns its local top-k (from its k-d tree); the
    // coordinator merges to the global k.
    std::vector<KnnCand> merged;
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
      const Table& part = cluster_.partition(table_, static_cast<NodeId>(n));
      if (part.num_rows() == 0) continue;  // empty partitions never probed
      const std::size_t resp_bytes = sizeof(KnnCand) * q.knn_k;
      auto local = rpc_with_reroute(n, [&](NodeId serving) {
        return session.rpc_to(
            serving, backup_for(n, serving), req_bytes, resp_bytes,
            [&](NodeId executing) {
              std::uint64_t examined = 0;
              auto nn = node_knn(n, q.knn_point, q.knn_k, examined);
              cluster_.account_probe(executing, 1, examined,
                                     examined * part.row_bytes());
              std::vector<KnnCand> cands;
              cands.reserve(nn.size());
              const TargetColumns tc(part, q);
              for (const auto& [row, dist] : nn) {
                const auto r = static_cast<std::size_t>(row);
                cands.push_back(KnnCand{dist, tc.t_of(r), tc.u_of(r)});
              }
              return cands;
            });
      });
      merged.insert(merged.end(), local.begin(), local.end());
    }
    const std::size_t take = std::min<std::size_t>(q.knn_k, merged.size());
    AggregateState total = session.local([&] {
      std::partial_sort(merged.begin(),
                        merged.begin() + static_cast<std::ptrdiff_t>(take),
                        merged.end(), [](const KnnCand& a, const KnnCand& b) {
                          return a.dist < b.dist;
                        });
      AggregateState agg;
      for (std::size_t i = 0; i < take; ++i)
        agg.add(merged[i].t, merged[i].u);
      return agg;
    });
    out.answer = total.finalize(q.analytic);
    out.state = total;
    out.qualifying_tuples = total.count;
    out.report = session.take_report();
    return out;
  }

  // Range / radius: prune nodes by partition ranges when possible, then
  // surgical k-d probes; only aggregate states return.
  std::vector<NodeId> nodes;
  const auto& pspec = cluster_.partition_spec(table_);
  // Node pruning is only sound when the table is range-partitioned on one
  // of the query's subspace columns.
  std::size_t part_dim = q.subspace_cols.size();
  if (pspec.scheme == Partitioning::kRangeColumn) {
    for (std::size_t i = 0; i < q.subspace_cols.size(); ++i)
      if (q.subspace_cols[i] == pspec.partition_column) part_dim = i;
  }
  if (part_dim < q.subspace_cols.size()) {
    if (q.selection == SelectionType::kRange) {
      nodes = cluster_.nodes_for_range(table_, q.range.lo[part_dim],
                                       q.range.hi[part_dim]);
    } else {
      const Rect bb = q.ball.bounding_box();
      nodes = cluster_.nodes_for_range(table_, bb.lo[part_dim],
                                       bb.hi[part_dim]);
    }
  } else {
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n)
      nodes.push_back(static_cast<NodeId>(n));
  }

  AggregateState total;
  for (const NodeId n : nodes) {
    const Table& part = cluster_.partition(table_, n);
    if (part.num_rows() == 0) continue;  // empty partitions never probed
    AggregateState node_agg = rpc_with_reroute(n, [&](NodeId serving) {
      return session.rpc_to(
          serving, backup_for(n, serving), req_bytes,
          AggregateState::kWireBytes, [&](NodeId executing) {
            std::uint64_t examined = 0;
            AggregateState agg = node_aggregate(n, part, examined);
            cluster_.account_probe(executing, 1, examined,
                                   examined * part.row_bytes());
            return agg;
          });
    });
    total.merge(node_agg);
  }
  out.answer = total.finalize(q.analytic);
  out.state = total;
  out.qualifying_tuples = total.count;
  out.report = session.take_report();
  return out;
}

}  // namespace sea
