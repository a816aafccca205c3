#include "sea/exact.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/parallel.h"
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

/// The grid over `part`'s `cols`: its bounds padded on the upper edge, and
/// ~rows^(1/d) / 2 cells per axis, capped to keep memory sane.
GridIndex build_grid(const Table& part, const std::vector<std::size_t>& cols,
                     CellPlacement placement) {
  // Column-at-a-time fill from contiguous spans (no per-row gather).
  std::vector<Point> pts(part.num_rows(), Point(cols.size()));
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const auto col = part.column(cols[c]);
    for (std::size_t r = 0; r < part.num_rows(); ++r) pts[r][c] = col[r];
  }
  Rect dom = part.num_rows() ? table_bounds(part, cols) : Rect{};
  if (part.num_rows() == 0) {
    dom.lo.assign(cols.size(), 0.0);
    dom.hi.assign(cols.size(), 1.0);
  }
  // Pad the upper edge so maxima land inside the last cell.
  for (std::size_t i = 0; i < cols.size(); ++i)
    dom.hi[i] = std::nextafter(dom.hi[i] + 1e-12,
                               std::numeric_limits<double>::max());
  const double per_dim = std::pow(
      std::max<double>(1.0, static_cast<double>(part.num_rows())),
      1.0 / static_cast<double>(cols.size()));
  const std::size_t cells = std::clamp<std::size_t>(
      static_cast<std::size_t>(per_dim / 2.0), 2, 32);
  return GridIndex(std::move(pts), std::move(dom), cells, placement);
}

/// One shard's probe result, computed before the serial RPC replay.
struct ProbeCell {
  AggregateState agg;           // range / radius
  std::vector<KnnCand> cands;   // kNN: local top-k with targets
  std::uint64_t examined = 0;
  double ms = 0.0;              // measured probe wall
};

/// A shard's local top k, (row, distance) ascending, as merge candidates
/// carrying their targets.
std::vector<KnnCand> knn_cands(
    const std::vector<std::pair<std::uint64_t, double>>& nn, const Table& part,
    const AnalyticalQuery& q) {
  std::vector<KnnCand> cands;
  cands.reserve(nn.size());
  const TargetColumns tc(part, q);
  for (const auto& [row, dist] : nn) {
    const auto r = static_cast<std::size_t>(row);
    cands.push_back(KnnCand{dist, tc.t_of(r), tc.u_of(r)});
  }
  return cands;
}

/// Probe of one shard's k-d tree. Range / radius fold during the tree walk
/// over the slot-ordered target copies `t` / `u` (null = no such target).
void probe_shard(const KdTree& tree, const double* t, const double* u,
                 const Table& part, const AnalyticalQuery& q,
                 ProbeCell& cell) {
  KdQueryCost cost;
  if (q.selection == SelectionType::kNearestNeighbors) {
    cell.cands = knn_cands(tree.knn(q.knn_point, q.knn_k, &cost), part, q);
  } else {
    SlotFold fold{t, u, {}};
    if (q.selection == SelectionType::kRange)
      tree.visit_range(q.range, fold, &cost);
    else
      tree.visit_radius(q.ball, fold, &cost);
    cell.agg = fold.agg;
  }
  cell.examined = cost.points_examined;
}

/// Probe of one shard's grid. Range / radius add each qualifying row's
/// targets in the grid's visit order.
void probe_shard(const GridIndex& grid, const Table& part,
                 const AnalyticalQuery& q, ProbeCell& cell) {
  GridQueryCost cost;
  if (q.selection == SelectionType::kNearestNeighbors) {
    cell.cands = knn_cands(grid.knn(q.knn_point, q.knn_k, &cost), part, q);
  } else {
    const TargetColumns tc(part, q);
    AggregateState agg;
    const auto fold = [&](std::uint64_t row) {
      const auto r = static_cast<std::size_t>(row);
      agg.add(tc.t_of(r), tc.u_of(r));
    };
    if (q.selection == SelectionType::kRange)
      grid.visit_range(q.range, fold, &cost);
    else
      grid.visit_radius(q.ball, fold, &cost);
    cell.agg = agg;
  }
  cell.examined = cost.points_examined;
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

ExactExecutor::ShardIndexes& ExactExecutor::indexes_for(
    ExecParadigm paradigm, const std::vector<std::size_t>& cols) {
  for (ShardIndexes& idx : index_cache_)
    if (idx.paradigm == paradigm && idx.cols == cols) return idx;
  Timer t;
  ShardIndexes idx{paradigm, cols, {}, {}, {}};
  if (paradigm == ExecParadigm::kCoordinatorIndexed) {
    idx.trees = build_kdtrees(cluster_.partitions(table_), cols);
  } else {
    const CellPlacement placement = paradigm == ExecParadigm::kCoordinatorLearned
                                        ? CellPlacement::kLearned
                                        : CellPlacement::kUniform;
    idx.grids.reserve(cluster_.num_nodes());
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n)
      idx.grids.push_back(build_grid(
          cluster_.partition(table_, static_cast<NodeId>(n)), cols, placement));
  }
  index_build_ms_ += t.elapsed_ms();
  return index_cache_.emplace_back(std::move(idx));
}

const std::vector<std::vector<double>>& ExactExecutor::slot_targets(
    ShardIndexes& idx, std::size_t col) {
  auto it = idx.slot_targets.find(col);
  if (it != idx.slot_targets.end()) return it->second;
  // A column copy, not a build: the time stays on the query that needs
  // it, so index_build_ms() keeps counting tree builds only. Like the
  // builds, the copies are allocated here and filled one node per task.
  std::vector<std::vector<double>> per_node(idx.trees.size());
  std::vector<std::span<const double>> src(per_node.size());
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    per_node[n].resize(idx.trees[n].size());
    src[n] = cluster_.partition(table_, static_cast<NodeId>(n)).column(col);
  }
  ParallelFor(per_node.size(), [&](std::size_t n) {
    const auto ids = idx.trees[n].slot_ids();
    for (std::size_t s = 0; s < ids.size(); ++s)
      per_node[n][s] = src[n][static_cast<std::size_t>(ids[s])];
  });
  return idx.slot_targets.emplace(col, std::move(per_node)).first->second;
}

const Rect& ExactExecutor::domain(const std::vector<std::size_t>& cols) {
  auto it = domain_cache_.find(cols);
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
  return domain_cache_.emplace(cols, std::move(bounds)).first->second;
}

void ExactExecutor::invalidate_caches() {
  index_cache_.clear();
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
      // Candidates arrive in node order, each node's run ascending by
      // distance (NaN last): merging the runs, ties to the lower node,
      // gives the global k nearest in stable-sort order.
      AggregateState agg;
      visit_merged_runs(
          std::span<const KnnCand>(cands), k,
          [](const KnnCand& c) { return distance_rank(c.dist); },
          [&agg](const KnnCand& c) { agg.add(c.t, c.u); });
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
  ShardIndexes& idx = indexes_for(access, q.subspace_cols);
  const bool knn = q.selection == SelectionType::kNearestNeighbors;
  // The k-d range / radius fold reads slot-ordered target copies, built
  // here, before any RPC, on first use.
  const bool kd = access == ExecParadigm::kCoordinatorIndexed;
  const std::vector<std::vector<double>>* kd_t =
      kd && !knn && needs_target(q.analytic) ? &slot_targets(idx, q.target_col)
                                             : nullptr;
  const std::vector<std::vector<double>>* kd_u =
      kd && !knn && needs_second_target(q.analytic)
          ? &slot_targets(idx, q.target_col2)
          : nullptr;
  // Range / radius: prune nodes by partition ranges when possible. kNN
  // asks every node for its local top-k. Empty partitions are never probed.
  std::vector<NodeId> shards;
  const auto& pspec = cluster_.partition_spec(table_);
  // Node pruning is only sound when the table is range-partitioned on one
  // of the query's subspace columns.
  std::size_t part_dim = q.subspace_cols.size();
  if (!knn && pspec.scheme == Partitioning::kRangeColumn) {
    for (std::size_t i = 0; i < q.subspace_cols.size(); ++i)
      if (q.subspace_cols[i] == pspec.partition_column) part_dim = i;
  }
  if (part_dim < q.subspace_cols.size()) {
    if (q.selection == SelectionType::kRange) {
      shards = cluster_.nodes_for_range(table_, q.range.lo[part_dim],
                                        q.range.hi[part_dim]);
    } else {
      const Rect bb = q.ball.bounding_box();
      shards = cluster_.nodes_for_range(table_, bb.lo[part_dim],
                                        bb.hi[part_dim]);
    }
  } else {
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n)
      shards.push_back(static_cast<NodeId>(n));
  }
  std::erase_if(shards, [&](NodeId n) {
    return cluster_.partition(table_, n).num_rows() == 0;
  });

  // Every probe is a pure function of (query, shard) over immutable
  // indexes and slot-ordered targets, so all of them run as one parallel
  // region, one cell per shard, before the serial RPC replay below.
  std::vector<ProbeCell> cells(shards.size());
  ParallelFor(shards.size(), [&](std::size_t i) {
    Timer t;
    const NodeId n = shards[i];
    const Table& part = cluster_.partition(table_, n);
    if (kd)
      probe_shard(idx.trees[n], kd_t != nullptr ? (*kd_t)[n].data() : nullptr,
                  kd_u != nullptr ? (*kd_u)[n].data() : nullptr, part, q,
                  cells[i]);
    else
      probe_shard(idx.grids[n], part, q, cells[i]);
    cells[i].ms = t.elapsed_ms();
  });

  CohortSession session(cluster_, coordinator_);
  session.set_deadline(deadline);
  // Request = the query geometry: centre + extents, ~ (2d + 2) doubles.
  const std::size_t req_bytes = (2 * q.subspace_cols.size() + 2) * 8;
  const std::size_t resp_bytes =
      knn ? sizeof(KnnCand) * q.knn_k : AggregateState::kWireBytes;

  // Replay, serially and in shard order: shard `n` is answered by its
  // serving node (primary, or a live replica holder under failures). A
  // node that flaps *mid-RPC* raises NodeDownError (a tripped circuit
  // breaker raises it too); the shard is then re-resolved and re-routed to
  // the next available holder. Replicas hold the same partition, so every
  // attempt, reroute and hedge returns the same cell and is charged its
  // measured probe wall as server compute. Replica exhaustion
  // (ShardUnavailable) propagates to the caller, where the serving layer
  // degrades to a model-backed answer.
  std::vector<KnnCand> merged;
  AggregateState total;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const NodeId n = shards[i];
    const Table& part = cluster_.partition(table_, n);
    const ProbeCell& cell = cells[i];
    const auto probe = [&](NodeId executing) {
      cluster_.account_probe(executing, 1, cell.examined,
                             cell.examined * part.row_bytes());
      session.add_server_compute_ms(cell.ms);
      return &cell;
    };
    for (;;) {
      const NodeId serving = cluster_.serving_node(table_, n);
      // Backup holder for hedged reads: the next available replica holder
      // other than the serving node.
      const NodeId backup = cluster_.backup_node(table_, n, serving);
      try {
        session.rpc_to(serving,
                       backup == ShardPlacementAuthority::kNoHolder
                           ? CohortSession::kNoBackup
                           : backup,
                       req_bytes, resp_bytes, probe);
        break;
      } catch (const NodeDownError& e) {
        session.note_reroute();
        if (obs::Tracer* tr = cluster_.tracer())
          tr->event("reroute", "rpc", static_cast<std::int64_t>(e.node));
      }
    }
    if (knn)
      merged.insert(merged.end(), cell.cands.begin(), cell.cands.end());
    else
      total.merge(cell.agg);
  }
  if (knn) {
    // The coordinator merges the shards' local top-k runs (each ascending,
    // NaN last) to the global k, ties to the lower shard: the MapReduce
    // reduce's merge, so every paradigm keeps the same rows.
    total = session.local([&] {
      AggregateState agg;
      visit_merged_runs(
          std::span<const KnnCand>(merged), q.knn_k,
          [](const KnnCand& c) { return distance_rank(c.dist); },
          [&agg](const KnnCand& c) { agg.add(c.t, c.u); });
      return agg;
    });
  }
  out.answer = total.finalize(q.analytic);
  out.state = total;
  out.qualifying_tuples = total.count;
  out.report = session.take_report();
  return out;
}

}  // namespace sea
