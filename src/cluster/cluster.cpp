#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace sea {

Cluster::Cluster(std::size_t num_nodes, Network network, BdasCostModel cost)
    : num_nodes_(num_nodes), network_(std::move(network)), cost_(cost),
      node_down_(num_nodes, false), placement_lost_(num_nodes, false),
      breakers_(num_nodes) {
  if (num_nodes_ == 0)
    throw std::invalid_argument("Cluster: need at least one node");
  if (network_.num_nodes() < num_nodes_)
    throw std::invalid_argument("Cluster: network smaller than cluster");
}

void Cluster::set_node_down(NodeId node, bool down) {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::set_node_down");
  node_down_[node] = down;
}

bool Cluster::node_is_down(NodeId node) const {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::node_is_down");
  return node_down_[node];
}

std::string Cluster::down_nodes_string() const {
  std::string out;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    if (!node_down_[n]) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(n);
  }
  return out.empty() ? "none" : out;
}

NodeId Cluster::serving_node(const std::string& name,
                             std::size_t shard) const {
  const auto& st = stored(name);
  if (shard >= st.partitions.size())
    throw std::out_of_range("Cluster::serving_node: shard " +
                            std::to_string(shard) + " out of range for table " +
                            name + " (" +
                            std::to_string(st.partitions.size()) + " shards)");
  const std::size_t replicas = std::max<std::size_t>(1, st.spec.replicas);
  // Lease-first routing: a valid lease names the one node allowed to serve
  // this shard (epoch fencing, src/membership). The holder must still be
  // usable — a leased-but-down node falls through to static placement
  // rather than serving nothing (the lease will expire and move).
  if (lease_router_ != nullptr) {
    const NodeId holder = lease_router_->lease_holder(name, shard);
    if (holder != ShardLeaseRouter::kNoLeaseHolder && holder < num_nodes_ &&
        available(holder))
      return holder;
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    const NodeId node = holder_of(name, shard, r);
    if (node == ShardPlacementAuthority::kNoHolder || node >= num_nodes_)
      continue;
    if (available(node)) return node;
  }
  throw ShardUnavailable(
      "Cluster::serving_node: no available replica of shard " +
      std::to_string(shard) + " of table " + name + " (replicas=" +
      std::to_string(replicas) + ", down nodes: " + down_nodes_string() + ")");
}

NodeId Cluster::backup_node(const std::string& name, std::size_t shard,
                            NodeId serving) const {
  const std::size_t replicas =
      std::max<std::size_t>(1, stored(name).spec.replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    const NodeId node = holder_of(name, shard, r);
    if (node == ShardPlacementAuthority::kNoHolder || node >= num_nodes_ ||
        node == serving)
      continue;
    if (available(node)) return node;
  }
  return ShardPlacementAuthority::kNoHolder;
}

void Cluster::crash_node(NodeId node) {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::crash_node");
  node_down_[node] = true;
  placement_lost_[node] = true;
  ++recovery_stats_.crashes;
  if (tracer_) tracer_->event("crash", "", static_cast<std::int64_t>(node));
}

bool Cluster::placement_lost(NodeId node) const {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::placement_lost");
  return placement_lost_[node];
}

NodeId Cluster::holder_of(const std::string& name, std::size_t shard,
                          std::size_t r) const {
  if (placement_authority_ != nullptr)
    return placement_authority_->shard_holder(name, shard, r);
  return static_cast<NodeId>((shard + r) % num_nodes_);
}

std::uint64_t Cluster::rebuild_placement(NodeId node) {
  struct Copy {
    NodeId donor;
    std::uint64_t bytes;
  };
  // Stable table order so the send/trace sequence is deterministic
  // (tables_ is an unordered_map).
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& kv : tables_) names.push_back(kv.first);
  std::sort(names.begin(), names.end());

  // All-or-nothing: first verify every shard copy the node holds has a
  // live donor, then charge the transfers. A partial rebuild would let
  // placement route reads to shards the node does not hold yet.
  std::vector<Copy> copies;
  for (const auto& name : names) {
    const StoredTable& st = tables_.at(name);
    const std::size_t replicas = std::max<std::size_t>(1, st.spec.replicas);
    for (std::size_t shard = 0; shard < st.partitions.size(); ++shard) {
      bool holds = false;
      for (std::size_t r = 0; r < replicas && !holds; ++r)
        holds = holder_of(name, shard, r) == node;
      if (!holds) continue;
      const std::uint64_t bytes = st.partitions[shard].byte_size();
      if (bytes == 0) continue;  // empty shard: nothing to re-replicate
      NodeId donor = node;
      bool found = false;
      for (std::size_t r = 0; r < replicas && !found; ++r) {
        const NodeId holder = holder_of(name, shard, r);
        if (holder == ShardPlacementAuthority::kNoHolder ||
            holder >= num_nodes_ || holder == node || node_down_[holder] ||
            placement_lost_[holder])
          continue;
        donor = holder;
        found = true;
      }
      if (!found) return 0;  // no live donor: stay lost, retry next tick
      copies.push_back({donor, bytes});
    }
  }
  std::uint64_t total = 0;
  for (const auto& c : copies) {
    const double ms = network_.send(c.donor, node, c.bytes);
    recovery_stats_.modelled_restore_ms += ms;
    ++recovery_stats_.shards_restored;
    recovery_stats_.restore_bytes += c.bytes;
    total += c.bytes;
    if (tracer_)
      tracer_->span_event("shard_rebuild", ms, "", c.bytes,
                          static_cast<std::int64_t>(node));
    if (metrics_) {
      metrics_->counter("recovery.shard_rebuilds").inc();
      metrics_->counter("recovery.shard_rebuild_bytes").inc(c.bytes);
    }
  }
  placement_lost_[node] = false;
  return total;
}

std::uint64_t Cluster::restart_node(NodeId node) {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::restart_node");
  if (!node_down_[node] && !placement_lost_[node]) return 0;  // healthy
  node_down_[node] = false;
  ++recovery_stats_.restarts;
  if (tracer_) tracer_->event("restart", "", static_cast<std::int64_t>(node));
  if (!placement_lost_[node]) return 0;
  return rebuild_placement(node);
}

std::uint64_t Cluster::restore_lost_placements() {
  std::uint64_t total = 0;
  for (std::size_t n = 0; n < num_nodes_; ++n)
    if (placement_lost_[n] && !node_down_[n])
      total += rebuild_placement(static_cast<NodeId>(n));
  return total;
}

void Cluster::load_table(const std::string& name, const Table& table,
                         PartitionSpec spec) {
  StoredTable st;
  st.spec = spec;
  st.partitions.assign(num_nodes_, Table{table.schema()});
  st.versions.assign(num_nodes_, 1);

  if (spec.scheme != Partitioning::kRoundRobin &&
      spec.partition_column >= table.num_columns())
    throw std::invalid_argument("Cluster::load_table: bad partition column");

  if (spec.scheme == Partitioning::kRangeColumn) {
    // Equi-count boundaries from the sorted partition column.
    std::vector<double> vals(table.column(spec.partition_column).begin(),
                             table.column(spec.partition_column).end());
    std::sort(vals.begin(), vals.end());
    st.range_bounds.resize(num_nodes_ + 1);
    st.range_bounds.front() = vals.empty() ? 0.0 : vals.front();
    st.range_bounds.back() =
        vals.empty() ? 0.0 : std::nextafter(vals.back(),
                                            std::numeric_limits<double>::max());
    for (std::size_t i = 1; i < num_nodes_; ++i) {
      const std::size_t pos = (i * vals.size()) / num_nodes_;
      st.range_bounds[i] = vals.empty() ? 0.0 : vals[pos];
    }
  }

  std::vector<double> row(table.num_columns());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c)
      row[c] = table.at(r, c);
    std::size_t node = 0;
    switch (spec.scheme) {
      case Partitioning::kRoundRobin:
        node = r % num_nodes_;
        break;
      case Partitioning::kHashColumn: {
        const double v = row[spec.partition_column];
        node = std::hash<double>{}(v) % num_nodes_;
        break;
      }
      case Partitioning::kRangeColumn: {
        const double v = row[spec.partition_column];
        const auto it = std::upper_bound(st.range_bounds.begin() + 1,
                                         st.range_bounds.end(), v);
        node = std::min<std::size_t>(
            static_cast<std::size_t>(it - st.range_bounds.begin() - 1),
            num_nodes_ - 1);
        break;
      }
    }
    st.partitions[node].append_row(row);
  }
  tables_[name] = std::move(st);
}

void Cluster::load_table_at(const std::string& name, const Table& table,
                            NodeId node) {
  if (node >= num_nodes_)
    throw std::out_of_range("Cluster::load_table_at: bad node");
  StoredTable st;
  st.spec = PartitionSpec{};
  st.partitions.assign(num_nodes_, Table{table.schema()});
  st.versions.assign(num_nodes_, 1);
  std::vector<double> row(table.num_columns());
  st.partitions[node].reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c)
      row[c] = table.at(r, c);
    st.partitions[node].append_row(row);
  }
  tables_[name] = std::move(st);
}

bool Cluster::has_table(const std::string& name) const noexcept {
  return tables_.count(name) > 0;
}

void Cluster::drop_table(const std::string& name) {
  if (tables_.erase(name) == 0)
    throw std::out_of_range("Cluster::drop_table: no table " + name);
}

const Cluster::StoredTable& Cluster::stored(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end())
    throw std::out_of_range("Cluster: no table named " + name);
  return it->second;
}

Cluster::StoredTable& Cluster::stored(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end())
    throw std::out_of_range("Cluster: no table named " + name);
  return it->second;
}

const Table& Cluster::partition(const std::string& name, NodeId node) const {
  const auto& st = stored(name);
  if (node >= st.partitions.size())
    throw std::out_of_range(
        "Cluster::partition: node " + std::to_string(node) +
        " out of range for table " + name + " (" +
        std::to_string(st.partitions.size()) + " nodes, down nodes: " +
        down_nodes_string() + ")");
  return st.partitions[node];
}

Table& Cluster::mutable_partition(const std::string& name, NodeId node) {
  auto& st = stored(name);
  if (node >= st.partitions.size())
    throw std::out_of_range(
        "Cluster::mutable_partition: node " + std::to_string(node) +
        " out of range for table " + name + " (" +
        std::to_string(st.partitions.size()) + " nodes)");
  ++st.versions[node];
  return st.partitions[node];
}

std::size_t Cluster::table_rows(const std::string& name) const {
  const auto& st = stored(name);
  std::size_t n = 0;
  for (const auto& p : st.partitions) n += p.num_rows();
  return n;
}

std::uint64_t Cluster::partition_version(const std::string& name,
                                         NodeId node) const {
  const auto& st = stored(name);
  if (node >= st.versions.size())
    throw std::out_of_range("Cluster::partition_version: bad node");
  return st.versions[node];
}

const PartitionSpec& Cluster::partition_spec(const std::string& name) const {
  return stored(name).spec;
}

std::vector<NodeId> Cluster::nodes_for_range(const std::string& name,
                                             double lo, double hi) const {
  const auto& st = stored(name);
  std::vector<NodeId> out;
  if (st.spec.scheme == Partitioning::kRangeColumn &&
      st.range_bounds.size() == num_nodes_ + 1) {
    for (std::size_t n = 0; n < num_nodes_; ++n) {
      const double node_lo = st.range_bounds[n];
      const double node_hi = st.range_bounds[n + 1];
      if (hi >= node_lo && lo < node_hi)
        out.push_back(static_cast<NodeId>(n));
    }
  } else {
    out.reserve(num_nodes_);
    for (std::size_t n = 0; n < num_nodes_; ++n)
      out.push_back(static_cast<NodeId>(n));
  }
  return out;
}

void Cluster::account_task(NodeId node) {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::account_task");
  if (node_down_[node])
    throw NodeDownError(node, "Cluster::account_task: node " +
                                  std::to_string(node) + " is down");
  ++stats_.tasks;
  ++stats_.node_touches;
  stats_.modelled_overhead_ms += cost_.task_overhead_ms();
}

void Cluster::account_scan(NodeId node, std::uint64_t rows,
                           std::uint64_t bytes) {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::account_scan");
  stats_.rows_scanned += rows;
  stats_.bytes_read += bytes;
}

void Cluster::account_probe(NodeId node, std::uint64_t probes,
                            std::uint64_t rows, std::uint64_t bytes) {
  if (node >= num_nodes_) throw std::out_of_range("Cluster::account_probe");
  if (node_down_[node])
    throw NodeDownError(node, "Cluster::account_probe: node " +
                                  std::to_string(node) + " is down");
  stats_.index_probes += probes;
  stats_.rows_scanned += rows;
  stats_.bytes_read += bytes;
  stats_.modelled_overhead_ms += cost_.coordinator_rpc_ms;
}

}  // namespace sea
