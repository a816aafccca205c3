#include "membership/sim.h"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace sea {
namespace {

/// Placement name the lease-less baseline walks replicas under (the sim
/// serves one abstract table; E18 leases it under the same name).
const std::string kSimTable = "sim";

}  // namespace

PartitionServingSim::PartitionServingSim(Cluster& cluster,
                                         FaultInjector& injector,
                                         GossipMembership& membership,
                                         LeaseDirectory* leases,
                                         PartitionSimConfig config)
    : cluster_(cluster),
      injector_(injector),
      membership_(membership),
      leases_(leases),
      config_(config),
      num_shards_(config.num_shards == 0 ? cluster.num_nodes()
                                         : config.num_shards) {
  if (leases_ && leases_->num_shards() != num_shards_)
    throw std::invalid_argument(
        "PartitionServingSim: lease directory covers " +
        std::to_string(leases_->num_shards()) + " shards, sim has " +
        std::to_string(num_shards_));
  const std::size_t n = cluster_.num_nodes();
  routing_.assign(n * num_shards_, ShardLeaseRouter::kNoLeaseHolder);
  cached_epoch_.assign(n * num_shards_, 0);
  cached_expires_.assign(n * num_shards_, 0);
  announced_epoch_.assign(num_shards_, 0);
}

bool PartitionServingSim::message(NodeId from, NodeId to, std::size_t bytes) {
  const SendOutcome sent = cluster_.network().try_send(from, to, bytes);
  return sent.delivered && !cluster_.node_is_down(to);
}

void PartitionServingSim::step() {
  injector_.tick(cluster_);
  const std::uint64_t now = injector_.now();
  membership_.advance_to(now);
  if (leases_) {
    leases_->advance_to(now);
    // Knowledge propagation, all over droppable messages. A holder learns
    // its own grants/renewals synchronously (it ran the quorum round);
    // everyone else learns the new routing only if the broadcast reaches
    // them — minority-side entries keep stale routes during a cut.
    const std::size_t n = cluster_.num_nodes();
    for (std::size_t shard = 0; shard < num_shards_; ++shard) {
      const ShardLease& l = leases_->lease(shard);
      if (l.epoch == 0) continue;
      const std::size_t holder_slot = l.holder * num_shards_ + shard;
      if (cached_epoch_[holder_slot] == l.epoch)
        cached_expires_[holder_slot] = l.expires_at;  // renewal extends TTL
      if (l.epoch <= announced_epoch_[shard]) continue;
      announced_epoch_[shard] = l.epoch;
      cached_epoch_[holder_slot] = l.epoch;
      cached_expires_[holder_slot] = l.expires_at;
      routing_[holder_slot] = l.holder;
      for (NodeId node = 0; node < n; ++node) {
        if (node == l.holder) continue;
        if (message(l.holder, node, config_.answer_bytes))
          routing_[node * num_shards_ + shard] = l.holder;
      }
    }
  }
  // Fan-in: every entry node submits a query for the same shard this
  // round, so both sides of an active cut contend for one authority.
  const auto shard = static_cast<std::uint32_t>(round_ % num_shards_);
  for (NodeId entry = 0; entry < cluster_.num_nodes(); ++entry)
    serve_one(entry, shard, now);
  ++round_;
}

void PartitionServingSim::run(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) step();
}

void PartitionServingSim::serve_one(NodeId entry, std::uint32_t shard,
                                    std::uint64_t tick) {
  ++stats_.queries;
  if (cluster_.node_is_down(entry)) {
    ++stats_.entry_down;
    return;
  }
  if (leases_)
    serve_with_lease(entry, shard, tick);
  else
    serve_without_lease(entry, shard, tick);
}

void PartitionServingSim::serve_with_lease(NodeId entry, std::uint32_t shard,
                                           std::uint64_t tick) {
  const NodeId holder = routed_holder(entry, shard);
  // No route yet, the request leg was lost/cut, or the holder host is
  // down: the entry answers from its local model, flagged degraded.
  if (holder == ShardLeaseRouter::kNoLeaseHolder ||
      (holder != entry && !message(entry, holder, config_.query_bytes)) ||
      cluster_.node_is_down(holder)) {
    ++stats_.degraded_serves;
    return;
  }
  // The holder checks its own cached lease against the shared clock — the
  // self-fencing rule. At most one node can pass this gate per shard at
  // any tick: caches are only written by the grant protocol, and a new
  // epoch is granted strictly after the old one's TTL expired.
  const std::size_t slot = holder * num_shards_ + shard;
  if (cached_epoch_[slot] == 0 || tick >= cached_expires_[slot]) {
    // Fenced ex-holder (or never-confirmed holder): model-backed
    // read-only answer in its place.
    ++stats_.fenced_serves;
    return;
  }
  serve_log_.push_back(OwnerServe{shard, holder, cached_epoch_[slot], tick});
  // The authoritative answer still has to get back to the entry.
  if (holder == entry || message(holder, entry, config_.answer_bytes))
    ++stats_.owner_serves;
  else
    ++stats_.degraded_serves;
}

void PartitionServingSim::serve_without_lease(NodeId entry,
                                              std::uint32_t shard,
                                              std::uint64_t tick) {
  // Failover by the entry's own membership view down the cluster's replica
  // walk: first holder the entry believes alive and can reach serves as
  // authority — with no fencing, which is exactly the defect being measured.
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    const NodeId cand = cluster_.holder_of(kSimTable, shard, r);
    if (cand >= cluster_.num_nodes()) continue;  // incl. kNoHolder
    if (!membership_.alive_in_view(entry, cand)) continue;
    if (cand != entry && !message(entry, cand, config_.query_bytes))
      continue;  // timeout: the entry fails over to the next replica
    if (cluster_.node_is_down(cand)) continue;
    serve_log_.push_back(OwnerServe{shard, cand, 0, tick});
    if (cand == entry || message(cand, entry, config_.answer_bytes))
      ++stats_.owner_serves;
    else
      ++stats_.degraded_serves;
    return;
  }
  ++stats_.degraded_serves;
}

std::uint64_t PartitionServingSim::split_brain_serves() const {
  // Leases on: key by (shard, epoch) — the invariant is that one epoch has
  // one holder, ever. Leases off (all epochs 0): key by (shard, tick) —
  // two nodes answering as authority for one shard in the same round is
  // dual authority in the flesh.
  std::map<std::pair<std::uint64_t, std::uint64_t>, NodeId> first;
  std::uint64_t violations = 0;
  for (const OwnerServe& s : serve_log_) {
    const std::uint64_t sub = leases_ ? s.epoch : s.tick;
    const std::pair<std::uint64_t, std::uint64_t> key{s.shard, sub};
    const auto [it, inserted] = first.emplace(key, s.node);
    if (!inserted && it->second != s.node) ++violations;
  }
  return violations;
}

}  // namespace sea
