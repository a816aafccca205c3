#include "membership/lease.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "fault/outage.h"

namespace sea {

LeaseDirectory::LeaseDirectory(Cluster& cluster, GossipMembership& membership,
                               std::string table, std::size_t num_shards,
                               LeaseConfig config)
    : cluster_(cluster),
      membership_(membership),
      table_(std::move(table)),
      config_(config),
      leases_(num_shards),
      last_renewed_(num_shards, 0),
      preferred_(num_shards, kNoLeaseHolder),
      active_(num_shards, true) {
  if (num_shards == 0)
    throw std::invalid_argument("LeaseDirectory: num_shards must be > 0");
  if (config_.renew_period_ticks == 0 ||
      config_.renew_period_ticks >= config_.lease_ttl_ticks)
    throw std::invalid_argument(
        "LeaseDirectory: renew_period_ticks must be in (0, lease_ttl_ticks) "
        "or a healthy holder would expire between renewals");
  const std::size_t q = config_.effective_quorum(cluster_.num_nodes());
  if (q == 0 || q > cluster_.num_nodes())
    throw std::invalid_argument(
        "LeaseDirectory: quorum of " + std::to_string(q) +
        " is unsatisfiable on " + std::to_string(cluster_.num_nodes()) +
        " nodes");
}

void LeaseDirectory::bind_obs(obs::Tracer* tracer,
                              obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  m_ = Metrics{};
  if (!metrics) return;
  m_.grants = &metrics->counter("lease.grants");
  m_.renewals = &metrics->counter("lease.renewals");
  m_.renewal_failures = &metrics->counter("lease.renewal_failures");
  m_.grant_failures = &metrics->counter("lease.grant_failures");
  m_.expiries = &metrics->counter("lease.expiries");
  m_.transfers = &metrics->counter("lease.transfers");
  m_.deferrals = &metrics->counter("lease.deferrals");
  m_.fenced_checks = &metrics->counter("lease.fenced_checks");
  m_.handoffs = &metrics->counter("lease.handoffs");
  m_.handoff_failures = &metrics->counter("lease.handoff_failures");
}

void LeaseDirectory::add_transfer_listener(LeaseTransferListener* listener) {
  if (listener) listeners_.push_back(listener);
}

void LeaseDirectory::remove_transfer_listener(
    LeaseTransferListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

bool LeaseDirectory::node_usable(NodeId node) const {
  // Cluster state first (down / placement-lost), then the external veto:
  // a scrub-quarantined node is alive and reachable but must not hold a
  // lease while its state is known-corrupt.
  return !cluster_.node_is_down(node) && !cluster_.placement_lost(node) &&
         (eligibility_ == nullptr || eligibility_->lease_eligible(node));
}

NodeId LeaseDirectory::lease_holder(const std::string& table,
                                    std::size_t shard) const {
  if (table != table_ || shard >= leases_.size()) return kNoLeaseHolder;
  if (!active_[shard]) return kNoLeaseHolder;
  const ShardLease& l = leases_[shard];
  return l.valid_at(now_) ? l.holder : kNoLeaseHolder;
}

void LeaseDirectory::check_serve(const std::string& table, std::size_t shard,
                                 NodeId node, std::uint64_t tick) const {
  if (table != table_) return;  // not under this directory's authority
  const ShardLease& l = leases_.at(shard);
  if (active_[shard] && l.valid_at(tick) && l.holder == node) return;
  ++stats_.fenced_checks;
  if (m_.fenced_checks) m_.fenced_checks->inc();
  if (tracer_)
    tracer_->event("lease", "fenced", static_cast<std::int64_t>(node));
  throw StaleEpoch(
      "LeaseDirectory::check_serve: node " + std::to_string(node) +
      " may not serve shard " + std::to_string(shard) + " of " + table_ +
      " at tick " + std::to_string(tick) + " (current epoch " +
      std::to_string(l.epoch) + " held by " +
      (l.valid_at(tick) ? std::to_string(l.holder) : std::string("nobody")) +
      ")");
}

bool LeaseDirectory::quorum_round(NodeId initiator) {
  const std::size_t need = config_.effective_quorum(cluster_.num_nodes());
  std::size_t acks = 1;  // the initiator's own vote
  if (acks >= need) return true;
  // Request + ack legs to every other node in node order, stopping at
  // quorum. Both legs cross the fallible network: an active partition cut
  // deterministically denies every cross-cut ack, so the minority side can
  // never reach quorum.
  for (NodeId n = 0; n < cluster_.num_nodes(); ++n) {
    if (n == initiator) continue;
    const SendOutcome req =
        cluster_.network().try_send(initiator, n, config_.message_bytes);
    if (!req.delivered || cluster_.node_is_down(n)) continue;
    const SendOutcome ack =
        cluster_.network().try_send(n, initiator, config_.message_bytes);
    if (!ack.delivered) continue;
    if (++acks >= need) return true;
  }
  return false;
}

void LeaseDirectory::try_renew(std::size_t shard, std::uint64_t tick) {
  ShardLease& l = leases_[shard];
  if (!node_usable(l.holder)) return;  // a dead holder just runs out
  if (quorum_round(l.holder)) {
    l.expires_at = tick + config_.lease_ttl_ticks;
    last_renewed_[shard] = tick;
    ++stats_.renewals;
    if (m_.renewals) m_.renewals->inc();
  } else {
    // Quorum denied (partitioned holder, drop storm): the lease keeps
    // ticking toward expiry — and the holder knows exactly when that is.
    ++stats_.renewal_failures;
    if (m_.renewal_failures) m_.renewal_failures->inc();
  }
}

void LeaseDirectory::try_grant(std::size_t shard, std::uint64_t tick) {
  ShardLease& l = leases_[shard];
  const NodeId prev_holder = l.holder;
  const bool had_holder = l.epoch != 0;
  // Candidates in the cluster's replica-placement order (holder_of), like
  // static failover. A migration-installed preferred holder goes first
  // (deduplicated from the rest of the walk).
  const NodeId preferred = preferred_[shard];
  std::vector<NodeId> order;
  order.reserve(cluster_.num_nodes() + 1);
  if (preferred != kNoLeaseHolder && preferred < cluster_.num_nodes())
    order.push_back(preferred);
  for (std::size_t r = 0; r < cluster_.num_nodes(); ++r) {
    const NodeId cand = cluster_.holder_of(table_, shard, r);
    if (cand == ShardPlacementAuthority::kNoHolder ||
        cand >= cluster_.num_nodes() || cand == preferred)
      continue;
    order.push_back(cand);
  }
  for (const NodeId cand : order) {
    if (!node_usable(cand)) continue;
    // Liveness deferral (never a safety rule): while this candidate's own
    // membership view still believes the previous holder alive, it waits —
    // the suspicion timeout, not the first missed probe, gates takeover.
    // The previous holder itself never defers (self-renewal-after-expiry),
    // and neither does a migration-preferred candidate: the preference is
    // only ever installed by a consented migration, and the TTL-expiry
    // rule still gates this grant, so skipping the wait costs no safety.
    if (had_holder && cand != prev_holder && cand != preferred &&
        membership_.alive_in_view(cand, prev_holder)) {
      ++stats_.deferrals;
      if (m_.deferrals) m_.deferrals->inc();
      continue;
    }
    if (!quorum_round(cand)) {
      ++stats_.grant_failures;
      if (m_.grant_failures) m_.grant_failures->inc();
      continue;
    }
    ++l.epoch;
    l.holder = cand;
    l.granted_at = tick;
    l.expires_at = tick + config_.lease_ttl_ticks;
    last_renewed_[shard] = tick;
    ++stats_.grants;
    if (m_.grants) m_.grants->inc();
    const bool moved = cand != prev_holder;
    if (had_holder && moved) {
      ++stats_.transfers;
      if (m_.transfers) m_.transfers->inc();
    }
    if (tracer_)
      tracer_->span_event("lease_transfer", 0.0, moved ? "moved" : "regrant",
                          config_.message_bytes,
                          static_cast<std::int64_t>(cand));
    if (moved)
      for (auto* listener : listeners_)
        listener->on_lease_transfer(table_, shard, cand, prev_holder, l.epoch,
                                    tick);
    return;
  }
}

void LeaseDirectory::advance_to(std::uint64_t tick) {
  for (std::uint64_t t = last_advanced_ + 1; t <= tick; ++t) {
    now_ = t;
    for (std::size_t shard = 0; shard < leases_.size(); ++shard) {
      ShardLease& l = leases_[shard];
      if (l.valid_at(t)) {
        // An inactive (merged-away) shard gets no renewals: its lease just
        // runs out, and nothing regrants it below.
        if (active_[shard] &&
            t >= last_renewed_[shard] + config_.renew_period_ticks)
          try_renew(shard, t);
        continue;
      }
      if (l.epoch != 0 && t == l.expires_at) {
        ++stats_.expiries;
        if (m_.expiries) m_.expiries->inc();
        if (tracer_)
          tracer_->event("lease", "expired",
                         static_cast<std::int64_t>(l.holder));
      }
      if (active_[shard]) try_grant(shard, t);
    }
  }
  last_advanced_ = std::max(last_advanced_, tick);
  now_ = std::max(now_, tick);
}

bool LeaseDirectory::handoff(std::size_t shard, NodeId target,
                             std::uint64_t tick) {
  ShardLease& l = leases_.at(shard);
  const auto refuse = [this]() {
    ++stats_.handoff_failures;
    if (m_.handoff_failures) m_.handoff_failures->inc();
    return false;
  };
  if (!active_[shard] || !l.valid_at(tick) || l.holder == target ||
      target >= cluster_.num_nodes() || !node_usable(target))
    return refuse();
  // The transfer is still a quorum decision, initiated by the target: a
  // destination on the minority side of a partition cannot take the lease.
  if (!quorum_round(target)) return refuse();
  const NodeId prev_holder = l.holder;
  ++l.epoch;
  l.holder = target;
  l.granted_at = tick;
  l.expires_at = tick + config_.lease_ttl_ticks;
  last_renewed_[shard] = tick;
  ++stats_.handoffs;
  if (m_.handoffs) m_.handoffs->inc();
  if (tracer_)
    tracer_->span_event("lease_transfer", 0.0, "handoff",
                        config_.message_bytes,
                        static_cast<std::int64_t>(target));
  for (auto* listener : listeners_)
    listener->on_lease_transfer(table_, shard, target, prev_holder, l.epoch,
                                tick);
  return true;
}

void LeaseDirectory::set_preferred_holder(std::size_t shard, NodeId node) {
  if (shard >= preferred_.size())
    throw std::out_of_range("LeaseDirectory::set_preferred_holder");
  preferred_[shard] = node;
}

NodeId LeaseDirectory::preferred_holder(std::size_t shard) const {
  if (shard >= preferred_.size())
    throw std::out_of_range("LeaseDirectory::preferred_holder");
  return preferred_[shard];
}

void LeaseDirectory::set_shard_active(std::size_t shard, bool active) {
  if (shard >= active_.size())
    throw std::out_of_range("LeaseDirectory::set_shard_active");
  active_[shard] = active;
}

bool LeaseDirectory::shard_active(std::size_t shard) const {
  if (shard >= active_.size())
    throw std::out_of_range("LeaseDirectory::shard_active");
  return active_[shard];
}

std::size_t LeaseFence::shard_of(const AnalyticalQuery& query) const {
  // Stable query-family -> home-shard mapping: the same signature the
  // agent's model registry keys on.
  return std::hash<std::string>{}(query.signature()) %
         directory_.num_shards();
}

void LeaseFence::check(const AnalyticalQuery& query) const {
  directory_.check_serve(directory_.table(), shard_of(query), local_node_,
                         directory_.now());
}

}  // namespace sea
