#include "recovery/replica.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sea::recovery {

// Completeness guard: RecoveryStats is 23 trivially-copyable 8-byte
// fields; sync_metrics() below must mirror every one. Adding a field
// changes the size and fails this assert until it is covered.
static_assert(sizeof(RecoveryStats) == 23 * 8,
              "RecoveryStats gained/lost a field: update sync_metrics() "
              "and this guard");

ModelReplicaSet::ModelReplicaSet(ReplicaSetConfig config,
                                 DomainProvider domain_provider)
    : config_(std::move(config)),
      domain_provider_(std::move(domain_provider)) {
  if (config_.nodes.empty())
    throw std::invalid_argument("ModelReplicaSet: need at least one node");
  replicas_.reserve(config_.nodes.size());
  for (const NodeId node : config_.nodes) {
    if (find(node))
      throw std::invalid_argument(
          "ModelReplicaSet: duplicate replica node");
    replicas_.emplace_back(node,
                           DatalessAgent(config_.agent, domain_provider_));
    replicas_.back().next_checkpoint_ms = config_.checkpoint_interval_ms;
  }
  next_scrub_ms_ = config_.scrub.interval_ms;
}

ModelReplicaSet::Replica* ModelReplicaSet::find(NodeId node) {
  for (Replica& r : replicas_)
    if (r.node == node) return &r;
  return nullptr;
}

const ModelReplicaSet::Replica* ModelReplicaSet::find(NodeId node) const {
  for (const Replica& r : replicas_)
    if (r.node == node) return &r;
  return nullptr;
}

const ModelReplicaSet::Replica* ModelReplicaSet::find_peer(
    const Replica& r) const {
  for (const Replica& p : replicas_) {
    if (&p == &r) continue;
    if (p.up && !p.isolated && !p.recovering && !p.quarantined &&
        p.version == committed_version_)
      return &p;
  }
  return nullptr;
}

DatalessAgent* ModelReplicaSet::primary() {
  // Home affinity: replicas_[0] serves whenever it is up — including its
  // catch-up window, when its replayed pre-crash state is *stale* (the
  // window E17 measures). Failover to a live peer only while it is down.
  // A quarantined replica never serves: scrub proved its state diverged.
  for (Replica& r : replicas_)
    if (r.up && !r.quarantined) return &r.agent;
  return nullptr;
}

bool ModelReplicaSet::primary_stale() const {
  for (const Replica& r : replicas_)
    if (r.up && !r.quarantined) return r.version < committed_version_;
  return false;
}

void ModelReplicaSet::observe(const AnalyticalQuery& query, double truth) {
  ++committed_version_;
  history_.emplace_back(query, truth);
  for (Replica& r : replicas_) {
    // A recovering replica skips the live stream; the gap is closed by
    // its anti-entropy rounds (which also backfill its WAL). An isolated
    // replica (partitioned off) misses the stream the same way — the gap
    // it accumulates is what a post-heal lease handoff must close.
    if (!r.up || r.recovering || r.isolated) continue;
    r.agent.observe(query, truth);
    r.version = committed_version_;
    store_.append_wal(r.node, WalRecord{committed_version_, query, truth});
  }
}

void ModelReplicaSet::advance(double modelled_ms) {
  now_ms_ += std::max(modelled_ms, config_.min_query_advance_ms);
  for (Replica& r : replicas_) step_recovery(r);
  if (config_.checkpoint_interval_ms > 0.0) {
    for (Replica& r : replicas_)
      if (r.up && !r.recovering && now_ms_ >= r.next_checkpoint_ms)
        take_checkpoint(r);
  }
  if (config_.scrub.interval_ms > 0.0 && now_ms_ >= next_scrub_ms_) {
    run_scrub();
    next_scrub_ms_ = now_ms_ + config_.scrub.interval_ms;
  }
  sync_metrics();
}

ServingModelProvider::RecoveryDelta ModelReplicaSet::take_recovery_delta() {
  const RecoveryDelta d = pending_delta_;
  pending_delta_ = RecoveryDelta{};
  return d;
}

void ModelReplicaSet::on_crash(NodeId node, std::uint64_t /*tick*/) {
  Replica* r = find(node);
  if (!r || !r->up) return;
  r->up = false;
  r->recovering = false;
  r->catching_up = false;
  // State wiped: only the durable checkpoint + WAL survive. Assigning a
  // fresh agent into the same object keeps outstanding pointers valid.
  // In-memory taint dies with the memory (the durable log may re-taint an
  // unchecked reload); quarantine persists across the crash so the node
  // stays fenced until a recovery completes and counts as its repair.
  r->agent = DatalessAgent(config_.agent, domain_provider_);
  r->version = 0;
  r->tainted = false;
  ++stats_.crashes;
  if (tracer_)
    tracer_->event("model_crash", "", static_cast<std::int64_t>(node));
  sync_metrics();
}

void ModelReplicaSet::on_restart(NodeId node, std::uint64_t /*tick*/) {
  Replica* r = find(node);
  if (!r || r->up) return;
  r->up = true;
  begin_recovery(*r);
  sync_metrics();
}

void ModelReplicaSet::begin_recovery(Replica& r) {
  r.event = RecoveryEvent{};
  r.event.node = r.node;
  r.event.restart_at_ms = now_ms_;
  const bool verify = config_.verify_checksums;
  double local_ms = 0.0;
  CheckpointLoad cp = store_.load_checkpoint(r.node, verify);
  stats_.corrupt_frames_detected += cp.corrupt_detected;
  if (cp.fell_back) ++stats_.checkpoint_fallbacks;
  if (cp.loaded) {
    bool applied = false;
    try {
      std::stringstream in(cp.blob);
      r.agent = DatalessAgent::deserialize(in, domain_provider_);
      applied = true;
    } catch (const std::exception&) {
      // A flipped blob that still framed OK but no longer parses fails
      // loudly in any mode: restart from genesis and let anti-entropy
      // close the whole gap. (Only reachable with verification off — a
      // CRC-verified frame decodes byte-for-byte.)
      r.agent = DatalessAgent(config_.agent, domain_provider_);
      r.version = 0;
      ++stats_.corrupt_frames_detected;
    }
    if (applied) {
      // Clamp: an unchecked reader can load a flipped version field, but
      // no honest snapshot is ever ahead of the committed history.
      r.version = std::min(cp.version, committed_version_);
      if (cp.tainted) r.tainted = true;
      r.event.checkpoint_version = r.version;
      r.event.checkpoint_bytes = cp.blob.size();
      local_ms += config_.checkpoint_load_ms_per_kb *
                  static_cast<double>(cp.blob.size()) / 1024.0;
    }
  }
  // WAL replay: every durably logged update past the checkpoint — the
  // *entire* history when checkpointing is disabled. Verified replay
  // truncates at the first bad frame; the unchecked walk applies whatever
  // still parses (record_tainted / silent_gap are the omniscient account
  // of what it swallowed).
  WalReplay rep = store_.replay_wal(r.node, r.version, verify);
  stats_.corrupt_frames_detected += rep.corrupt_detected;
  if (rep.silent_gap) r.tainted = true;
  std::uint64_t replayed = 0;
  std::uint64_t replay_bytes = 0;
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    const WalRecord& w = rep.records[i];
    try {
      r.agent.observe(w.query, w.answer);
    } catch (const std::exception&) {
      // A flip can turn a decodable record semantically invalid (e.g. an
      // inverted range): even the checksum-oblivious reader derails on it
      // loudly at apply time. Structural damage discovered late —
      // truncate here and let anti-entropy close the rest of the gap.
      ++stats_.corrupt_frames_detected;
      break;
    }
    if (rep.record_tainted[i]) r.tainted = true;
    if (w.version > r.version)
      r.version = std::min(w.version, committed_version_);
    replay_bytes += wal_record_bytes(w.query);
    ++replayed;
  }
  if (r.tainted) ++stats_.tainted_loads;
  local_ms += config_.replay_ms_per_update * static_cast<double>(replayed);
  // The whole local stage reads the durable medium: a stalled-I/O window
  // stretches it by the node's current stall multiplier.
  local_ms *= storage_stall(r.node);
  r.event.replayed_updates = replayed;
  stats_.replayed_updates += replayed;
  pending_delta_.replayed_updates += replayed;
  if (tracer_)
    tracer_->span_event("wal_replay", local_ms,
                        r.event.checkpoint_version ? "from_checkpoint"
                                                   : "full_log",
                        replay_bytes, static_cast<std::int64_t>(r.node));
  // The local replay is a *timed* stage: until the modelled clock pays
  // for it (and for any anti-entropy rounds after it), the node stays
  // `recovering`, serving its replayed pre-crash state — the stale-serve
  // window E17 measures. Recovery stages chain off catchup_ready_ms, so
  // the recovery duration is exactly the sum of its modelled charges no
  // matter how often the serving loop polls advance().
  r.recovering = true;
  r.catching_up = true;
  r.catchup_target = r.version;  // replay stage applies nothing new
  r.catchup_ready_ms = now_ms_ + local_ms;
  step_recovery(r);  // zero-cost recoveries complete immediately
}

void ModelReplicaSet::set_isolated(NodeId node, bool isolated) {
  Replica* r = find(node);
  if (r) r->isolated = isolated;
}

bool ModelReplicaSet::isolated(NodeId node) const {
  const Replica* r = find(node);
  return r != nullptr && r->isolated;
}

bool ModelReplicaSet::request_catchup(NodeId node) {
  Replica* r = find(node);
  // A still-isolated node cannot run anti-entropy rounds either — the
  // handoff must wait for the heal (leases guarantee it does: a minority-
  // side node can never win the quorum grant that triggers this).
  if (!r || !r->up || r->isolated || r->recovering) return false;
  if (r->version >= committed_version_) return false;
  // Same staged machinery as a restart recovery, but with no local replay
  // stage: the node's memory survived, it just lags the committed log.
  r->event = RecoveryEvent{};
  r->event.node = r->node;
  r->event.restart_at_ms = now_ms_;
  r->recovering = true;
  r->catching_up = false;
  r->catchup_target = r->version;
  r->catchup_ready_ms = now_ms_;
  if (tracer_)
    tracer_->event("lease_catchup", "", static_cast<std::int64_t>(node));
  start_catchup_round(*r);
  step_recovery(*r);
  sync_metrics();
  return true;
}

void ModelReplicaSet::start_catchup_round(Replica& r) {
  // Source preference: a live caught-up peer; else the coordinator's own
  // committed log. The fallback keeps recovery live for single-replica
  // sets and when every peer is down or itself recovering.
  const Replica* peer = find_peer(r);
  const std::uint64_t gap = committed_version_ - r.version;
  ++stats_.anti_entropy_rounds;
  ++r.event.rounds;
  std::uint64_t bytes = 0;
  const char* tag = peer ? "delta" : "coordinator_log";
  if (peer && r.version == 0) {
    // Nothing local at all (no checkpoint, empty WAL): ship the peer's
    // full serialized model state instead of every historic delta.
    std::stringstream wire;
    peer->agent.serialize(wire);
    bytes = wire.str().size();
    tag = "full_state";
    r.event.full_state_transfer = true;
    ++stats_.full_state_transfers;
  } else {
    for (std::uint64_t v = r.version + 1; v <= committed_version_; ++v)
      bytes += wal_record_bytes(history_[v - 1].first);
  }
  const double ms =
      config_.transfer_base_ms +
      config_.transfer_ms_per_kb * static_cast<double>(bytes) / 1024.0 +
      config_.replay_ms_per_update * static_cast<double>(gap);
  r.catchup_target = committed_version_;
  r.catchup_ready_ms += ms;  // chained off the previous stage, not now_ms_
  r.catching_up = true;
  stats_.anti_entropy_bytes += bytes;
  r.event.transferred_bytes += bytes;
  if (tracer_)
    tracer_->span_event("anti_entropy", ms, tag, bytes,
                        static_cast<std::int64_t>(r.node));
}

void ModelReplicaSet::apply_catchup(Replica& r) {
  // Replay the fetched history slice and backfill the node's WAL with it,
  // so the durable log stays a contiguous prefix of the history (a later
  // crash replays a complete sequence, keeping recovered replicas
  // bit-identical to never-crashed ones).
  const std::uint64_t from = r.version;
  for (std::uint64_t v = from + 1; v <= r.catchup_target; ++v) {
    const auto& [query, truth] = history_[v - 1];
    r.agent.observe(query, truth);
    store_.append_wal(r.node, WalRecord{v, query, truth});
  }
  const std::uint64_t applied = r.catchup_target - from;
  stats_.anti_entropy_updates += applied;
  r.event.delta_updates += applied;
  r.version = r.catchup_target;
  r.catching_up = false;
}

void ModelReplicaSet::finish_recovery(Replica& r) {
  r.recovering = false;
  r.catching_up = false;
  if (r.quarantined) {
    // The repair rebuilt the replica from a clean peer / the committed
    // history: lift the fence and close the scrub ledger.
    r.quarantined = false;
    ++stats_.scrub_repairs;
    if (tracer_)
      tracer_->event("scrub_repaired", "", static_cast<std::int64_t>(r.node));
  }
  r.event.target_version = r.version;
  ++stats_.recoveries;
  ++pending_delta_.recoveries;
  const double rec_ms = r.event.recovery_ms();
  stats_.modelled_recovery_ms += rec_ms;
  stats_.max_recovery_ms = std::max(stats_.max_recovery_ms, rec_ms);
  events_.push_back(r.event);
  if (tracer_)
    tracer_->event("recovered", "", static_cast<std::int64_t>(r.node));
  if (m_.recovery_ms) m_.recovery_ms->observe(rec_ms);
  // Checkpoint cadence restarts relative to recovery completion.
  r.next_checkpoint_ms = std::max(now_ms_, r.event.caught_up_at_ms) +
                         config_.checkpoint_interval_ms;
}

void ModelReplicaSet::step_recovery(Replica& r) {
  if (!r.up || !r.recovering) return;
  while (r.recovering && r.catching_up && now_ms_ >= r.catchup_ready_ms) {
    apply_catchup(r);
    if (committed_version_ - r.version <= config_.cutover_updates) {
      // Final cutover: once the remaining gap is small enough, the tail
      // committed while the last stage was in flight is applied
      // synchronously — recovery terminates even under a continuous
      // observe stream.
      if (r.version < committed_version_) {
        r.catchup_target = committed_version_;
        apply_catchup(r);
      }
      r.event.caught_up_at_ms = r.catchup_ready_ms;
      finish_recovery(r);
      return;
    }
    // More was committed while this stage was in flight: go again (the
    // gap shrinks each round; the cutover bound ends the chase).
    start_catchup_round(r);
  }
}

void ModelReplicaSet::take_checkpoint(Replica& r) {
  std::stringstream wire;
  r.agent.serialize(wire);
  std::string blob = wire.str();
  // Snapshot work happens on the serving node's modelled clock; a stalled
  // I/O window stretches the durable write by its multiplier.
  const double cost =
      (config_.checkpoint_base_ms +
       config_.checkpoint_ms_per_kb * static_cast<double>(blob.size()) /
           1024.0) *
      storage_stall(r.node);
  now_ms_ += cost;
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += blob.size();
  stats_.modelled_checkpoint_ms += cost;
  if (tracer_)
    tracer_->span_event("checkpoint", cost, "", blob.size(),
                        static_cast<std::int64_t>(r.node));
  store_.put_checkpoint(
      r.node, CheckpointRecord{std::move(blob), r.version, now_ms_},
      r.tainted);
  r.next_checkpoint_ms = now_ms_ + config_.checkpoint_interval_ms;
}

void ModelReplicaSet::set_storage_faults(StorageFaultModel* model) {
  storage_ = model;
  store_.attach_faults(model);
}

double ModelReplicaSet::storage_stall(NodeId node) const {
  return storage_ ? storage_->stall_multiplier(node) : 1.0;
}

void ModelReplicaSet::scrub_now() {
  run_scrub();
  if (config_.scrub.interval_ms > 0.0)
    next_scrub_ms_ = now_ms_ + config_.scrub.interval_ms;
  sync_metrics();
}

void ModelReplicaSet::run_scrub() {
  ++stats_.scrub_passes;
  double pass_ms = 0.0;
  std::uint64_t pass_bytes = 0;
  // 1) Digest every live, caught-up, unquarantined replica. Replicas at
  // the committed version are byte-identical when healthy, so a root
  // disagreement IS divergence; lagging/recovering replicas are skipped
  // (their divergence from the head is legitimate, not corruption).
  std::vector<Replica*> cands;
  std::vector<std::uint64_t> roots;
  for (Replica& r : replicas_) {
    if (!r.up || r.recovering || r.isolated || r.quarantined) continue;
    if (r.version != committed_version_) continue;
    std::stringstream wire;
    r.agent.serialize(wire);
    const std::string state = wire.str();
    pass_ms += config_.scrub.digest_base_ms +
               config_.scrub.digest_ms_per_kb *
                   static_cast<double>(state.size()) / 1024.0;
    pass_bytes += state.size();
    cands.push_back(&r);
    roots.push_back(digest_state(state, config_.scrub.page_bytes).root);
  }
  std::vector<Replica*> divergent;
  if (!cands.empty()) {
    stats_.scrub_checks += cands.size();
    // 2) Canonical root: a strict digest majority when one exists
    // (independent corruptions never collide on a root), else a referee
    // rebuild from the committed history — the ground truth every healthy
    // replica is a pure function of.
    std::uint64_t canonical = 0;
    bool have_canonical = false;
    for (std::size_t i = 0; i < roots.size() && !have_canonical; ++i) {
      std::size_t votes = 0;
      for (const std::uint64_t root : roots) votes += root == roots[i];
      if (2 * votes > roots.size()) {
        canonical = roots[i];
        have_canonical = true;
      }
    }
    if (!have_canonical) {
      ++stats_.scrub_referee_replays;
      DatalessAgent referee(config_.agent, domain_provider_);
      for (const auto& [query, truth] : history_)
        referee.observe(query, truth);
      std::stringstream wire;
      referee.serialize(wire);
      const std::string state = wire.str();
      canonical = digest_state(state, config_.scrub.page_bytes).root;
      pass_ms += config_.replay_ms_per_update *
                     static_cast<double>(committed_version_) +
                 config_.scrub.digest_base_ms +
                 config_.scrub.digest_ms_per_kb *
                     static_cast<double>(state.size()) / 1024.0;
    }
    // 3) Classify. Divergent replicas are all *flagged* before any repair
    // round starts, so a repair can never source from a peer the same
    // pass is about to condemn.
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (roots[i] == canonical) {
        ++stats_.scrub_clean;
      } else {
        ++stats_.scrub_divergent;
        divergent.push_back(cands[i]);
      }
    }
    for (Replica* r : divergent) quarantine(*r);
    // 4) Durable CRC walk for clean replicas: flipped or torn frames
    // sitting unread on the medium are rebuilt from verified-clean memory
    // *now*, not discovered at the next crash.
    for (std::size_t i = 0; i < cands.size(); ++i) {
      Replica* r = cands[i];
      if (r->quarantined) continue;  // wiped below anyway
      pass_ms += config_.scrub.digest_ms_per_kb *
                 static_cast<double>(store_.wal_bytes(r->node)) / 1024.0;
      const NodeIntegrityReport rep = store_.verify_node(r->node);
      if (rep.clean()) continue;
      stats_.corrupt_frames_detected += rep.corrupt_frames();
      ++stats_.scrub_durable_repairs;
      store_.reset_node(r->node);
      if (tracer_)
        tracer_->event("scrub_durable_repair", "",
                       static_cast<std::int64_t>(r->node));
      take_checkpoint(*r);
    }
  }
  stats_.modelled_scrub_ms += pass_ms;
  now_ms_ += pass_ms;
  if (tracer_)
    tracer_->span_event("scrub", pass_ms,
                        divergent.empty() ? "clean" : "divergent",
                        pass_bytes, -1);
  // 5) Repair: each quarantined replica rebuilds through the standard
  // anti-entropy path (full-state from a clean peer, else the committed
  // log). Rounds start after the pass cost so their clocks chain off it.
  for (Replica* r : divergent) {
    r->catchup_ready_ms = now_ms_;
    start_catchup_round(*r);
    step_recovery(*r);
  }
}

void ModelReplicaSet::quarantine(Replica& r) {
  // Wipe both the in-memory model and the durable state: scrub proved the
  // bytes wrong, and a repair seeded from them would relay the damage.
  r.quarantined = true;
  r.tainted = false;
  r.agent = DatalessAgent(config_.agent, domain_provider_);
  r.version = 0;
  store_.reset_node(r.node);
  r.recovering = true;
  r.catching_up = false;
  r.event = RecoveryEvent{};
  r.event.node = r.node;
  r.event.restart_at_ms = now_ms_;
  r.catchup_target = 0;
  r.catchup_ready_ms = now_ms_;
  if (tracer_)
    tracer_->event("quarantine", "scrub_divergent",
                   static_cast<std::int64_t>(r.node));
}

bool ModelReplicaSet::quarantined(NodeId node) const {
  const Replica* r = find(node);
  return r != nullptr && r->quarantined;
}

std::size_t ModelReplicaSet::quarantined_now() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) n += r.quarantined;
  return n;
}

bool ModelReplicaSet::replica_tainted(NodeId node) const {
  const Replica* r = find(node);
  return r != nullptr && r->tainted;
}

bool ModelReplicaSet::primary_tainted() const {
  for (const Replica& r : replicas_)
    if (r.up && !r.quarantined) return r.tainted;
  return false;
}

bool ModelReplicaSet::digests_converged() const {
  bool have = false;
  std::uint64_t root = 0;
  for (const Replica& r : replicas_) {
    if (!r.up || r.recovering || r.quarantined) continue;
    if (r.version != committed_version_) continue;
    std::stringstream wire;
    r.agent.serialize(wire);
    const std::uint64_t mine =
        digest_state(wire.str(), config_.scrub.page_bytes).root;
    if (have && mine != root) return false;
    root = mine;
    have = true;
  }
  return true;
}

void ModelReplicaSet::settle(double step_ms, std::size_t max_steps) {
  for (std::size_t i = 0; i < max_steps && any_recovering(); ++i)
    advance(step_ms);
}

bool ModelReplicaSet::replica_up(NodeId node) const {
  const Replica* r = find(node);
  return r && r->up;
}

bool ModelReplicaSet::replica_recovering(NodeId node) const {
  const Replica* r = find(node);
  return r && r->recovering;
}

bool ModelReplicaSet::any_recovering() const {
  for (const Replica& r : replicas_)
    if (r.recovering) return true;
  return false;
}

std::uint64_t ModelReplicaSet::replica_version(NodeId node) const {
  const Replica* r = find(node);
  return r ? r->version : 0;
}

void ModelReplicaSet::bind_obs(obs::Tracer* tracer,
                               obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (!metrics) {
    m_ = RecoveryMetrics{};
    return;
  }
  m_.crashes = &metrics->counter("recovery.crashes");
  m_.recoveries = &metrics->counter("recovery.recoveries");
  m_.replayed_updates = &metrics->counter("recovery.replayed_updates");
  m_.anti_entropy_rounds =
      &metrics->counter("recovery.anti_entropy_rounds");
  m_.anti_entropy_updates =
      &metrics->counter("recovery.anti_entropy_updates");
  m_.anti_entropy_bytes = &metrics->counter("recovery.anti_entropy_bytes");
  m_.full_state_transfers =
      &metrics->counter("recovery.full_state_transfers");
  m_.checkpoints = &metrics->counter("recovery.checkpoints");
  m_.checkpoint_bytes = &metrics->counter("recovery.checkpoint_bytes");
  m_.modelled_checkpoint_ms =
      &metrics->gauge("recovery.modelled_checkpoint_ms");
  m_.modelled_recovery_ms =
      &metrics->gauge("recovery.modelled_recovery_ms");
  m_.max_recovery_ms = &metrics->gauge("recovery.max_recovery_ms");
  m_.recovery_ms = &metrics->histogram(
      "recovery.recovery_ms", {5.0, 10.0, 25.0, 50.0, 100.0, 250.0});
  m_.corrupt_frames =
      &metrics->counter("storage.corrupt_frames_detected");
  m_.checkpoint_fallbacks =
      &metrics->counter("storage.checkpoint_fallbacks");
  m_.tainted_loads = &metrics->counter("storage.tainted_loads");
  m_.torn_writes = &metrics->counter("storage.torn_writes");
  m_.bit_flips = &metrics->counter("storage.bit_flips");
  m_.lost_flushes = &metrics->counter("storage.lost_flushes");
  m_.stalled_writes = &metrics->counter("storage.stalled_writes");
  m_.frames_written = &metrics->counter("storage.frames_written");
  m_.scrub_passes = &metrics->counter("scrub.passes");
  m_.scrub_checks = &metrics->counter("scrub.checks");
  m_.scrub_clean = &metrics->counter("scrub.clean");
  m_.scrub_divergent = &metrics->counter("scrub.divergent");
  m_.scrub_repairs = &metrics->counter("scrub.repairs");
  m_.scrub_durable_repairs = &metrics->counter("scrub.durable_repairs");
  m_.scrub_referee_replays = &metrics->counter("scrub.referee_replays");
  m_.modelled_scrub_ms = &metrics->gauge("scrub.modelled_ms");
  // Count from the moment of attachment (serving-layer contract).
  mirrored_ = stats_;
  mirrored_store_ = store_.stats();
}

void ModelReplicaSet::sync_metrics() {
  if (!m_.crashes) return;
  m_.crashes->inc(stats_.crashes - mirrored_.crashes);
  m_.recoveries->inc(stats_.recoveries - mirrored_.recoveries);
  m_.replayed_updates->inc(stats_.replayed_updates -
                           mirrored_.replayed_updates);
  m_.anti_entropy_rounds->inc(stats_.anti_entropy_rounds -
                              mirrored_.anti_entropy_rounds);
  m_.anti_entropy_updates->inc(stats_.anti_entropy_updates -
                               mirrored_.anti_entropy_updates);
  m_.anti_entropy_bytes->inc(stats_.anti_entropy_bytes -
                             mirrored_.anti_entropy_bytes);
  m_.full_state_transfers->inc(stats_.full_state_transfers -
                               mirrored_.full_state_transfers);
  m_.checkpoints->inc(stats_.checkpoints - mirrored_.checkpoints);
  m_.checkpoint_bytes->inc(stats_.checkpoint_bytes -
                           mirrored_.checkpoint_bytes);
  m_.modelled_checkpoint_ms->set(stats_.modelled_checkpoint_ms);
  m_.modelled_recovery_ms->set(stats_.modelled_recovery_ms);
  m_.max_recovery_ms->set(stats_.max_recovery_ms);
  m_.corrupt_frames->inc(stats_.corrupt_frames_detected -
                         mirrored_.corrupt_frames_detected);
  m_.checkpoint_fallbacks->inc(stats_.checkpoint_fallbacks -
                               mirrored_.checkpoint_fallbacks);
  m_.tainted_loads->inc(stats_.tainted_loads - mirrored_.tainted_loads);
  m_.scrub_passes->inc(stats_.scrub_passes - mirrored_.scrub_passes);
  m_.scrub_checks->inc(stats_.scrub_checks - mirrored_.scrub_checks);
  m_.scrub_clean->inc(stats_.scrub_clean - mirrored_.scrub_clean);
  m_.scrub_divergent->inc(stats_.scrub_divergent -
                          mirrored_.scrub_divergent);
  m_.scrub_repairs->inc(stats_.scrub_repairs - mirrored_.scrub_repairs);
  m_.scrub_durable_repairs->inc(stats_.scrub_durable_repairs -
                                mirrored_.scrub_durable_repairs);
  m_.scrub_referee_replays->inc(stats_.scrub_referee_replays -
                                mirrored_.scrub_referee_replays);
  m_.modelled_scrub_ms->set(stats_.modelled_scrub_ms);
  const CheckpointStoreStats store_now = store_.stats();
  m_.torn_writes->inc(store_now.torn_writes - mirrored_store_.torn_writes);
  m_.bit_flips->inc(store_now.bit_flips - mirrored_store_.bit_flips);
  m_.lost_flushes->inc(store_now.lost_flushes -
                       mirrored_store_.lost_flushes);
  m_.stalled_writes->inc(store_now.stalled_writes -
                         mirrored_store_.stalled_writes);
  m_.frames_written->inc(store_now.frames_written -
                         mirrored_store_.frames_written);
  mirrored_ = stats_;
  mirrored_store_ = store_now;
}

}  // namespace sea::recovery
