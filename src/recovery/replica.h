// Replicated serving models with durable checkpoints, WAL replay, and
// anti-entropy catch-up (the tentpole of DESIGN.md "Crash recovery &
// anti-entropy").
//
// A ModelReplicaSet keeps one DatalessAgent replica per configured node.
// Ground truth flows through observe(): each update is committed to a
// global history (monotonic version), appended to every live replica's
// write-ahead log (checkpoint.h), and applied to every live replica.
//
// Crash model (wired to FaultInjector via CrashListener): on_crash wipes
// the replica's in-memory model — the durable checkpoint + WAL survive.
// on_restart replays checkpoint + WAL locally (modelled replay cost),
// then runs anti-entropy rounds against a live caught-up peer to fetch
// the updates committed while the node was down. Deterministic replay:
// every replica is a pure function of the observation sequence (quantum
// RNG streams are derived from the root seed), so a recovered replica is
// bit-identical to one that never crashed.
//
// Serving affinity: the home replica (nodes[0]) owns serving whenever it
// is up; serving fails over to a live peer only while the home is down
// and returns to the home at restart. During the home's catch-up window
// it serves its replayed (pre-crash) state — those answers are *stale*,
// flagged through ServingModelProvider::primary_stale() and counted as
// ServeStats::stale_model_serves. Shortening that window is what
// checkpoints buy (experiment E17): with checkpointing disabled a restart
// replays the entire history from genesis; with it, checkpoint + short
// WAL suffix.
//
// Every method runs on the serial serving path; the modelled clock
// (advance()) is what recovery and checkpoint deadlines are measured
// against, so all counters, spans, and metrics are bit-identical at any
// SEA_THREADS setting.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"
#include "recovery/digest.h"
#include "sea/agent.h"
#include "sea/served.h"

namespace sea::recovery {

/// Scrub pass knobs (DESIGN.md "Storage faults & integrity"). A pass
/// digests every live caught-up replica's serialized state (modelled
/// cost below), compares roots, quarantines divergent replicas for
/// repair through the anti-entropy path, and CRC-walks each clean
/// replica's durable frames, rebuilding any that fail.
struct ScrubConfig {
  /// Scrub cadence on the modelled clock; 0 disables scrubbing.
  double interval_ms = 0.0;
  /// Modelled cost of digesting one replica: base + per-KB of state.
  double digest_base_ms = 0.5;
  double digest_ms_per_kb = 0.004;
  /// Digest-tree leaf size over the serialized state.
  std::size_t page_bytes = 4096;
};

struct ReplicaSetConfig {
  /// Replica placement; nodes[0] is the *home* replica (serving affinity).
  std::vector<NodeId> nodes;
  /// Model configuration shared by every replica.
  AgentConfig agent;
  /// Snapshot cadence on the modelled clock; 0 disables checkpoints
  /// entirely (restart = full-log replay from genesis).
  double checkpoint_interval_ms = 400.0;
  /// Modelled cost of taking a snapshot: base + per-KB of serialized
  /// model state, charged to the modelled clock (the serving node is busy
  /// snapshotting).
  double checkpoint_base_ms = 2.0;
  double checkpoint_ms_per_kb = 0.02;
  /// Modelled cost of loading a snapshot at restart, per KB.
  double checkpoint_load_ms_per_kb = 0.01;
  /// Modelled cost of re-applying one logged update (WAL replay and
  /// anti-entropy deltas alike).
  double replay_ms_per_update = 0.05;
  /// Modelled cost of one anti-entropy transfer round: base + per-KB of
  /// shipped delta (or full model state when the restarted node has
  /// nothing local).
  double transfer_base_ms = 1.0;
  double transfer_ms_per_kb = 0.08;
  /// Final-round cutover: once the remaining gap is this small the tail
  /// is applied synchronously, so recovery terminates even under a
  /// continuous observe stream.
  std::uint64_t cutover_updates = 32;
  /// Minimum modelled-clock advance per advance() call — pure model
  /// answers still move time forward.
  double min_query_advance_ms = 0.05;
  /// Verify frame checksums on every checkpoint load / WAL replay (the
  /// silent-corruption defense). false models the checksum-oblivious
  /// reader E19 uses as its baseline arm: structural damage still fails
  /// loudly, but flipped bits and lost-flush gaps are applied silently.
  bool verify_checksums = true;
  /// Periodic digest scrub + durable CRC walk (off by default).
  ScrubConfig scrub;
};

/// One completed recovery, from restart to fully caught up. The duration
/// is exactly the sum of its modelled charges, so tests can bound it from
/// the config knobs and these counters.
struct RecoveryEvent {
  NodeId node = 0;
  double restart_at_ms = 0.0;
  double caught_up_at_ms = 0.0;
  std::uint64_t checkpoint_version = 0;  ///< 0 = no checkpoint (full-log)
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t replayed_updates = 0;    ///< local WAL replay
  std::uint64_t delta_updates = 0;       ///< fetched via anti-entropy
  std::uint64_t transferred_bytes = 0;
  std::uint64_t rounds = 0;              ///< anti-entropy rounds
  bool full_state_transfer = false;
  std::uint64_t target_version = 0;      ///< version at completion

  double recovery_ms() const noexcept {
    return caught_up_at_ms - restart_at_ms;
  }
};

/// Counters guarded by a sizeof static_assert in replica.cpp.
struct RecoveryStats {
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t replayed_updates = 0;
  std::uint64_t anti_entropy_rounds = 0;
  std::uint64_t anti_entropy_updates = 0;
  std::uint64_t anti_entropy_bytes = 0;
  std::uint64_t full_state_transfers = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  double modelled_checkpoint_ms = 0.0;
  double modelled_recovery_ms = 0.0;  ///< sum over completed recoveries
  double max_recovery_ms = 0.0;
  // --- integrity (storage faults, scrub/repair) ---
  std::uint64_t corrupt_frames_detected = 0;  ///< frames verification caught
  std::uint64_t checkpoint_fallbacks = 0;  ///< loads that fell back an epoch
  std::uint64_t tainted_loads = 0;  ///< omniscient: loads that applied
                                    ///< corrupt data undetected (0 whenever
                                    ///< verify_checksums is on)
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_checks = 0;     ///< replica digests compared
  std::uint64_t scrub_clean = 0;      ///< checks matching the canonical root
  std::uint64_t scrub_divergent = 0;  ///< checks quarantined for repair
  std::uint64_t scrub_repairs = 0;    ///< quarantines fully repaired
  std::uint64_t scrub_durable_repairs = 0;  ///< durable states rebuilt
  std::uint64_t scrub_referee_replays = 0;  ///< canonical-replay tie-breaks
  double modelled_scrub_ms = 0.0;

  /// Scrub accounting invariant (mirrors ServeStats::conserved): every
  /// digest check resolved clean or divergent, and every divergence was
  /// repaired or is still quarantined now.
  bool scrub_conserved(std::uint64_t quarantined_now) const noexcept {
    return scrub_checks == scrub_clean + scrub_divergent &&
           scrub_divergent == scrub_repairs + quarantined_now;
  }
};

class ModelReplicaSet final : public ServingModelProvider,
                             public CrashListener {
 public:
  using DomainProvider =
      std::function<Rect(const std::vector<std::size_t>&)>;

  /// Throws std::invalid_argument when `config.nodes` is empty or lists a
  /// node twice.
  ModelReplicaSet(ReplicaSetConfig config, DomainProvider domain_provider);

  // ServingModelProvider (the serial serving path).
  DatalessAgent* primary() override;
  bool primary_stale() const override;
  void observe(const AnalyticalQuery& query, double truth) override;
  void advance(double modelled_ms) override;
  RecoveryDelta take_recovery_delta() override;

  // CrashListener (notified by FaultInjector at crash/restart ticks).
  void on_crash(NodeId node, std::uint64_t tick) override;
  void on_restart(NodeId node, std::uint64_t tick) override;

  /// Attaches a tracer / metrics registry (either may be null; caller
  /// owns both). recovery.*, scrub.*, and storage.* counters track
  /// stats() from the moment of attachment, mirroring the serving
  /// layer's contract.
  void bind_obs(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Routes durable writes through `model` (torn writes / bit flips /
  /// lost flushes) and prices checkpoint and load costs by its stall
  /// multiplier. nullptr restores clean storage. Caller owns the model.
  void set_storage_faults(StorageFaultModel* model);

  /// Runs one scrub pass immediately (tests/benches; the cadence path
  /// calls this from advance()).
  void scrub_now();

  /// Drives the modelled clock until no replica is mid-recovery (or the
  /// step budget runs out) — lets tests and benches settle in-flight
  /// catch-ups after the query stream ends.
  void settle(double step_ms = 5.0, std::size_t max_steps = 10000);

  /// Lease-transfer handoff (src/membership): starts an anti-entropy
  /// catch-up for a live replica lagging the committed history — the node
  /// just acquired a shard lease and must serve current state, exactly the
  /// WAL-replay handoff a crash restart gets, minus the local replay (its
  /// in-memory state never died). No-op (returns false) when the node is
  /// unknown, down, still isolated, already recovering, or already caught
  /// up.
  bool request_catchup(NodeId node);

  /// Marks `node` connectivity-isolated (minority side of a partition):
  /// while isolated the replica misses the live observe stream — its model
  /// and WAL freeze at their current version — but it is not down and can
  /// keep serving its (increasingly stale) state. Clearing isolation does
  /// NOT catch the replica up by itself; the handoff that makes it an
  /// authority again (request_catchup, via a lease transfer) does.
  void set_isolated(NodeId node, bool isolated);
  bool isolated(NodeId node) const;

  std::uint64_t committed_version() const noexcept {
    return committed_version_;
  }
  double now_ms() const noexcept { return now_ms_; }
  bool replica_up(NodeId node) const;
  bool replica_recovering(NodeId node) const;
  bool any_recovering() const;
  std::uint64_t replica_version(NodeId node) const;
  /// True while `node` is quarantined mid-repair: it neither serves
  /// (primary() skips it) nor may win a lease (QuarantineLeaseGate).
  bool quarantined(NodeId node) const;
  std::size_t quarantined_now() const;
  /// Omniscient ground truth for harnesses: whether the replica (or the
  /// one primary() would serve) silently applied corrupted data. Invisible
  /// to the defense logic — this is the E19 wrong-answer-serve account.
  bool replica_tainted(NodeId node) const;
  bool primary_tainted() const;
  /// True when every up, caught-up replica shares one digest root.
  bool digests_converged() const;
  const RecoveryStats& stats() const noexcept { return stats_; }
  const std::vector<RecoveryEvent>& recovery_events() const noexcept {
    return events_;
  }
  const CheckpointStore& store() const noexcept { return store_; }

 private:
  struct Replica {
    NodeId node = 0;
    DatalessAgent agent;  ///< by value: pointers survive a wipe-by-assign
    std::uint64_t version = 0;
    bool up = true;
    bool isolated = false;     ///< partitioned off the live observe stream
    bool recovering = false;   ///< restarted, not yet caught up
    bool catching_up = false;  ///< a timed anti-entropy round in flight
    bool quarantined = false;  ///< scrub-divergent, mid-repair
    bool tainted = false;      ///< omniscient: state silently diverged
    double next_checkpoint_ms = 0.0;
    double catchup_ready_ms = 0.0;  ///< modelled completion of work so far
    std::uint64_t catchup_target = 0;
    RecoveryEvent event;            ///< in-flight recovery accumulator

    Replica(NodeId n, DatalessAgent a)
        : node(n), agent(std::move(a)) {}
  };

  Replica* find(NodeId node);
  const Replica* find(NodeId node) const;
  /// First live, caught-up replica other than `r` — the preferred
  /// anti-entropy source. nullptr means the round sources from the
  /// coordinator's committed log instead (single-replica deployments, or
  /// every peer down/recovering).
  const Replica* find_peer(const Replica& r) const;
  void begin_recovery(Replica& r);
  void start_catchup_round(Replica& r);
  void apply_catchup(Replica& r);
  void finish_recovery(Replica& r);
  void step_recovery(Replica& r);
  void take_checkpoint(Replica& r);
  void run_scrub();
  void quarantine(Replica& r);
  void sync_metrics();
  double storage_stall(NodeId node) const;

  ReplicaSetConfig config_;
  DomainProvider domain_provider_;
  CheckpointStore store_;
  std::vector<Replica> replicas_;
  /// Global committed history; entry i is version i+1.
  std::vector<std::pair<AnalyticalQuery, double>> history_;
  std::uint64_t committed_version_ = 0;
  double now_ms_ = 0.0;
  double next_scrub_ms_ = 0.0;
  StorageFaultModel* storage_ = nullptr;
  RecoveryStats stats_;
  RecoveryDelta pending_delta_;
  std::vector<RecoveryEvent> events_;

  obs::Tracer* tracer_ = nullptr;
  struct RecoveryMetrics {
    obs::Counter* crashes = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* replayed_updates = nullptr;
    obs::Counter* anti_entropy_rounds = nullptr;
    obs::Counter* anti_entropy_updates = nullptr;
    obs::Counter* anti_entropy_bytes = nullptr;
    obs::Counter* full_state_transfers = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* checkpoint_bytes = nullptr;
    obs::Gauge* modelled_checkpoint_ms = nullptr;
    obs::Gauge* modelled_recovery_ms = nullptr;
    obs::Gauge* max_recovery_ms = nullptr;
    obs::Histogram* recovery_ms = nullptr;
    // storage.* (frame verification + write-fault mirror of store stats)
    obs::Counter* corrupt_frames = nullptr;
    obs::Counter* checkpoint_fallbacks = nullptr;
    obs::Counter* tainted_loads = nullptr;
    obs::Counter* torn_writes = nullptr;
    obs::Counter* bit_flips = nullptr;
    obs::Counter* lost_flushes = nullptr;
    obs::Counter* stalled_writes = nullptr;
    obs::Counter* frames_written = nullptr;
    // scrub.*
    obs::Counter* scrub_passes = nullptr;
    obs::Counter* scrub_checks = nullptr;
    obs::Counter* scrub_clean = nullptr;
    obs::Counter* scrub_divergent = nullptr;
    obs::Counter* scrub_repairs = nullptr;
    obs::Counter* scrub_durable_repairs = nullptr;
    obs::Counter* scrub_referee_replays = nullptr;
    obs::Gauge* modelled_scrub_ms = nullptr;
  };
  RecoveryMetrics m_;
  RecoveryStats mirrored_;
  CheckpointStoreStats mirrored_store_;
};

}  // namespace sea::recovery
