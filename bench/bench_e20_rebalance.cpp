// E20: elastic shard placement — closed-loop rebalancing under chaos
// (ISSUE PR10 tentpole; paper P4 elasticity/adaptivity of the serving
// tier).
//
// The elastic serving simulation (queries hash to quanta, quanta map to
// shards through the live ShardSpace, shards live where the ring +
// migration overrides say) rides out seeded chaos schedules — a crash, a
// flap, a grey node, a partition window, background message drops,
// storage faults on the crash node, corrupt migration frames — while one
// knob sweeps: the offered-load spike multiplier. Each point runs twice
// on the *same* schedule: rebalancer off (placement frozen at the seed's
// deal) and on (splits and moves planned from backlog pressure, throttled
// by the migration window budget; the rebalancer's calm-period merge
// branch commits no merge in any row, so merges_committed stays 0). The
// sweep reports the trade the rebalancer buys: fewer shed queries and
// more owner serves at every spike, paid for with a bounded number of epoch-fenced live migrations —
// while both arms keep the safety invariants (0 lost queries, 0
// dual-serves, 0 stale-epoch serves) by construction. There is no latency
// column: the shedder caps every holder's backlog at shed_backlog_ms, so
// a serve-latency quantile reads that cap in every row; the shed column
// is where the arms differ. A same-seed double run checks the determinism
// contract, and the sweep lands in BENCH_e20.json. The chaos seed honors
// SEA_CHAOS_SEED.
#include <cstdint>
#include <string>

#include "bench_util.h"
#include "fault/fault.h"
#include "membership/lease.h"
#include "membership/swim.h"
#include "placement/authority.h"
#include "placement/migration.h"
#include "placement/rebalancer.h"
#include "placement/shard_space.h"
#include "placement/sim.h"
#include "recovery/chaos.h"

namespace sea::bench {
namespace {

using namespace sea::placement;

constexpr std::size_t kNodes = 8;
constexpr std::uint64_t kHorizon = 420;
constexpr std::size_t kQuanta = 64;
constexpr std::size_t kInitialShards = 8;
constexpr std::size_t kMaxShards = 16;

struct PointResult {
  ElasticSimStats stats;
  std::uint64_t dual_serves = 0;
  MigrationStats migration;
  RebalancerStats rebalance;
};

PointResult run_point(double spike_multiplier, bool rebalance,
                      std::uint64_t seed, obs::Tracer* tracer = nullptr,
                      obs::MetricsRegistry* metrics_out = nullptr) {
  recovery::ChaosConfig cc;
  cc.seed = seed;
  cc.num_nodes = kNodes;
  cc.horizon_ticks = kHorizon;
  cc.crashes = 1;
  cc.flaps = 1;
  cc.grey_nodes = 1;
  cc.drop_probability = 0.05;
  cc.partitions = 1;
  cc.min_partition_ticks = 40;
  cc.max_partition_ticks = 100;
  cc.torn_write_probability = 0.05;
  cc.bit_flip_probability = 0.05;
  cc.migration_frame_corrupt_probability = 0.05;
  if (spike_multiplier > 1.0) {
    cc.load_spikes = 1;
    cc.min_spike_ticks = 120;
    cc.max_spike_ticks = 120;
    cc.spike_load_multiplier = spike_multiplier;
  }
  const recovery::ChaosSchedule sched = recovery::make_chaos_schedule(cc);

  Cluster cluster(kNodes, Network::single_zone(kNodes));
  FaultInjector inj(sched.plan);
  inj.attach(cluster);
  obs::MetricsRegistry local_metrics;
  obs::MetricsRegistry& metrics =
      metrics_out ? *metrics_out : local_metrics;
  GossipMembership gm(cluster);
  gm.bind_obs(tracer, &metrics);
  RingPlacementAuthority authority(kNodes);
  cluster.set_placement_authority(&authority);
  ShardSpace space(kQuanta, kInitialShards, kMaxShards);
  LeaseDirectory dir(cluster, gm, "t", kMaxShards);
  dir.bind_obs(tracer, &metrics);
  MigrationConfig mc;
  mc.frame_corrupt_probability = sched.migration_frame_corrupt_probability;
  mc.corrupt_seed = seed * 0x9e37ULL + 0x519C0ULL;
  MigrationCoordinator mig(cluster, dir, authority, space, mc);
  mig.set_storage_faults(&inj);
  mig.bind_obs(tracer, &metrics);
  RebalancerConfig rc;
  rc.period_ticks = 16;
  rc.window_ticks = 96;
  rc.migrations_per_window = 2;
  Rebalancer reb(mig, dir, space, cluster, rc);
  reb.bind_obs(&metrics);
  ElasticSimConfig sc;
  sc.workload_seed = seed ^ 0xE20ULL;

  PointResult r;
  {
    ElasticServingSim sim(cluster, inj, gm, dir, mig, space,
                          rebalance ? &reb : nullptr, &sched, sc);
    sim.bind_obs(&metrics);
    sim.run(kHorizon);
    r.stats = sim.stats();
    r.dual_serves = sim.dual_serves();
  }
  r.migration = mig.stats();
  r.rebalance = reb.stats();
  cluster.set_placement_authority(nullptr);
  inj.detach(cluster);
  return r;
}

void emit(BenchJsonWriter& json, double spike, bool rebalance,
          const PointResult& r) {
  json.begin("e20_rebalance");
  json.str("mode", rebalance ? "rebalance" : "frozen");
  json.num("spike_multiplier", spike);
  json.num("queries", r.stats.queries);
  json.num("owner_serves", r.stats.owner_serves);
  json.num("fenced_serves", r.stats.fenced_serves);
  json.num("degraded_serves", r.stats.degraded_serves);
  json.num("remap_refusals", r.stats.remap_refusals);
  json.num("shed", r.stats.shed);
  json.num("entry_down", r.stats.entry_down);
  json.num("dual_serves", r.dual_serves);
  json.num("stale_epoch_serves", r.stats.stale_epoch_serves);
  json.num("migrations_committed", r.migration.committed);
  json.num("splits_committed", r.migration.splits_committed);
  json.num("merges_committed", r.migration.merges_committed);
  json.num("fast_handoffs", r.migration.fast_handoffs);
  json.num("expiry_grants", r.migration.expiry_grants);
  json.num("migrations_aborted", r.migration.aborted);
  json.num("frames_corrupt", r.migration.frames_corrupt);
  json.num("window_throttled", r.rebalance.window_throttled);
  json.str("conserved", r.stats.conserved() ? "ok" : "VIOLATED");
}

void run(const std::string& trace_path) {
  const std::uint64_t seed = recovery::chaos_seed_from_env(0xE20);
  banner("E20: elastic placement — closed-loop rebalancing under chaos",
         "as a load spike concentrates traffic on a few hot quanta, frozen "
         "placement builds backlog on the hot holders (shed grows with the "
         "spike) while the rebalancer splits and moves the hot shards "
         "through epoch-fenced live migrations, shedding fewer queries at "
         "every spike at the cost of a budget-throttled number of "
         "migrations; both arms answer-or-account every query with zero "
         "dual-serves and zero stale-epoch serves on the same schedules");
  row("%-7s %-9s %-7s %-7s %-6s %-7s %-7s %-8s %-7s %-9s",
      "spike", "mode", "queries", "owner", "shed", "commits",
      "aborted", "dual", "stale", "conserved");
  BenchJsonWriter json;
  for (const double spike : {1.0, 2.0, 3.0, 4.0}) {
    for (const bool rebalance : {false, true}) {
      const PointResult r = run_point(spike, rebalance, seed);
      row("%-7.1f %-9s %-7llu %-7llu %-6llu %-7llu %-7llu %-8llu "
          "%-7llu %-9s",
          spike, rebalance ? "rebalance" : "frozen",
          static_cast<unsigned long long>(r.stats.queries),
          static_cast<unsigned long long>(r.stats.owner_serves),
          static_cast<unsigned long long>(r.stats.shed),
          static_cast<unsigned long long>(r.migration.committed),
          static_cast<unsigned long long>(r.migration.aborted),
          static_cast<unsigned long long>(r.dual_serves),
          static_cast<unsigned long long>(r.stats.stale_epoch_serves),
          r.stats.conserved() ? "ok" : "VIOLATED");
      if (r.dual_serves != 0)
        row("  ^^ INVARIANT VIOLATED: dual authority under migration");
      if (r.stats.stale_epoch_serves != 0)
        row("  ^^ INVARIANT VIOLATED: serve under a superseded epoch");
      emit(json, spike, rebalance, r);
    }
  }

  // Determinism contract: identical seed => identical counters.
  const PointResult a = run_point(3.0, true, seed);
  const PointResult b = run_point(3.0, true, seed);
  const bool deterministic =
      a.stats.queries == b.stats.queries &&
      a.stats.owner_serves == b.stats.owner_serves &&
      a.stats.shed == b.stats.shed &&
      a.dual_serves == b.dual_serves &&
      a.migration.committed == b.migration.committed &&
      a.migration.aborted == b.migration.aborted &&
      a.rebalance.plans == b.rebalance.plans;
  row("same-seed double run at spike=3.0: %s (owner=%llu shed=%llu "
      "commits=%llu)",
      deterministic ? "identical counters" : "MISMATCH",
      static_cast<unsigned long long>(a.stats.owner_serves),
      static_cast<unsigned long long>(a.stats.shed),
      static_cast<unsigned long long>(a.migration.committed));

  json.write_file("BENCH_e20.json");

  // --trace-out / SEA_TRACE: re-run the spike=3 rebalanced point with
  // observability attached and dump the deterministic trace+metrics JSON
  // (bit-identical across runs and SEA_THREADS settings).
  if (!trace_path.empty()) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    run_point(3.0, true, seed, &tracer, &metrics);
    write_trace_file(trace_path, tracer, metrics);
  }
}

}  // namespace
}  // namespace sea::bench

int main(int argc, char** argv) {
  sea::bench::run(sea::bench::trace_out_path(argc, argv));
  return 0;
}
