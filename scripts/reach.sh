#!/usr/bin/env bash
# Reach: lists every src/ function that none of the runtime surfaces
# executes — the 20 E-benches (with their --trace-out export where they
# have one), the 5 examples and one 1 s serving_bench episode per
# perfbench workload — and fails when one is not on the allowlist below
# (DESIGN.md, "Kept on purpose", gives each group its reason).
#
# Builds with -O1 --coverage (the -O0 coverage preset is too slow for the
# 1M-row perfbench workloads) into build-reach/: main/ for the benches and
# examples, perfbench/ for the stand-alone serving harness. gcov's JSON
# output is merged per source file across every translation unit and both
# builds; a function counts as reached when its entry count or any line in
# its span ran anywhere. Functions that no translation unit emits (unused
# inline or template code) never reach gcov, so the list is a lower bound.
#
# Usage: scripts/reach.sh  (from anywhere; no arguments)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
out=build-reach
cov_flags=(
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
  "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O1 -g -DNDEBUG"
  -DCMAKE_CXX_FLAGS=--coverage
  -DCMAKE_EXE_LINKER_FLAGS=--coverage
)

benches=()
for f in bench/bench_e*.cpp; do benches+=("$(basename "${f}" .cpp)"); done
examples=()
for f in examples/*.cpp; do examples+=("$(basename "${f}" .cpp)"); done

echo "=== [reach] build (-O1 --coverage) ==="
# A clean build: gcov reads every .gcno it finds, and the notes (and
# objects) of a deleted source would list its functions as unreached.
rm -rf "${out}"
cmake -S . -B "${out}/main" "${cov_flags[@]}" > /dev/null
cmake --build "${out}/main" -j "${jobs}" \
  --target "${benches[@]}" "${examples[@]}"
cmake -S perfbench -B "${out}/perfbench" "${cov_flags[@]}" > /dev/null
cmake --build "${out}/perfbench" -j "${jobs}" --target serving_bench

mkdir -p "${out}/run"

echo "=== [reach] E-benches and examples ==="
for name in "${benches[@]}"; do
  echo "--- ${name}"
  # Benches with a --trace-out hook also export their observed storm point.
  args=()
  if grep -q -- '--trace-out' "bench/${name}.cpp"; then
    args=("--trace-out=trace-${name}.json")
  fi
  (cd "${out}/run" && "../main/bench/${name}" "${args[@]}" > /dev/null)
done
for name in "${examples[@]}"; do
  echo "--- ${name}"
  (cd "${out}/run" && "../main/examples/${name}" > /dev/null)
done

# serving_bench exits 1 when its harness share passes 1% of the window,
# which an instrumented build may do; its coverage counts either way.
echo "=== [reach] serving_bench, one 1 s episode per workload ==="
for workload in dashboard_1m ingest_1m explore_100k; do
  status=0
  (cd "${out}/run" && "../perfbench/serving_bench" --workload "${workload}" \
    --seed 1 --seconds 1 --trace 0 > /dev/null 2>&1) || status=$?
  echo "--- serving_bench ${workload}: exit ${status}"
done

echo "=== [reach] src/ functions never executed ==="
# One pattern per line: <src path> <fnmatch glob over gcov's demangled name>.
# Each group's reason is in DESIGN.md, "Kept on purpose".
python3 - "${out}" <<'PY'
import fnmatch, json, os, subprocess, sys

ALLOWLIST = """
# Access-path shapes (radius and kNN probes over the grids and k-d tree).
src/index/grid.cpp          sea::GridIndex::range_query(*
src/index/grid.cpp          sea::GridIndex::radius_query(*
src/index/grid.h            *sea::GridIndex::visit_radius<*
src/index/grid.cpp          sea::GridIndex::knn(*
src/index/learned.cpp       sea::LearnedCdf::inverse(*
src/index/kdtree.cpp        sea::KdTree::radius_query(*
src/index/kdtree.cpp        sea::KdTree::KdTree(unsigned long, std::vector<*
src/index/kdtree.cpp        sea::(anonymous namespace)::row_major(*
# Worker placement that bench_micro --perf-smoke records.
src/common/parallel.cpp     sea::worker_cpus(*
# Chaos-seed replay.
src/recovery/chaos.cpp      sea::recovery::parse_chaos_token(*
src/recovery/chaos.cpp      sea::recovery::chaos_schedule_from_env(*
src/recovery/chaos.cpp      sea::recovery::ChaosSchedule::dump_json*
src/recovery/chaos.cpp      sea::recovery::(anonymous namespace)::Json*
src/recovery/chaos.cpp      sea::recovery::(anonymous namespace)::json_need(*
# Hedged RPCs: no experiment arms HedgeConfig.
src/exec/coordinator.h      sea::CohortSession::hedge_threshold_ms(*
src/exec/coordinator.h      *sea::CohortSession::attempt_once<*
# Fault and topology controls that only the tests' scenarios drive.
src/cluster/cluster.cpp     sea::Cluster::drop_table(*
src/fault/fault.cpp         sea::FaultInjector::reset(*
src/fault/fault.cpp         sea::FaultInjector::partition_active(*
src/geo/geo_system.cpp      sea::GeoSystem::set_observability(*
src/geo/geo_system.cpp      sea::GeoSystem::set_wan_partitioned(*
src/geo/geo_system.cpp      sea::GeoSystem::crash_edge(*
src/geo/geo_system.cpp      sea::GeoSystem::restart_edge(*
src/membership/lease.cpp    sea::LeaseDirectory::add_transfer_listener(*
src/membership/lease.cpp    sea::LeaseDirectory::remove_transfer_listener(*
src/placement/authority.cpp sea::placement::RingPlacementAuthority::add_node(*
src/placement/authority.cpp sea::placement::RingPlacementAuthority::remove_node(*
src/placement/authority.cpp sea::placement::RingPlacementAuthority::clear_override(*
src/placement/ring.cpp      sea::placement::HashRing::remove_node(*
src/placement/migration.cpp sea::placement::MigrationCoordinator::request_merge(*
src/placement/rebalancer.cpp sea::placement::Rebalancer::plan(unsigned long)::{lambda(unsigned long, unsigned long)#2}*
src/placement/shard_space.cpp sea::placement::ShardSpace::merge(*
src/recovery/checkpoint.cpp sea::recovery::CheckpointStore::set_checkpoint_retention(*
src/recovery/replica.cpp    sea::recovery::ModelReplicaSet::set_isolated(*
src/recovery/replica.cpp    sea::recovery::ModelReplicaSet::request_catchup(*
src/recovery/replica.cpp    sea::recovery::ModelReplicaSet::scrub_now(*
# Inspection the tests assert invariants through.
src/cluster/cluster.cpp     sea::Cluster::partition_version(*
src/membership/lease.cpp    sea::LeaseDirectory::lease_holder(*
src/membership/lease.cpp    sea::LeaseDirectory::check_serve(*
src/membership/lease.cpp    sea::LeaseDirectory::preferred_holder(*
src/membership/lease.cpp    sea::LeaseFence::shard_of(*
src/membership/lease.cpp    sea::LeaseFence::check(*
src/placement/authority.cpp sea::placement::RingPlacementAuthority::primary_override(*
src/placement/ring.cpp      sea::placement::HashRing::holder(unsigned long, unsigned long)*
src/placement/ring.h        sea::placement::HashRing::contains(*
src/placement/shard_space.cpp sea::placement::ShardSpace::shard_of(*
src/recovery/checkpoint.cpp sea::recovery::CheckpointStore::checkpoint(*
src/recovery/checkpoint.cpp sea::recovery::CheckpointStore::wal(*
src/recovery/checkpoint.cpp sea::recovery::CheckpointStore::retained_checkpoints(*
src/recovery/digest.cpp     sea::recovery::digest_diff_pages(*
src/recovery/frame.cpp      sea::recovery::crc32(*
src/recovery/replica.cpp    sea::recovery::ModelReplicaSet::isolated(*
src/recovery/replica.cpp    sea::recovery::ModelReplicaSet::quarantined(*
src/recovery/replica.cpp    sea::recovery::ModelReplicaSet::replica_tainted(*
src/obs/metrics.cpp         sea::obs::MetricsRegistry::reset(*
src/obs/metrics.cpp         sea::obs::MetricsRegistry::snapshot_json*
src/obs/trace.cpp           sea::obs::Tracer::reset(*
src/obs/trace.cpp           sea::obs::Tracer::dump_json*
src/fault/fault.cpp         sea::(anonymous namespace)::window_string(*
src/placement/migration.cpp sea::placement::to_string(sea::placement::MigrationPhase)*
src/recovery/frame.cpp      sea::recovery::to_string(sea::recovery::FrameStatus)*
src/sea/query.cpp           sea::AnalyticalQuery::describe*
src/raw/raw_store.cpp       sea::RawStore::column_name*
# Library API only the tests call (not yet pruned).
src/common/stats.cpp        sea::RunningStats::merge(*
src/common/stats.cpp        sea::RunningStats::variance(*
src/common/stats.cpp        sea::RunningStats::stddev(*
src/common/stats.cpp        sea::RunningCovariance::correlation(*
src/data/point.h            sea::Ball::bounding_box(*
src/data/table.cpp          sea::Schema::index_of(*
src/data/table.cpp          sea::Schema::has_column(*
src/data/table.cpp          sea::Schema::add_column(*
src/data/table.cpp          sea::Table::append_column(*
src/data/table.cpp          sea::Table::row(*
src/index/histogram.cpp     sea::ProductHistogram::ProductHistogram(std::span<*
src/index/histogram.cpp     sea::ProductHistogram::byte_size(*
src/index/score_index.cpp   sea::ScoreIndex::best_score_for_key(*
src/ml/kmeans.cpp           sea::OnlineQuantizer::nearest_distance(*
src/ml/knn_model.cpp        sea::KnnRegressor::pop_front(*
src/ml/linear.cpp           sea::LinearModel::fit(std::span<std::vector<*
src/ops/adhoc_ml.cpp        sea::AdhocMlEngine::regression(*
src/ops/imputation.cpp      sea::apply_imputation(*
src/sea/agent.cpp           sea::DatalessAgent::predict_unchecked(*
"""
allow = [line.split(None, 1) for line in ALLOWLIST.strip().splitlines()
         if not line.startswith("#")]

src = os.path.realpath("src") + os.sep
gcnos = sorted(os.path.join(d, f)
               for d, _, fs in os.walk(os.path.abspath(sys.argv[1]))
               for f in fs if f.endswith(".gcno"))
# path -> {line: count}, and path -> {(name, start, end): entry count}
lines, funcs = {}, {}
for i in range(0, len(gcnos), 64):
    res = subprocess.run(["gcov", "--json-format", "--stdout"]
                         + gcnos[i:i + 64], check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    for doc in filter(str.strip, res.stdout.splitlines()):
        unit = json.loads(doc)
        cwd = unit.get("current_working_directory", "")
        for f in unit["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = "src/" + path[len(src):]
            lc = lines.setdefault(rel, {})
            for ln in f["lines"]:
                n = ln["line_number"]
                lc[n] = lc.get(n, 0) + ln["count"]
            fc = funcs.setdefault(rel, {})
            for fn in f["functions"]:
                key = (fn["demangled_name"], fn["start_line"], fn["end_line"])
                fc[key] = fc.get(key, 0) + fn["execution_count"]

unreached = []
for rel, fc in funcs.items():
    lc = lines[rel]
    for (name, start, end), count in fc.items():
        if count == 0 and not any(lc.get(n) for n in range(start, end + 1)):
            unreached.append((rel, start, name))

bad, used = 0, set()
for rel, start, name in sorted(set(unreached)):
    hit = [i for i, (p, g) in enumerate(allow)
           if p == rel and fnmatch.fnmatchcase(name, g)]
    used.update(hit)
    bad += not hit
    print(f"  {'allowed' if hit else 'NOT ALLOWED':11s} {rel}:{start} {name}")
for i, (p, g) in enumerate(allow):
    if i not in used:
        print(f"  note: allowlist entry matched nothing: {p} {g}")
print(f"{len(set(unreached))} unreached src/ functions, {bad} not allowlisted"
      f" ({len(funcs)} source files)")
sys.exit(1 if bad else 0)
PY
