#!/usr/bin/env bash
# CI: configure, build, and test under five presets —
#   default   tier1 suite, RelWithDebInfo
#   asan      tier1 suite under ASan+UBSan (reports fatal)
#   ubsan     tier1 + tier2 under UBSan alone: fast enough for the stress
#             runs (incl. the chaos soak) that ASan's overhead prices out
#   tsan      tier1 + tier2 (saturated-pool stress) under TSan
#   coverage  tier1 suite instrumented with gcov; prints per-directory
#             line coverage for src/ and fails if src/obs, src/recovery,
#             src/membership, src/placement, src/fault, src/common, or
#             src/index drops below 90%
#   reach     scripts/reach.sh: an -O1 --coverage build runs the 20
#             E-benches, the 5 examples and one serving_bench episode per
#             perfbench workload, and fails if a src/ function that none
#             of them executes is missing from its allowlist
# plus a perf-smoke stage after the default preset: bench_micro
# --perf-smoke gates the parallel primitives against naive serial
# references (relative, host-speed-independent) and writes
# BENCH_micro.json; then the serving-benchmark self-test
# (perfbench/selftest.py) checks serve_batch answer digests agree at
# SEA_THREADS 1/1/2 and traced
# Usage: scripts/ci.sh  (from anywhere; no arguments)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_preset() {
  local preset="$1" labels="${2:-tier1}"
  echo "=== [${preset}] configure ==="
  cmake --preset "${preset}"
  echo "=== [${preset}] build ==="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "=== [${preset}] tests (${labels}) ==="
  ctest --preset "${preset}" -L "${labels}" -j "${jobs}" --output-on-failure
}

run_preset default

# Perf smoke: the parallel-primitives sweep at SEA_THREADS=2 (bench_micro
# --perf-smoke) gates on answers matching naive serial references and on
# thread monotonicity (2-thread wall <= 1.5x 1-thread wall), including
# kd_build_shards (the eight dashboard_1m partitions built by one
# build_kdtrees call: byte-equal slot_ids at 1 and 2 threads), the
# kd_build_vs_sort gate (that build at 1 thread <= 1.5x a std::sort of the
# same (key, id) pairs), the kd_select gate (one build's median selects on a
# 125k-record partition: byte-equal to std::nth_element and >= 1.5x faster),
# and the fused k-d probes on byte-equal answers and their speedup over
# id-materializing probes, and the MapReduce map tasks of explore_100k's three
# query shapes (mr_map_range_count, mr_map_radius_avg, mr_map_knn_sum gated
# on byte-equal states and >= 7.5x / 2.5x / 2.5x speedup over a branchy row
# loop), and one per-quantum GBM fit at 63 and 512 rows (gbm_fit_63,
# gbm_fit_512: bit-equal predictions to bench/gbm_reference.h's per-node
# sort and rescan, and >= 3x / >= 4x faster) — relative checks, never
# absolute ms thresholds, so the stage is stable on any host. Writes BENCH_micro.json as the machine-readable perf
# record.
echo "=== [default] perf-smoke (bench_micro --perf-smoke) ==="
cmake --build --preset default -j "${jobs}" --target bench_micro
(cd build && ./bench/bench_micro --perf-smoke)

# Serving determinism end to end: one short episode of every perfbench
# workload, twice at SEA_THREADS=1, once at 2 and once traced — answer
# digests and deterministic metrics must agree. Builds its own harness
# into .bench_build/.
echo "=== [default] serving self-test (perfbench/selftest.py) ==="
python3 perfbench/selftest.py

# ASan aborts the process on its first report; UBSan prints and continues
# unless halt_on_error is set — force both fatal so ctest sees a failure.
# tier1 includes test_integrity's 100-seed storage-corruption sweep, so
# every seeded torn-write/bit-flip/lost-flush schedule replays under both
# sanitizers here (and again threaded, via tier2, under ubsan/tsan below).
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:${UBSAN_OPTIONS:-}"
run_preset asan

# UBSan alone is cheap enough to cover the tier2 stress runs (the recovery
# chaos soak included) that would be too slow under ASan's shadow memory.
run_preset ubsan 'tier1|tier2'

# TSan gets the tier2 stress runs too: they re-run the fault soak, the
# parallel-determinism suite, and the golden-trace storm with a saturated
# pool (SEA_THREADS=8), which is where data races would actually surface.
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
run_preset tsan 'tier1|tier2'

# Coverage: the tier1 run fills .gcda files; gcov -n reports per-file line
# coverage which we aggregate per src/ directory. A file seen from several
# translation units (headers) keeps its best-covered instance.
run_preset coverage

echo "=== [coverage] per-directory line coverage (src/) ==="
cov_rows="$(find build-coverage -name '*.gcda' -print0 \
  | xargs -0 gcov -n 2>/dev/null \
  | awk '
      /^File / {
        f = $0
        sub(/^File '\''/, "", f); sub(/'\''$/, "", f)
        file = f; next
      }
      /^Lines executed:/ {
        if (file == "") next
        s = $0; sub(/^Lines executed:/, "", s)
        n = split(s, p, /% of /)
        if (n == 2) {
          covered = (p[1] / 100.0) * p[2]
          if (!(file in best_tot) || covered > best_cov[file]) {
            best_cov[file] = covered; best_tot[file] = p[2]
          }
        }
        file = ""; next
      }
      END {
        for (f in best_tot) {
          if (f !~ /\/src\// && f !~ /^src\//) continue
          d = f
          sub(/^.*\/src\//, "src/", d)
          sub(/\/[^\/]*$/, "", d)
          dir_cov[d] += best_cov[f]; dir_tot[d] += best_tot[f]
        }
        for (d in dir_tot) {
          pct = dir_tot[d] > 0 ? 100.0 * dir_cov[d] / dir_tot[d] : 0.0
          printf "%s %d %.1f\n", d, dir_tot[d], pct
        }
      }')"
if [ -z "${cov_rows}" ]; then
  echo "FAIL: no gcov data found under build-coverage/"
  exit 1
fi
echo "${cov_rows}" | sort | awk '{printf "  %-16s %6d lines  %5.1f%%\n", $1, $2, $3}'
# Gated directories: each must hold the 90% line-coverage floor.
for gated in src/obs src/recovery src/membership src/placement src/fault src/common src/index; do
  pct="$(echo "${cov_rows}" | awk -v d="${gated}" '$1 == d {print $3}')"
  if [ -z "${pct}" ]; then
    echo "FAIL: no coverage data for ${gated}"
    exit 1
  fi
  if awk "BEGIN { exit !(${pct} < 90.0) }"; then
    echo "FAIL: ${gated} line coverage ${pct}% is below the 90% floor"
    exit 1
  fi
  echo "coverage gate: ${gated} at ${pct}% (floor 90%)"
done

# Reach: code that no experiment, example or serving path executes is
# either deleted or allowlisted with a reason (DESIGN.md, "Kept on
# purpose").
scripts/reach.sh

echo "CI: default, asan, ubsan, tsan, coverage, and reach stages all passed."
