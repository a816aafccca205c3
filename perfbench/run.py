#!/usr/bin/env python3
"""End-to-end serving benchmark runner.

Builds perfbench/serving_bench from the repository sources, runs one
workload (or all of them), gates on correctness and prints every metric as
a `name value unit` line, then one JSON result object as the last line:

    python3 perfbench/run.py --workload dashboard_1m --seed 1 --seconds 25 \
        --trace 0

`--workload all` runs every workload in turn. `--trace 0` reports the
end-to-end metrics from untraced runs; `--trace 1` reports the per-layer
metrics from a traced run and writes its wall-clock spans under
.bench_build/out/. Run from the repository root or anywhere else; all
outputs stay under <repo>/.bench_build/.

The run fails (non-zero exit, no result) when the build fails, when the
program's own checks fail (oracle mismatch, broken query conservation,
nondeterministic answers, harness cost above 1%), or when a run's answer
digest or deterministic metrics differ from an earlier run of the same
build, workload, seed and query count in this checkout.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "serving_bench")
DIGESTS = os.path.join(BUILD_ROOT, "digests.json")
WORKLOADS = ["dashboard_1m", "ingest_1m", "explore_100k"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness (incremental after the first)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "serving_bench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the program's JSON report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: serving_bench exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def binary_id():
    """Content hash of the built program: digests are compared only
    between runs of the same build."""
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_repeatable(report):
    """Compares the answer digest (and, untraced, the deterministic metrics)
    with the first run of the same build, workload, seed, query count and
    mode in this checkout."""
    key = (f"{binary_id()}:{report['workload']}:{report['seed']}:"
           f"{report['queries']}:trace{report['trace']}")
    record = {"digest": report["digest"]}
    if "deterministic" in report:
        record["deterministic"] = report["deterministic"]
    store = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            store = json.load(f)
    seen = store.get(key)
    if seen is not None:
        if seen["digest"] != record["digest"]:
            raise RuntimeError(f"{key}: answer digest {record['digest']} "
                               f"differs from earlier {seen['digest']}")
        if "deterministic" in seen and "deterministic" in record and \
                seen["deterministic"] != record["deterministic"]:
            raise RuntimeError(f"{key}: deterministic metrics differ from "
                               f"an earlier run")
        for k, v in record.items():
            seen.setdefault(k, v)
    else:
        store[key] = record
    os.makedirs(BUILD_ROOT, exist_ok=True)
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None = all)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        reports = []
        for w in names:
            report = run_binary(w, args.seed, args.seconds, args.trace)
            check_repeatable(report)
            reports.append(report)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 1

    wanted = declared_metrics(args.trace)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for name, m in report["metrics"].items():
            print(f"{prefix}{name} {m['value']:.6g} {m['unit']}")
            if wanted is None or name in wanted:
                result["metrics"][prefix + name] = m
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
    missing = [n for n in wanted or [] if len(reports) == 1
               and n not in result["metrics"]]
    if missing:
        log(f"perfbench: metrics not reported: {missing}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
