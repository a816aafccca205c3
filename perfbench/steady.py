#!/usr/bin/env python3
"""Steadiness record of the serving benchmark.

Runs run.py once per seed on each workload and records, for every
end-to-end metric, the ten (or --runs) values, their median and quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median, next to the bound BENCHMARK.json allows:

    python3 perfbench/steady.py --runs 10 --first-seed 1 \
        --out perfbench/steadiness.json [--workloads dashboard_1m,...]

Results for workloads already in --out are replaced; others are kept.
Exits 1 when a run fails or a spread (setup_s excepted) exceeds its bound.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--out", default=os.path.join(run.HERE,
                                                  "steadiness.json"))
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    if os.path.isfile(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record.update({"host": f"{platform.machine()}, {os.cpu_count()} vCPU",
                   "seconds": seconds})
    ok = True
    for w in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = {}
        for seed in seeds:
            metrics = run_once(w, seed, seconds)["metrics"]
            for name, m in metrics.items():
                runs.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in metrics.items()),
                flush=True)
        summary = {n: summarize(v, bounds[n]) for n, v in runs.items()}
        for n, s in summary.items():
            flag = "ok" if n == "setup_s" or s["spread"] <= s["bound"] \
                else "OVER BOUND"
            ok &= flag == "ok"
            print(f"  {w:13s} {n:22s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag}")
        record.setdefault("workloads", {})[w] = {
            "seeds": seeds, "runs": runs, "summary": summary}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
