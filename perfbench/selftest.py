#!/usr/bin/env python3
"""Determinism self-test of the serving benchmark.

Runs one shortened episode of every workload with one seed: twice at
SEA_THREADS=1, once at SEA_THREADS=2 and once traced. All runs must give
the same answer digest, and the untraced ones bit-identical deterministic
metrics (the serve_batch contract: answers and counters do not depend on
the thread count).

    python3 perfbench/selftest.py [--queries 800] [--seed 5]

Exits 0 when every workload passes, 1 otherwise.
"""
import argparse
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--queries", type=int, default=800)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    run.build()
    ok = True
    for w in run.WORKLOADS:
        short = ["--queries", str(args.queries), "--episodes", "1"]
        runs = {
            "threads=1 (a)": run.run_binary(w, args.seed, 1, 0,
                                            short + ["--threads", "1"]),
            "threads=1 (b)": run.run_binary(w, args.seed, 1, 0,
                                            short + ["--threads", "1"]),
            "threads=2": run.run_binary(w, args.seed, 1, 0,
                                        short + ["--threads", "2"]),
            "traced": run.run_binary(w, args.seed, 1, 1, short),
        }
        first = runs["threads=1 (a)"]
        for label, r in runs.items():
            same = r["digest"] == first["digest"] and \
                r.get("deterministic", first["deterministic"]) == \
                first["deterministic"]
            ok &= same
            print(f"{w:14s} {label:14s} digest {r['digest']} "
                  f"{'ok' if same else 'MISMATCH'}")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
