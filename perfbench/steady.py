#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Builds the benchmark once, then runs two sets of runs of that same build,
interleaved: for every round and workload one run of set A and one of set
B, alternating which goes first. Every run gets its own seed. For each
end-to-end metric it prints the median and quartiles of each set, the
spread (interquartile distance over the median) and the drift of set B's
median from set A's. The two sets agree on a metric when both spreads
and the drift, in either direction, stay within the metric's bound. The
failed-op share must match exactly. Every run lasts BENCHMARK.json's
`run_seconds`.

    python3 perfbench/steady.py                  # default seeds
    python3 perfbench/steady.py --held-out       # held-out seeds
    python3 perfbench/steady.py --runs 5         # a quicker look

Run it from the repository root. Exit code 0 means every metric agreed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Seed families: the default one, and a held-out one for checking claims
# on inputs not seen while a change was written.
DEFAULT_SEED_BASE = 1
HELD_OUT_SEED_BASE = 1_000_003


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(cmd, check=True, env=env)
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    noise = "{}"
    for line in lines[:-1]:
        if line.startswith("noise "):
            noise = line[len("noise "):]
    result = json.loads(lines[-1])
    result["noise"] = json.loads(noise)
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--held-out", action="store_true", help="use the held-out seed family")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two runs per set)")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    base = HELD_OUT_SEED_BASE if args.held_out else DEFAULT_SEED_BASE
    binary = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                seed = base + 2 * i + (0 if s == "A" else 1)
                r = run_once(binary, w, seed, seconds)
                r["seed"] = seed
                results[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"[{i + 1}/{args.runs}] {w} set {s} seed {seed}: {vals} "
                      f"noise={json.dumps(r['noise'])}", flush=True)

    ok = True
    print()
    print(f"{'workload':14} {'metric':13} {'set A median [q1, q3]':32} "
          f"{'set B median [q1, q3]':32} {'spreadA':>8} {'spreadB':>8} {'drift':>7} {'bound':>6}  verdict")
    for w in workloads:
        for s in ("A", "B"):
            if not all(r["correct"] for r in results[w][s]):
                ok = False
                print(f"{w}: set {s} has runs with failed output checks")
        shares = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in ("A", "B")}
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares['A'] | shares['B'])}")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            qa = quartiles([r["metrics"][name]["value"] for r in results[w]["A"]])
            qb = quartiles([r["metrics"][name]["value"] for r in results[w]["B"]])
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            drift = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            agree = abs(drift) <= bound and max(spread_a, spread_b) <= bound
            ok &= agree
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{w:14} {name:13} {fmt(qa):32} {fmt(qb):32} {spread_a:8.3f} {spread_b:8.3f} "
                  f"{drift:7.3f} {bound:6.2f}  {'agree' if agree else 'DISAGREE'}")
    print()
    print("all metrics agree within their bounds" if ok else "some metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
