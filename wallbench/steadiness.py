#!/usr/bin/env python3
"""Steadiness of the benchmark: two interleaved sets of runs of one build.

Runs every workload ten times per set, set A and set B alternating run by
run, with seeds 1..10 in each set and the run length of BENCHMARK.json.
Prints, as a Markdown table per workload and end-to-end metric, each set's
median and quartiles, the spread (interquartile distance over the median)
and how much worse set B's median is than set A's. A metric passes when
both spreads and the shift are within its bound from BENCHMARK.json; a
workload passes when the share of failed operations is the same in every
run. Exits 0 only when everything passes.

    python3 wallbench/steadiness.py [--workloads kv,join]

Run it from the repository root. It builds the benchmark once with cargo
(honouring CARGO_TARGET_DIR) and then runs the binary directly.
`--workloads` limits the runs to some workloads, to re-check them alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SEEDS = range(1, RUNS + 1)
SETS = "AB"


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "wallbench/Cargo.toml"],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", "wallbench/target")
    return os.path.join(target, "release", "wallbench")


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=180,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def fmt(x):
    if abs(x) >= 1e5:
        return f"{x:,.0f}"
    if abs(x) >= 100:
        return f"{x:,.1f}"
    if abs(x) >= 1:
        return f"{x:.3f}"
    return f"{x:.4g}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    binary = build()

    results = {(w, s): [] for w in workloads for s in SETS}
    for i, seed in enumerate(SEEDS):
        for w in workloads:
            for s in SETS:
                r = run(binary, w, seed, seconds)
                results[(w, s)].append(r)
                print(f"run {i + 1}/{RUNS} {w} set {s} seed {seed}: "
                      f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)

    ok = True
    print(f"{RUNS} runs of {seconds} s per set and workload, seeds {SEEDS[0]}-{SEEDS[-1]}\n")
    print("| workload | metric | set A median [q1, q3] | spread A | set B median [q1, q3] "
          "| spread B | B worse than A by | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, meds, verdict = [], [], []
            for s in SETS:
                vals = [r["metrics"][name]["value"] for r in results[(w, s)]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] | {spread:.1%}")
                if spread > bound:
                    verdict.append(f"spread {s}")
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (meds[1] - meds[0]) / meds[0]
            if worse > bound:
                verdict.append("shift")
            ok &= not verdict
            print(f"| {w} | `{name}` | {cells[0]} | {cells[1]} | {worse:+.1%} | {bound} "
                  f"| {', '.join(verdict) or 'ok'} |")
    print()
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in SETS for r in results[(w, s)]}
        ok &= len(shares) == 1
        print(f"{w}: failed share {sorted(shares)} {'ok' if len(shares) == 1 else 'DIFFERS'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
