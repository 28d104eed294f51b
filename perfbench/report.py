#!/usr/bin/env python3
"""Run workloads over several seeds, one fresh process per run, and summarize.

    python3 perfbench/report.py --seeds 1-10 --trace 0
    python3 perfbench/report.py --workloads round --seeds 3,3 --trace 1

Runs execute one after another from the repository root, each measuring
``run_seconds`` from ``BENCHMARK.json``.  With ``--trace 0`` it prints, per
workload and end-to-end metric, the median, the quartiles and the quartile
spread as a share of the median, next to the metric's bound from
``BENCHMARK.json``; a spread above the bound is marked unresolved.  With
``--trace 1`` it prints the median of every per-layer metric, checks that
count metrics repeat exactly across runs of the same seed, and ranks layer
groups by their share of the self time under each top-level span.  Raw
results are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("CHECK FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    result = json.loads(lines[-1])
    result["seed"], result["process_s"] = seed, elapsed
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def layer_group(span: str) -> str:
    # The groups the workload table names: sparse calls and geodesics alone.
    if span.startswith("sparse.") or span == "mesh.geodesic":
        return span
    return span.split(".", 1)[0]


def summarize_e2e(workload, runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{workload}: {len(runs)} runs, attempted {sum(r['attempted'] for r in runs)}, "
          f"failed {sum(r['failed'] for r in runs)}, all correct {all(r['correct'] for r in runs)}, "
          f"process time median {statistics.median(r['process_s'] for r in runs):.1f} s")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, rel = spread(values)
        flag = "" if rel <= bound / 3 else ("  > bound/3" if rel <= bound else "  unresolved")
        print(f"  {name:14s} median {median:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
              f"spread {rel:7.4f}  bound {bound:.2f}{flag}  {runs[0]['metrics'][name]['unit']}")


def summarize_trace(workload, runs):
    print(f"{workload}: {len(runs)} traced runs, all correct {all(r['correct'] for r in runs)}")
    by_seed = defaultdict(list)
    for r in runs:
        by_seed[r["seed"]].append(r)
    metrics = runs[0]["metrics"]
    counts = [n for n, m in metrics.items() if m["unit"] == "count"]
    for seed, group in sorted(by_seed.items()):
        if len(group) > 1:
            differ = [n for n in counts if len({g["metrics"][n]["value"] for g in group}) > 1]
            print(f"  seed {seed}: {len(group)} runs, counts identical: {not differ} {differ or ''}")
    for name, m in metrics.items():
        median = statistics.median(r["metrics"][name]["value"] for r in runs)
        if median:
            print(f"  {name:42s} {median:16.6f} {m['unit']}")
    # A paired workload runs two engines; rank self time under each
    # top-level span of the last run, so each engine's main layer shows.
    spans = HERE / "out" / f"spans_{workload}_seed{runs[-1]['seed']}.csv"
    for top, shares in part_shares(spans).items():
        total = sum(shares.values())
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print(f"  self-time share under {top} ({total:.2f} s): " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in ranked if v / total >= 0.005))


def part_shares(path):
    """Self seconds by layer group under each top-level span name."""
    parts, pending = defaultdict(lambda: defaultdict(float)), []
    with open(path, newline="") as fh:
        # A span is written when it ends, so the spans written since the
        # previous top-level one are the descendants of the next.
        for row in csv.DictReader(fh):
            pending.append((row["name"], float(row["self_s"])))
            if row["depth"] == "0":
                for name, self_s in pending:
                    parts[row["name"]][layer_group(name)] += self_s
                pending = []
    return parts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = [run_one(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        (out_dir / f"report_{workload}_trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
        if args.trace:
            summarize_trace(workload, runs)
        else:
            summarize_e2e(workload, runs, spec)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
