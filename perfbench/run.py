#!/usr/bin/env python3
"""Run one liouvillelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload round --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload runs in its own process with one BLAS thread.  A run performs a
fixed number of ops sized from ``--seconds`` (see ``Workload.op_seconds``),
each followed by its output check, and sets the workload up ``SETUPS`` times
among them (``setup_s`` is the median).  Inputs come only from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the same
work untraced and then traced, prints the per-layer metrics, and writes the
spans to ``perfbench/out/``.  ``--smoke`` shrinks every workload to level 3
for the benchmark's own tests.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: one single-threaded process per
# workload, no pool and no extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 5


def _import_library():
    if not (SRC / "liouvillelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no liouvillelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import liouvillelab

    if Path(liouvillelab.__file__).resolve().parent != SRC / "liouvillelab":
        sys.exit(f"perfbench: liouvillelab imported from {liouvillelab.__file__}, not {SRC}")
    return liouvillelab


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_pass(workload, seeds, lab_error, tracer=None):
    """Run and check one op per seed, with ``SETUPS`` set-ups among the ops.

    The host's speed swings by a quarter within seconds, so set-ups done back
    to back can all land in one swing.  Spread over the ops, they sample the
    swings as the ops do: set-up ``j`` runs before op ``j * len(seeds) //
    SETUPS``.
    """
    clock = time.perf_counter
    before = Counter(j * len(seeds) // SETUPS for j in range(SETUPS))
    setups, state = [], None
    op_times, problems, notes, failed = [], [], [], 0
    for k, seed in enumerate(seeds):
        for _ in range(before[k]):
            state = None
            gc.collect()
            start = clock()
            state = workload.setup()
            setups.append(clock() - start)
        inp = workload.make_input(state, seed)
        start = clock()
        try:
            found, note = workload.check(state, inp, workload.op(state, inp))
        except lab_error as exc:
            found = [f"{type(exc).__name__}: {exc}"]
            note = "raised"
        end = clock()
        op_times.append(end - start)
        if tracer is not None:
            tracer.op_windows.append((start, end))
        problems.extend(f"op {k}: {p}" for p in found)
        notes.append(f"op {k} {'FAILED' if found else 'passed'}: {note}")
        failed += bool(found)
    setup_s = statistics.median(setups)
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + sum(op_times),
        "ops_per_s": len(seeds) / sum(op_times),
        "op_p50_s": statistics.median(op_times),
        "ops": len(seeds),
        "failed": failed,
        "problems": problems,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lab = _import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, op_seed

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    refs = json.loads((HERE / "references.json").read_text())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload](refs, args.smoke)
    n_ops = workload.ops_for(args.seconds)
    seeds = [op_seed(args.seed, k) for k in range(n_ops)]

    env = environment()
    print(f"perfbench {args.workload}: level {workload.level}, seed {args.seed}, "
          f"{n_ops} ops, {SETUPS} set-ups, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    first = run_pass(workload, seeds, lab.LabError)
    passes = [first]
    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            origin = time.perf_counter()
            traced = run_pass(workload, seeds, lab.LabError, tracer)
        passes.append(traced)
        overhead = traced["wall_s"] - first["wall_s"]
        values = tracer.metrics(overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.csv"
        tracer.write_spans(spans_path, origin)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(HERE.parent)}")
    else:
        values = {k: first[k] for k in ("setup_s", "wall_s", "ops_per_s", "op_p50_s")}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if set(values) != set(units):
        sys.exit(f"perfbench: measured metrics {sorted(set(values) ^ set(units))} "
                 "disagree with BENCHMARK.json")

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        print("\n".join(p["notes"]))
        for problem in p["problems"]:
            print(f"CHECK FAILED {problem}")
    print(f"checks: {attempted - failed}/{attempted} ops passed, "
          f"failed_frac {failed / attempted:.6g} (ratio); no tail percentile "
          f"is reported, fewer than ten samples lie beyond any")
    for name, unit in units.items():
        kind = "  (exact count, not a speed-up)" if unit == "count" else ""
        print(f"  {name:42s} {values[name]:>16.6f} {unit}{kind}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
