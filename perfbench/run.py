"""Benchmark runner for looseends: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run is a closed loop with one caller:
it starts one batch after another, each in a fresh interpreter
(``worker.py``) with a pinned ``PYTHONHASHSEED``, until the next batch would
end after ``S`` seconds (at least one batch runs).  Every batch builds its
own inputs from the seed and its index, so process-global caches start cold
in each, as in a user's check run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs each batch twice, untraced then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is the
JSON result; details, provenance and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "looseends")
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"
WORKER_TIMEOUT_S = 80


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def provenance(args):
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = got.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "pythonhashseed": HASH_SEED,
    }


def worker(args, batch, trace_stem=None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--batch", str(batch),
    ]
    if trace_stem:
        cmd += ["--trace", trace_stem]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        got = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch {batch} ran over {WORKER_TIMEOUT_S} s") from exc
    if got.returncode != 0:
        raise BenchError(f"batch {batch} exited {got.returncode}:\n{got.stderr[-2000:]}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def run_batches(args):
    """Closed loop of batches until the next one would overrun the budget."""
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        k = len(plain)
        plain.append(worker(args, k))
        if args.trace:
            stem = os.path.join(OUT, args.workload, f"batch{k}")
            traced.append(worker(args, k, trace_stem=stem))
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > args.seconds:
            break
    return plain, traced


def end_to_end(plain):
    """Medians over the run's batches.  Item latencies stay in the run
    report only; README.md says why."""
    return {
        "setup_s": statistics.median(b["setup_s"] for b in plain),
        "wall_s": statistics.median(b["wall_s"] for b in plain),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in plain),
    }


def per_layer(plain, traced, names):
    """Each ``<module>.<function>.<stat>`` is the median over traced batches;
    a stat that a function never produced (it was not called) reads 0."""
    values = {}
    for name in names:
        if name == "trace.overhead_frac":
            untraced = statistics.median(b["wall_s"] for b in plain)
            values[name] = statistics.median(b["wall_s"] for b in traced) / untraced - 1
            continue
        function, stat = name.rsplit(".", 1)
        values[name] = statistics.median(b["trace"][function].get(stat, 0) for b in traced)
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"run.py: no looseends sources under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    prov = provenance(args)
    # byte-compile once so no batch's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", PACKAGE], check=True,
                   capture_output=True)
    try:
        plain, traced = run_batches(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = per_layer(plain, traced, [m["name"] for m in spec["per_layer"]])
    else:
        values = end_to_end(plain)
    attempted = sum(b["attempted"] for b in plain + traced)
    failed = sum(b["failed"] for b in plain + traced)
    failures = [f for b in plain + traced for f in b["failures"]]
    report = {
        "provenance": prov,
        "batches": plain,
        "traced_batches": traced,
        "values": values,
    }
    with open(os.path.join(OUT, args.workload, f"run-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
