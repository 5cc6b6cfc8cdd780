"""One batch of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --batch K [--trace STEM]

Times the set-up (import of ``looseends`` and input generation) and the
measured phase on a ``SpeedClock``, checks every item, and prints one JSON
object.  With
``--trace STEM`` the span tracer is installed right after the import and
its spans are written to ``STEM.*``; without it the tracer is never
imported.  ``run.py`` starts one of these per batch.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

REF_LOOPS = 4000
# the median time of one ``reference()`` probe on an idle core of the
# 2-vCPU Xeon virtual machine the benchmark was built on
REF_NOMINAL_S = 0.0030
SEGMENT_S = 0.05


def reference(n=REF_LOOPS):
    """A fixed probe of interpreter work like the library's: small tuples,
    dict updates, frozensets and sorting."""
    seen = set()
    counts = {}
    for i in range(n):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset(key))
        sorted(key, reverse=True)
    return len(seen) + len(counts)


class SpeedClock:
    """Wall time corrected for the speed of the machine at the moment.

    On a shared host the same work can take twice as long from one minute
    to the next.  The clock runs the reference probe when it starts and
    again at the first ``tick`` after every ``SEGMENT_S`` of work.  Each
    segment of work is scaled by ``REF_NOMINAL_S`` over the median of the
    six probes around it, so the sum reads as the time the work takes at
    the reference speed.  Probe time is not counted."""

    def __init__(self):
        self.segments = []
        self.probes = [self._probe()]
        self.t0 = time.perf_counter()

    @staticmethod
    def _probe():
        """One reference run with the collector off, so the probe does not
        depend on how many objects the workload keeps alive."""
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - t
        if enabled:
            gc.enable()
        return elapsed

    def tick(self):
        if time.perf_counter() - self.t0 >= SEGMENT_S:
            self._close()

    def _close(self):
        self.segments.append(time.perf_counter() - self.t0)
        self.probes.append(self._probe())
        self.t0 = time.perf_counter()

    def stop(self):
        """Close the last segment; return (wall seconds, corrected seconds)."""
        self._close()
        p = self.probes
        corrected = sum(
            seg * REF_NOMINAL_S / statistics.median(p[max(0, i - 2):i + 4])
            for i, seg in enumerate(self.segments)
        )
        return sum(self.segments), corrected


class Recorder:
    """Runs checked items: counts attempts and failures, keeps each item's
    latency under its label, and calls ``tick`` after each item.

    A failing item (wrong answer or any exception) is counted and the run
    goes on; the first few failures are kept for the report."""

    def __init__(self, tick=lambda: None):
        self.tick = tick
        self.latencies = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, fn, *args):
        t0 = time.perf_counter()
        try:
            ok, why = bool(fn(*args)), "wrong answer"
        except Exception as exc:  # the gate must survive any item's failure
            ok, why = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        self.latencies[label] = elapsed
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {why}")
        self.tick()
        return ok


def run_batch(name, seed, batch, trace_stem=None, **sizes):
    clock = SpeedClock()
    sys.path.insert(0, SRC)
    import workloads

    tracer = None
    if trace_stem:
        import spans

        tracer = spans.Tracer()
        tracer.install(callers=[workloads])
    workload = workloads.WORKLOADS[name](seed, batch, tick=clock.tick, **sizes)
    setup_raw_s, setup_s = clock.stop()
    clock = SpeedClock()
    rec = Recorder(tick=clock.tick)
    workload.run(rec)
    wall_raw_s, wall_s = clock.stop()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": wall_raw_s,
        "probe_median_s": statistics.median(clock.probes),
        "latencies": rec.latencies,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tracer_imported": "spans" in sys.modules,
    }
    if tracer is not None:
        result["trace"] = tracer.table()
        tracer.dump(trace_stem)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--trace", default=None, help="file stem for the span dump")
    args = ap.parse_args(argv)
    result = run_batch(args.workload, args.seed, args.batch, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
