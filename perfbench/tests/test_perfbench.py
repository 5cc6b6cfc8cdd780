"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tree-maps": {"pairs": 3},
    "emb-oracle": {"hosts": 2},
    "site-factorize": {"per_site": 2},
    "nerve-kan": {"kan_objects": 1, "battery": ("flip/elsU0", "cyclic/Ucyc", "io/U0")},
}


def test_self_time_arithmetic_on_a_synthetic_tree():
    # A[0,10] > B[1,4] > {E[2,3], F[2.5,5]};  A > C[5,9] > D[6,7]
    # F overlaps E and runs past B's end: B's children cover [2,4] once.
    parent = [-1, 0, 1, 1, 0, 4]
    start = [0.0, 1.0, 2.0, 2.5, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 5.0, 9.0, 7.0]
    assert spans.self_times(parent, start, end) == pytest.approx([3.0, 1.0, 1.0, 2.5, 3.0, 1.0])


def test_tracer_tables_nested_calls():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("m.leaf", lambda n: list(range(n)), spans._size)

    def outer_fn():
        return leaf(0) + leaf(2)

    outer = tracer.wrap("m.outer", outer_fn)
    assert outer() == [0, 1]
    table = tracer.table()
    # outer spans ticks 0..5, its leaves 1..2 and 3..4
    assert table["m.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert table["m.leaf"]["calls"] == 2
    assert table["m.leaf"]["self_s"] == 2.0
    assert table["m.leaf"]["out"] == 2
    assert table["m.leaf"]["empty_frac"] == 0.5


def test_recorder_counts_a_raising_item_and_goes_on():
    rec = worker.Recorder()
    rec.check("ok", lambda: True)
    rec.check("raises", lambda: 1 / 0)
    rec.check("wrong", lambda: False)
    rec.check("ok again", lambda: True)
    assert (rec.attempted, rec.failed, len(rec.latencies)) == (4, 2, 4)
    assert rec.failures[0].startswith("raises: ZeroDivisionError")


def test_speed_clock_scales_work_by_the_probes(monkeypatch):
    # every probe reads twice the nominal time: the machine runs at half speed
    probe = staticmethod(lambda: 2 * worker.REF_NOMINAL_S)
    monkeypatch.setattr(worker.SpeedClock, "_probe", probe)
    clock = worker.SpeedClock()
    for _ in range(3):
        time.sleep(worker.SEGMENT_S)
        clock.tick()
    raw, corrected = clock.stop()
    assert len(clock.segments) == 4 and len(clock.probes) == 5
    assert raw >= 3 * worker.SEGMENT_S
    assert corrected == pytest.approx(raw / 2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name):
    result = worker.run_batch(name, seed=7, batch=0, **TINY[name])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert result["wall_s"] > 0 and result["setup_s"] > 0


def test_corrupted_pinned_counts_fail_the_site_check(monkeypatch):
    monkeypatch.setitem(workloads.SITE_COUNTS, "U", (20, 880))
    result = worker.run_batch("site-factorize", seed=7, batch=0, per_site=1)
    assert result["failed"] == 1
    assert result["failures"] == ["site U: wrong answer"]
    assert result["attempted"] > result["failed"]


def test_corrupted_oracle_answer_fails_every_host(monkeypatch):
    real = workloads.E.oracle_embedding_classes
    monkeypatch.setattr(workloads.E, "oracle_embedding_classes", lambda g: real(g)[1:])
    result = worker.run_batch("emb-oracle", seed=7, batch=0, hosts=2)
    assert result["failed"] == result["attempted"] > 0


def _snapshot(path):
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in path.iterdir())


def test_benchmark_imports_no_tests_and_leaves_fixtures_alone(tmp_path):
    for source in BENCH.glob("*.py"):
        tree = ast.parse(source.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in ("tests", "conftest") for n in names), source
        assert "fixtures" not in source.read_text(), source
    before = _snapshot(ROOT / "fixtures")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "tree-maps",
           "--seed", "3", "--batch", "0"]
    plain = json.loads(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      check=True).stdout)
    stem = tmp_path / "spans"
    traced = json.loads(subprocess.run(cmd + ["--trace", str(stem)], cwd=ROOT,
                                       capture_output=True, text=True, check=True).stdout)
    assert _snapshot(ROOT / "fixtures") == before
    assert plain["failed"] == traced["failed"] == 0
    assert not plain["tracer_imported"] and "trace" not in plain
    assert traced["tracer_imported"]
    assert traced["trace"]["gmaps.validate_graph_map"]["calls"] > 0
    # the workloads module's own binding of gen_trees_u is traced too
    assert traced["trace"]["gen.gen_trees_u"]["calls"] == 1
    # gmaps calls unions through its own imported name
    assert traced["trace"]["emb.unions"]["calls"] > 0
    names = json.loads((tmp_path / "spans.names.json").read_text())
    assert (tmp_path / "spans.spans").stat().st_size == 28 * names["spans"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""
