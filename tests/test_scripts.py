"""Smoke tests for the survey scripts, each run as a user runs it: a fresh
interpreter with PYTHONPATH=src."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join("scripts", name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_survey_sites_builds_elements_sites_and_agrees_with_the_oracle():
    lines = run_script("survey_sites.py", "--vertices", "1", "--edges", "3", "--arity", "3")
    sides = [line.strip() for line in lines if "directed side" in line]
    assert sides == [f"directed side: {n} objects" for n in (23, 17, 8)]
    verdicts = [line for line in lines if "oracle agrees" in line]
    assert len(verdicts) == 16
    assert all(line.endswith("oracle agrees: True") for line in verdicts)
    assert lines.count("  orientation presheaf Segal: True") == 3


def test_count_unions_prints_a_spectrum_per_host():
    lines = run_script("count_unions.py", "--vertices", "2", "--edges", "2")
    assert len(lines) == 10
    shape = re.compile(r"\S+  \|Emb\|=\d+  unions( \d+:\d+)+( \*)?$")
    assert all(shape.match(line) for line in lines), lines
    # unions need not be unique: some host has a pair with several
    assert any(line.endswith(" *") for line in lines)


def test_source_stats_counts_verification_lines(tmp_path):
    """Each module's row splits off the lines of the oracles and of
    enumerate_etale; the total row sums the columns.  A fork line is a line
    of code: prose in docstrings and comments is not counted, strings and
    f-string expressions are."""
    import ast

    lines = run_script("source_stats.py")
    assert lines[0].split() == ["module", "lines", "verify", "forks"]
    rows = {row.split()[0]: list(map(int, row.split()[1:])) for row in lines[1:]}
    assert rows.pop("total") == [sum(col) for col in zip(*rows.values())]
    assert all(verify <= total for total, verify, _ in rows.values())
    assert rows["cli.py"][1] == rows["gmaps.py"][1] == 0
    with open(os.path.join(ROOT, "src", "looseends", "etale.py")) as fh:
        tree = ast.parse(fh.read())
    (node,) = [n for n in tree.body if getattr(n, "name", None) == "enumerate_etale"]
    assert rows["etale.py"][1] == node.end_lineno - node.lineno + 1
    (tmp_path / "prose.py").write_text(
        '"""A module about undirected graphs."""\n'
        "# an undirected comment\n"
        "def kind(g):\n"
        '    """undirected or\n'
        '    directed"""\n'
        '    word = "undirected"  # an undirected word\n'
        '    return f"{g.directed}: {word}"\n'
    )
    lines = run_script("source_stats.py", "--src", str(tmp_path))
    assert lines[1].split() == ["prose.py", "7", "0", "2"]
