#!/usr/bin/env python3
"""Run the acceptance suite and print one verdict line per criterion.

    PYTHONPATH=src python3 scripts/run_acceptance.py [pytest args]

After pytest's own output, each criterion A01-A10 gets a line with its
verdict and its wall seconds (set-up, call and teardown; the shared sites
are built in the set-up of the first criterion that uses them).  The exit
status is pytest's.
"""

import re
import sys

import pytest


class Timings:
    """Collects each acceptance test's outcome and seconds by criterion."""

    def __init__(self):
        self.rows = {}

    def pytest_runtest_logreport(self, report):
        found = re.search(r"::test_a(\d\d)_", report.nodeid)
        if found is None:
            return
        verdict, seconds = self.rows.get(found.group(1), ("PASS", 0.0))
        if report.failed:
            verdict = "FAIL"
        elif report.skipped:
            verdict = "SKIP"
        self.rows[found.group(1)] = (verdict, seconds + report.duration)

    def lines(self):
        return [
            f"A{number} {verdict} {seconds:.1f} s"
            for number, (verdict, seconds) in sorted(self.rows.items())
        ]


if __name__ == "__main__":
    timings = Timings()
    code = pytest.main(
        ["-q", "-s", "tests/test_acceptance.py", "--no-header", *sys.argv[1:]],
        plugins=[timings],
    )
    print("\n".join(timings.lines()))
    sys.exit(int(code))
