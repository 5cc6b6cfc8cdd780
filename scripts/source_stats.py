#!/usr/bin/env python3
"""Count source lines and flavor-fork lines under src/looseends.

A flavor-fork line is one that tests the graph or operad flavor: it matches
``\\.directed``, ``undirected`` or an ``isinstance`` test against ``UGraph``
or ``DGraph``.  Prints one row per module and the totals, so the net source
line figure and the fork count come from one command:

    python3 scripts/source_stats.py
"""

import argparse
import os
import re

FORK = re.compile(r"\.directed|undirected|isinstance\([^)]*(UGraph|DGraph)")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "looseends")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=SRC, help="package directory to count")
    args = ap.parse_args()
    total_lines = total_forks = 0
    print(f"{'module':<16}{'lines':>7}{'forks':>7}")
    for name in sorted(f for f in os.listdir(args.src) if f.endswith(".py")):
        with open(os.path.join(args.src, name)) as fh:
            lines = fh.read().splitlines()
        forks = sum(1 for line in lines if FORK.search(line))
        total_lines += len(lines)
        total_forks += forks
        print(f"{name:<16}{len(lines):>7}{forks:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_forks:>7}")


if __name__ == "__main__":
    main()
