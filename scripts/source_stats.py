#!/usr/bin/env python3
"""Count source lines, verification lines and flavor-fork lines under src/looseends.

A flavor-fork line is a line of code that tests the graph or operad flavor:
with its comments and docstrings taken out, it matches ``\\.directed``,
``undirected`` or an ``isinstance`` test against ``UGraph`` or ``DGraph``.
Verification lines are those of the brute-force oracles and of
``enumerate_etale`` (``VERIFY``), and of the private module-level helpers
that only they call within their module; the rest is the production path.
Prints one row per module and the totals, so the net source line figure,
the verification share and the fork count come from one command:

    python3 scripts/source_stats.py
"""

import argparse
import ast
import io
import os
import re
import tokenize

FORK = re.compile(r"\.directed|undirected|isinstance\([^)]*(UGraph|DGraph)")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "looseends")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
VERIFY = {
    "oracle_embedding_classes",
    "enumerate_path_cycles",
    "has_directed_cycle_oracle",
    "limit_families_bruteforce",
    "left_kan_oracle",
    "elements_equivalence_check",
    "validate_presentation_reference",
    "enumerate_etale",
}


def verify_lines(source):
    """The lines of the module's VERIFY functions and of the private
    functions that only they, directly or through each other, refer to."""
    tree = ast.parse(source)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    users = {name: set() for name in defs}
    for node in tree.body:
        user = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in users and sub.id != user:
                users[sub.id].add(user)
    verify = VERIFY & defs.keys()
    grown = True
    while grown:
        helpers = {n for n, who in users.items() if n.startswith("_") and who and who <= verify}
        grown = not helpers <= verify
        verify |= helpers
    return sum(defs[n].end_lineno - defs[n].lineno + 1 for n in verify)


def code_lines(source):
    """The module's lines with comments and docstrings blanked; string
    literals (f-strings with their expressions) are code and stay."""
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            for n in range(doc.lineno - 1, doc.end_lineno):
                lines[n] = ""
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=SRC, help="package directory to count")
    args = ap.parse_args()
    totals = [0, 0, 0]
    print(f"{'module':<16}{'lines':>7}{'verify':>8}{'forks':>7}")
    for name in sorted(f for f in os.listdir(args.src) if f.endswith(".py")):
        with open(os.path.join(args.src, name)) as fh:
            source = fh.read()
        forks = sum(1 for line in code_lines(source) if FORK.search(line))
        row = [len(source.splitlines()), verify_lines(source), forks]
        totals = [t + n for t, n in zip(totals, row)]
        print(f"{name:<16}{row[0]:>7}{row[1]:>8}{row[2]:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>8}{totals[2]:>7}")


if __name__ == "__main__":
    main()
