#!/usr/bin/env python3
"""Build the default truncated sites and print a structural survey:
object and hom counts, Segal verdicts for the standard presheaves, and the
left Kan extension summand table for the terminal presheaf."""

import argparse
import time

from looseends.config import SiteBounds
from looseends.presheaves import (
    is_segal,
    kan_formula_matches_oracle,
    left_kan_formula,
    orientation_presheaf,
    terminal_presheaf,
)
from looseends.sites import build_elements_site, build_site


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--vertices", type=int, default=2)
    ap.add_argument("--edges", type=int, default=4)
    ap.add_argument("--arity", type=int, default=3)
    args = ap.parse_args()
    bounds = SiteBounds(args.vertices, args.edges, args.arity)

    for tag in ("U", "U0", "Ucyc"):
        t0 = time.perf_counter()
        site = build_site(tag, bounds)
        n_maps = sum(len(v) for v in site.homs.values())
        print(f"{tag}: {len(site.objects)} objects, {n_maps} maps"
              f" ({time.perf_counter() - t0:.1f}s)")
        o = orientation_presheaf(site)
        print(f"  orientation presheaf Segal: {is_segal(o)[0]}")
        els = build_elements_site(site, rooted_only=(tag == "Ucyc"))
        print(f"  directed side: {len(els.directed.objects)} objects")
        f1 = left_kan_formula(els, terminal_presheaf(els.directed))
        for i, g in enumerate(site.objects):
            agree = kan_formula_matches_oracle(
                els, terminal_presheaf(els.directed), i
            )
            print(f"    {g.name}: {len(f1.value(i))} summands, oracle agrees: {agree}")


if __name__ == "__main__":
    main()
