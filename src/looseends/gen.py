"""Exhaustive generation of small connected graphs up to isomorphism.

A connected graph with at least one vertex is assembled from a multiset of
internal edges between (not necessarily distinct) vertices plus a number of
pendant boundary edges per vertex; the lone edge is the only vertex-free
connected graph.  Deduplication is by canonical signature.
"""

from __future__ import annotations

import itertools

from .config import SiteBounds
from .graphs import (
    DGraph,
    UGraph,
    canonical_signature,
    make_edge,
    make_edge_dir,
)


def _vertex_multisets(k, max_mult, with_loops, ordered):
    """Multisets of vertex pairs: candidate internal-edge bundles."""
    if ordered:
        slots = [(i, j) for i in range(k) for j in range(k) if with_loops or i != j]
    else:
        slots = [(i, j) for i in range(k) for j in range(i if with_loops else i + 1, k)]
        slots = [(min(p), max(p)) for p in slots]
    out = []

    def rec(idx, current, total):
        if idx == len(slots):
            out.append(tuple(current))
            return
        rec(idx + 1, current, total)
        for mult in range(1, max_mult - total + 1):
            rec(idx + 1, current + [slots[idx]] * mult, total + mult)

    rec(0, [], 0)
    return out


def _connected_on_vertices(k, bundle):
    if k <= 1:
        return True
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in bundle:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(k)}) == 1


def gen_connected_ugraphs(bounds: SiteBounds):
    """All connected undirected graphs within the bounds, one per iso class."""
    seen, out = set(), []

    def emit(g):
        sig = canonical_signature(g)[0]
        if sig not in seen:
            seen.add(sig)
            out.append(g)

    if bounds.max_edges >= 1:
        emit(make_edge())
    for k in range(1, bounds.max_vertices + 1):
        for bundle in _vertex_multisets(k, bounds.max_edges, True, ordered=False):
            if not _connected_on_vertices(k, bundle):
                continue
            deg = [0] * k
            for i, j in bundle:
                deg[i] += 1
                deg[j] += 1
            if any(d > bounds.max_arity for d in deg):
                continue
            spare = [bounds.max_arity - d for d in deg]
            budget = bounds.max_edges - len(bundle)
            if budget < 0:
                continue
            for legs in itertools.product(*(range(min(s, budget) + 1) for s in spare)):
                if sum(legs) > budget:
                    continue
                emit(_build_u(k, bundle, legs))
    out.sort(key=lambda g: canonical_signature(g)[0])
    return out


def _build_u(k, bundle, legs):
    dagger, t = {}, {}
    idx = 0
    for i, j in bundle:
        a, b = f"e{idx}+", f"e{idx}-"
        dagger[a], dagger[b] = b, a
        t[a] = f"v{i}"
        t[b] = f"v{j}"
        idx += 1
    for v, count in enumerate(legs):
        for _ in range(count):
            a, b = f"e{idx}+", f"e{idx}-"
            dagger[a], dagger[b] = b, a
            t[a] = f"v{v}"
            idx += 1
    name = f"u{k}_{idx}_{abs(hash((tuple(bundle), tuple(legs)))) % 10**8}"
    return UGraph(name, dagger, t, [f"v{i}" for i in range(k)])


def gen_connected_dgraphs(bounds: SiteBounds):
    """All connected directed graphs within the bounds, one per iso class."""
    seen, out = set(), []

    def emit(g):
        sig = canonical_signature(g)[0]
        if sig not in seen:
            seen.add(sig)
            out.append(g)

    if bounds.max_edges >= 1:
        emit(make_edge_dir())
    for k in range(1, bounds.max_vertices + 1):
        for bundle in _vertex_multisets(k, bounds.max_edges, True, ordered=True):
            if not _connected_on_vertices(k, bundle):
                continue
            deg = [0] * k
            for i, j in bundle:  # i -> j
                deg[i] += 1
                deg[j] += 1
            if any(d > bounds.max_arity for d in deg):
                continue
            spare = [bounds.max_arity - d for d in deg]
            budget = bounds.max_edges - len(bundle)
            if budget < 0:
                continue
            # pendant inputs and outputs per vertex
            for pend in itertools.product(
                *(
                    [(pi, po) for pi in range(s + 1) for po in range(s - pi + 1)]
                    for s in spare
                )
            ):
                if sum(pi + po for pi, po in pend) > budget:
                    continue
                emit(_build_d(k, bundle, pend))
    out.sort(key=lambda g: canonical_signature(g)[0])
    return out


def _build_d(k, bundle, pend):
    edges, inputs, outputs = [], {}, {}
    idx = 0
    for i, j in bundle:  # flows i -> j
        e = f"e{idx}"
        edges.append(e)
        outputs[e] = f"v{i}"
        inputs[e] = f"v{j}"
        idx += 1
    for v, (pi, po) in enumerate(pend):
        for _ in range(pi):
            e = f"e{idx}"
            edges.append(e)
            inputs[e] = f"v{v}"
            idx += 1
        for _ in range(po):
            e = f"e{idx}"
            edges.append(e)
            outputs[e] = f"v{v}"
            idx += 1
    name = f"d{k}_{idx}_{abs(hash((tuple(bundle), tuple(pend)))) % 10**8}"
    return DGraph(name, edges, inputs, outputs, [f"v{i}" for i in range(k)])


def gen_trees_u(bounds: SiteBounds):
    from .graphs import shape

    return [g for g in gen_connected_ugraphs(bounds) if shape(g).is_tree]
