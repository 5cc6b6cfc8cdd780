"""Exhaustive generation of small connected graphs up to isomorphism.

A connected graph with at least one vertex is assembled from a multiset of
internal edges between (not necessarily distinct) vertices plus a number of
pendant boundary edges per vertex; the lone edge is the only vertex-free
connected graph.  Deduplication is by canonical signature.
"""

from __future__ import annotations

import itertools

from .config import SiteBounds
from .graphs import canonical_signature, ends_connected, ends_signature, make_edge, make_edge_dir


def _vertex_multisets(k, max_mult, max_degree, ordered):
    """Candidate internal-edge bundles, each with its degree per vertex: the
    multisets of at most max_mult vertex pairs (ordered when ordered) with no
    vertex of degree over max_degree.  Each pair is taken 0, 1, 2, .. times
    in turn, up to the first count that puts a vertex over the cap."""
    slots = [(i, j) for i in range(k) for j in range(0 if ordered else i, k)]
    out, deg = [], [0] * k

    def rec(idx, current, total):
        if idx == len(slots):
            out.append((tuple(current), tuple(deg)))
            return
        rec(idx + 1, current, total)
        i, j = slots[idx]
        room = (max_degree - deg[i]) // 2 if i == j else max_degree - max(deg[i], deg[j])
        for mult in range(1, min(max_mult - total, room) + 1):
            deg[i] += mult
            deg[j] += mult
            rec(idx + 1, current + [slots[idx]] * mult, total + mult)
            deg[i] -= mult
            deg[j] -= mult

    rec(0, [], 0)
    return out


def gen_connected_ugraphs(bounds: SiteBounds):
    """All connected undirected graphs within the bounds, one per iso class."""

    def legs(spare, budget):
        for counts in itertools.product(*(range(min(s, budget) + 1) for s in spare)):
            if sum(counts) <= budget:
                yield counts

    return _gen_connected(bounds, make_edge(), legs)


def gen_connected_dgraphs(bounds: SiteBounds):
    """All connected directed graphs within the bounds, one per iso class."""

    def inputs_and_outputs(spare, budget):
        splits = ([(i, o) for i in range(s + 1) for o in range(s - i + 1)] for s in spare)
        for counts in itertools.product(*splits):
            if sum(i + o for i, o in counts) <= budget:
                yield counts

    return _gen_connected(bounds, make_edge_dir(), inputs_and_outputs)


def _gen_connected(bounds, lone, pendants):
    """The lone edge, then on each vertex count every connected bundle of
    internal edges (ordered pairs when lone is directed) with every choice of
    pendant edges that pendants(spare arity per vertex, spare edges) yields,
    one graph per canonical signature, sorted by it.  A candidate's
    signature is read off its ends, and only the first with a signature is
    built."""
    cls, directed = type(lone), lone.directed
    found = {canonical_signature(lone)[0]: lone} if bounds.max_edges >= 1 else {}
    for k in range(1, bounds.max_vertices + 1):
        vs = [f"v{i}" for i in range(k)]
        for bundle, deg in _vertex_multisets(k, bounds.max_edges, bounds.max_arity, directed):
            if not ends_connected(bundle, k):
                continue
            spare = [bounds.max_arity - d for d in deg]
            budget = bounds.max_edges - len(bundle)
            for pend in pendants(spare, budget):
                sig = ends_signature(_ends(directed, vs, bundle, pend), vs, cls.end_sides)[0]
                if sig not in found:
                    found[sig] = _build(cls, k, bundle, pend)
    return [found[sig] for sig in sorted(found)]


def _ends(directed, vs, bundle, pend):
    """The ends of the edges of _build's graph, in its edge order."""
    ends = [(vs[j], vs[i]) if directed else (vs[i], vs[j]) for i, j in bundle]
    for v, counts in zip(vs, pend):
        ins, outs = counts if directed else (counts, 0)
        ends += [(v, None)] * ins + [(None, v)] * outs
    return ends


def _build(cls, k, bundle, pend):
    """The graph of cls on v0, .., v{k-1} with an edge for each pair (i, j)
    of bundle, joining v{i} to v{j} (flowing i -> j when directed), then the
    pendant edges of each vertex: pend[v] legs, or pend[v] = (inputs,
    outputs) when directed.  Edges are e0, e1, .. in that order; the arcs of
    e{n} in a UGraph are e{n}+ and e{n}-, attached in that order."""
    directed, vs = cls.directed, [f"v{i}" for i in range(k)]
    ends = _ends(directed, vs, bundle, pend)
    names = [f"e{n}" for n in range(len(ends))]
    keys = names if directed else [(f"{e}+", f"{e}-") for e in names]
    prefix = "d" if directed else "u"
    name = f"{prefix}{k}_{len(ends)}_{abs(hash((tuple(bundle), tuple(pend)))) % 10**8}"
    return cls.from_ends(name, dict(zip(keys, ends)), vs)


def gen_trees_u(bounds: SiteBounds):
    from .graphs import shape

    return [g for g in gen_connected_ugraphs(bounds) if shape(g).is_tree]
