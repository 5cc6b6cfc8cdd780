"""Exhaustive generation of small connected graphs up to isomorphism.

A connected graph with at least one vertex is assembled from a multiset of
internal edges between (not necessarily distinct) vertices plus a number of
pendant boundary edges per vertex; the lone edge is the only vertex-free
connected graph.  Candidates are listed one per orbit under relabelings of
the vertices (orderly generation: Read 1978, McKay 1998), and the graphs
are kept one per canonical signature.
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


def _legs(spare, budget):
    """Leg counts per vertex, within each vertex's spare arity and budget
    legs in all, in lexicographic order."""
    for counts in itertools.product(*(range(min(s, budget) + 1) for s in spare)):
        if sum(counts) <= budget:
            yield counts


def _inputs_and_outputs(spare, budget):
    """(inputs, outputs) per vertex, within each vertex's spare arity and
    budget pendant edges in all, in lexicographic order."""
    splits = ([(i, o) for i in range(s + 1) for o in range(s - i + 1)] for s in spare)
    for counts in itertools.product(*splits):
        if sum(i + o for i, o in counts) <= budget:
            yield counts


def gen_connected_ugraphs(bounds: SiteBounds):
    """All connected undirected graphs within the bounds, one per iso class."""
    return _gen_connected(bounds, make_edge(), _legs)


def gen_connected_dgraphs(bounds: SiteBounds):
    """All connected directed graphs within the bounds, one per iso class."""
    return _gen_connected(bounds, make_edge_dir(), _inputs_and_outputs)


def gen_trees_u(bounds: SiteBounds):
    """The trees among gen_connected_ugraphs(bounds), in its order: the
    graphs whose internal edges are k - 1 pairs on k vertices.  A connected
    bundle of k - 1 pairs has no loop, no parallel pair and no cycle, and a
    bundle with more pairs has one."""
    return _gen_connected(bounds, make_edge(), _legs, trees=True)


def _gen_connected(bounds, lone, pendants, trees=False):
    """The lone edge and the graphs of _candidates (only trees when trees),
    one per canonical signature, sorted by it.  A candidate's signature is
    read off its ends, and only the first with a signature is built."""
    cls, directed = type(lone), lone.directed
    found = {canonical_signature(lone)[0]: lone} if bounds.max_edges >= 1 else {}
    names = [f"v{i}" for i in range(bounds.max_vertices)]
    for k, bundle, pend in _candidates(bounds, directed, pendants, trees):
        vs = names[:k]
        sig = ends_signature(_ends(directed, vs, bundle, pend), vs, cls.end_sides)[0]
        if sig not in found:
            found[sig] = _build(cls, k, bundle, pend)
    return [found[sig] for sig in sorted(found)]


def _candidates(bounds, directed, pendants, trees):
    """(k, bundle, pend) per candidate graph on k = 1, 2, .. vertices: a
    connected bundle of internal edges (ordered pairs when directed, only
    k - 1 of them when trees) and a choice of pendant edges that
    pendants(spare arity per vertex, spare edges) yields, one candidate per
    orbit under the relabelings of the k vertices.

    A bundle is expanded only the first time its orbit is met in
    _vertex_multisets' order; its relabelings that fix it are its
    automorphisms.  Of its pendant choices only those are yielded that are
    least, in the order pendants yields them (lexicographic on the count
    tuples), among their images under these automorphisms.

    Why _gen_connected, which keeps the first candidate per signature,
    keeps the graphs it would keep from the full list (every bundle with
    every pendant choice, in the same order): the candidates whose graphs
    are isomorphic to one candidate's are its orbit.  The first of the orbit
    in the full list has the orbit's first bundle and, on that bundle, the
    least pendant choice among its images under the automorphisms.  That is
    the one candidate of the orbit yielded here, and the first candidate
    with a signature in the full list is the first of its orbit."""
    for k in range(1, bounds.max_vertices + 1):
        perms = list(itertools.permutations(range(k)))
        seen = set()
        for bundle, deg in _vertex_multisets(k, bounds.max_edges, bounds.max_arity, directed):
            if bundle in seen or trees and len(bundle) != k - 1 or not ends_connected(bundle, k):
                continue
            images = [_relabel(bundle, p, directed) for p in perms]
            seen.update(images)
            autos = [p for p, image in zip(perms[1:], images[1:]) if image == bundle]
            spare = [bounds.max_arity - d for d in deg]
            for pend in pendants(spare, bounds.max_edges - len(bundle)):
                # pend read through p is its image under p's inverse, and the
                # automorphisms other than the identity are closed under inverses
                if not autos or not any(tuple(pend[i] for i in p) < pend for p in autos):
                    yield k, bundle, pend


def _relabel(bundle, p, directed):
    """The bundle with vertex i renamed p[i], in _vertex_multisets' form:
    sorted pairs, each (least, greatest) unless directed."""
    pairs = ((p[i], p[j]) for i, j in bundle)
    return tuple(sorted(pairs if directed else (tuple(sorted(pair)) for pair in pairs)))


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
