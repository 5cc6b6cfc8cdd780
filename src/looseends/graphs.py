"""Finite presentations of graphs with loose ends.

An undirected graph is a finite arc set with a fixpoint-free involution
(written ``a*`` in the default naming), a subset of dangling arcs, and an
attachment function from dangling arcs to vertices.  A directed graph is a
finite edge set where each edge is the input of at most one vertex and the
output of at most one vertex.  Both presentations are immutable after
validation and hashable, so they can key caches and site tables.

Both flavors share one read-only slot interface, so that code which only
names edges runs unchanged on either:

- ``slots``: the sorted arcs (undirected) or edges (directed); the domain
  of a graph map's ``phi0`` and of an etale map's ``component``.
- ``partner(s)``: the other arc of s's edge, or s itself.
- ``edge_of(s)`` / ``slot_of(e)``: the edge key of a slot, and the first
  slot of an edge key.
- ``edge_keys``: the sorted edge keys, built on first use.
- ``ends(e)``: the vertices at the two ends of e, ``None`` at a loose end;
  ``is_internal_edge(e)`` reads off it that neither end is loose.
- ``end_ports(e)``: the port (side, slot) through which each end of e meets
  a vertex, aligned with ``ends(e)``: the partner arc of the end's own arc,
  or the edge as an input (side 0) and as an output (side 1).  ``end_sides``
  is the pair of sides, the same for every edge of a flavor.
- ``from_ends(name, ends, vertices)``: the inverse of ``ends``; it builds a
  graph of the class from each edge key's two ends, so ``type(g).from_ends``
  rebuilds a graph of either flavor.

``port_table(g)`` keeps the ports at each vertex; boundaries, vertex stars
and the etale square condition all read it.  Connectivity, shape, canonical
signatures and isomorphism read the ends of the edges, one body for both
flavors; ``ends_signature`` and ``ends_connected`` take the signature and
connectivity off an ends list before any graph is built.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import fail
from .records import Record, setfield


class _Graph:
    """What the two flavors share: equality and hashing by the presentation
    key ``_key``, and the internal-edge test read off ``ends``."""

    def __eq__(self, other):
        return self is other or (isinstance(other, _Graph) and self._key == other._key)

    @cached_property
    def _hash(self):
        return hash(self._key)

    def __hash__(self):
        return self._hash

    def is_internal_edge(self, e):
        return None not in self.ends(e)


class UGraph(_Graph):
    """Undirected graph with loose ends.

    dagger is the involution on arcs; t maps each dangling arc to the vertex
    it is attached to.  Boundary arcs are exactly the arcs outside dom(t).
    """

    directed = False
    end_sides = (0, 0)
    unknown_code = "UnknownArc"  # names an arc or vertex foreign to the graph

    def __init__(self, name, dagger, t, vertices):
        arcs = sorted(dagger)
        for a in arcs:
            b = dagger.get(a)
            if b is None or b not in dagger:
                fail("UnknownArc", f"{a!r} pairs with unknown arc {b!r}")
            if b == a:
                fail("FixpointInvolution", f"arc {a!r} is its own partner")
            if dagger[b] != a:
                fail("UnknownArc", f"involution not self-inverse at {a!r}")
        vset = set(vertices)
        for a, v in t.items():
            if a not in dagger:
                fail("UnknownArc", f"attached arc {a!r} not declared")
            if v not in vset:
                fail("UnknownArc", f"arc {a!r} attached to unknown vertex {v!r}")
        if not dagger and not vertices:
            fail("EmptyGraph", "the empty graph is rejected")
        self.name = name
        self.arcs = self.slots = tuple(arcs)
        self.dagger = dict(dagger)
        self.t = dict(t)
        self.vertices = tuple(sorted(vset))
        self._key = (
            "U",
            name,
            self.arcs,
            tuple(sorted(self.dagger.items())),
            tuple(sorted(self.t.items())),
            self.vertices,
        )
        self._nbhd = {v: frozenset(a for a, w in t.items() if w == v) for v in self.vertices}

    @classmethod
    def from_ends(cls, name, ends, vertices):
        """An edge (a, b) for each key of ends, its arcs a and b attached at
        the two ends given for it (None: loose)."""
        dagger, t = {}, {}
        for (a, b), (x, y) in ends.items():
            dagger[a], dagger[b] = b, a
            if x is not None:
                t[a] = x
            if y is not None:
                t[b] = y
        return cls(name, dagger, t, vertices)

    def __repr__(self):
        return f"UGraph({self.name!r}, {len(self.arcs)} arcs, {len(self.vertices)} vertices)"

    @property
    def dangling(self):
        return frozenset(self.t)

    @property
    def boundary(self):
        return tuple(sorted(a for a in self.arcs if a not in self.t))

    def nbhd(self, v):
        return self._nbhd[v]

    def edge_key(self, a):
        """Canonical name of the dagger-orbit of a."""
        return tuple(sorted((a, self.dagger[a])))

    edge_of = edge_key

    def partner(self, a):
        return self.dagger[a]

    def slot_of(self, e):
        return e[0]

    def ends(self, e):
        a, b = e
        return self.t.get(a), self.t.get(b)

    def end_ports(self, e):
        a, b = e
        return (0, b), (0, a)

    @cached_property
    def edge_keys(self):
        return tuple(sorted((a, b) for a, b in self.dagger.items() if a < b))

    def edges(self):
        return self.edge_keys

    def degree(self, v):
        return len(self._nbhd[v])


class DGraph(_Graph):
    """Directed graph with loose ends.

    inputs[e] = v means e is an input of v; outputs[e] = w means e is an
    output of w.  Injectivity of the two end maps is what makes these plain
    dicts adequate.
    """

    directed = True
    end_sides = (0, 1)
    unknown_code = "UnknownEdge"

    def __init__(self, name, edges, inputs, outputs, vertices):
        eset = set(edges)
        vset = set(vertices)
        for d, tag in ((inputs, "input"), (outputs, "output")):
            for e, v in d.items():
                if e not in eset:
                    fail("UnknownEdge", f"{tag} edge {e!r} not declared")
                if v not in vset:
                    fail("UnknownEdge", f"{tag} vertex {v!r} not declared")
        if not edges and not vertices:
            fail("EmptyGraph", "the empty graph is rejected")
        self.name = name
        self.edges = self.slots = self.edge_keys = tuple(sorted(eset))
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self.vertices = tuple(sorted(vset))
        self._key = (
            "D",
            name,
            self.edges,
            tuple(sorted(self.inputs.items())),
            tuple(sorted(self.outputs.items())),
            self.vertices,
        )
        self._in = {v: frozenset(e for e, w in inputs.items() if w == v) for v in self.vertices}
        self._out = {v: frozenset(e for e, w in outputs.items() if w == v) for v in self.vertices}

    @classmethod
    def from_ends(cls, name, ends, vertices):
        """An edge e for each key of ends, an input of its first end and an
        output of its second (None: loose)."""
        inputs = {e: v for e, (v, _) in ends.items() if v is not None}
        outputs = {e: w for e, (_, w) in ends.items() if w is not None}
        return cls(name, list(ends), inputs, outputs, vertices)

    def __repr__(self):
        return f"DGraph({self.name!r}, {len(self.edges)} edges, {len(self.vertices)} vertices)"

    def partner(self, e):
        return e

    # an edge is its own slot, partner and edge key
    edge_of = slot_of = partner

    def ends(self, e):
        return self.inputs.get(e), self.outputs.get(e)

    def end_ports(self, e):
        return (0, e), (1, e)

    def in_of(self, v):
        return self._in[v]

    def out_of(self, v):
        return self._out[v]

    @property
    def graph_inputs(self):
        return tuple(sorted(e for e in self.edges if e not in self.outputs))

    @property
    def graph_outputs(self):
        return tuple(sorted(e for e in self.edges if e not in self.inputs))

    def degree(self, v):
        return len(self._in[v]) + len(self._out[v])


def validate_ugraph(name, pairs, incidence):
    """Build a UGraph from raw pair and incidence lists.

    pairs: iterable of (a, b) declaring b = a-dagger.
    incidence: iterable of (v, [arcs attached to v]).
    """
    dagger = {}
    for a, b in pairs:
        if a == b:
            fail("FixpointInvolution", f"pair ({a!r}, {b!r})")
        for x, y in ((a, b), (b, a)):
            if x in dagger and dagger[x] != y:
                fail("UnknownArc", f"arc {x!r} paired twice")
            dagger[x] = y
    t = {}
    vertices = []
    for v, attached in incidence:
        if v in vertices:
            fail("UnknownArc", f"vertex {v!r} declared twice")
        vertices.append(v)
        for a in attached:
            if a not in dagger:
                fail("UnknownArc", f"vertex {v!r} lists unknown arc {a!r}")
            if a in t:
                fail("ArcMultiplyAttached", f"arc {a!r} attached to {t[a]!r} and {v!r}")
            t[a] = v
    return UGraph(name, dagger, t, vertices)


def validate_dgraph(name, edges, incidence):
    """Build a DGraph from raw edge and per-vertex in/out lists.

    incidence: iterable of (v, in_edges, out_edges).
    """
    eset = set()
    for e in edges:
        if e in eset:
            fail("UnknownEdge", f"edge {e!r} declared twice")
        eset.add(e)
    inputs, outputs, vertices = {}, {}, []
    for v, ins, outs in incidence:
        if v in vertices:
            fail("UnknownEdge", f"vertex {v!r} declared twice")
        vertices.append(v)
        for e in ins:
            if e not in eset:
                fail("UnknownEdge", f"vertex {v!r} lists unknown edge {e!r}")
            if e in inputs:
                fail("EdgeInputReused", f"edge {e!r} is an input of {inputs[e]!r} and {v!r}")
            inputs[e] = v
        for e in outs:
            if e not in eset:
                fail("UnknownEdge", f"vertex {v!r} lists unknown edge {e!r}")
            if e in outputs:
                fail("EdgeOutputReused", f"edge {e!r} is an output of {outputs[e]!r} and {v!r}")
            outputs[e] = v
    return DGraph(name, sorted(eset), inputs, outputs, vertices)


# ---------------------------------------------------------------------------
# slot maps (phi0 of a graph map, the component of an etale map)


def sides(obj, x):
    """x (a boundary profile, or an operad profile, port tuple or
    permutation) as a tuple of sides; obj is a graph or a presentation,
    whose ``directed`` flag says how x splits."""
    return x if obj.directed else (x,)


def joined(obj, parts):
    """The profile, port tuple or permutation with the given sides."""
    parts = tuple(parts)
    return parts if obj.directed else sum(parts, ())


def by_side(g, ports):
    """The slots of ports as a boundary profile: sorted, on their sides."""
    parts = [], []
    for side, s in ports:
        parts[side].append(s)
    for part in parts:
        part.sort()
    return joined(g, map(tuple, parts))


def port_table(g):
    """The set of ports at which g's edges meet each vertex, by vertex;
    built on first use and kept on the graph."""
    table = g.__dict__.get("_port_table")
    if table is None:
        table = {v: set() for v in g.vertices}
        for e in g.edge_keys:
            for port, v in zip(g.end_ports(e), g.ends(e)):
                if v is not None:
                    table[v].add(port)
        g._port_table = table
    return table


def extend_slot_map(phi0, pairs, source, target):
    """The entries that extend phi0 by s -> c and partner(s) -> partner(c)
    for each pair (s, c), or None when a slot would get two images."""
    new = {}
    for s, c in pairs:
        for k, val in ((s, c), (source.partner(s), target.partner(c))):
            if k in phi0:
                if phi0[k] != val:
                    return None
            elif new.setdefault(k, val) != val:
                return None
    return new


def complete_slot_maps(phi0, source, target):
    """Every extension of phi0 to all source slots: the missing edges get
    target slots in sorted order, partners following partners."""
    missing = []
    for s in source.slots:
        if s not in phi0 and source.partner(s) not in missing:
            missing.append(s)
    for images in itertools.product(target.slots, repeat=len(missing)):
        full = dict(phi0)
        for s, c in zip(missing, images):
            full[s] = c
            full[source.partner(s)] = target.partner(c)
        yield full


# ---------------------------------------------------------------------------
# canonical small graphs


def make_edge(name="edge"):
    return UGraph(name, {"a": "a*", "a*": "a"}, {}, [])


def make_edge_dir(name="arrow"):
    return DGraph(name, ["e"], {}, {}, [])


def make_star(n, name=None):
    dagger, t = {}, {}
    for i in range(1, n + 1):
        a, b = str(i), f"{i}*"
        dagger[a], dagger[b] = b, a
        t[a] = "v"
    return UGraph(name or f"star{n}", dagger, t, ["v"])


def make_star_dir(n, m, name=None):
    edges, inputs, outputs = [], {}, {}
    for i in range(1, n + 1):
        e = f"i{i}"
        edges.append(e)
        inputs[e] = "v"
    for j in range(1, m + 1):
        e = f"o{j}"
        edges.append(e)
        outputs[e] = "v"
    return DGraph(name or f"star{n},{m}", edges, inputs, outputs, ["v"])


def make_linear(n, name=None):
    edges = [str(k) for k in range(n + 1)]
    inputs = {str(k - 1): str(k) for k in range(1, n + 1)}
    outputs = {str(k): str(k) for k in range(1, n + 1)}
    return DGraph(name or f"L{n}", edges, inputs, outputs, [str(k) for k in range(1, n + 1)])


def underlying(d: DGraph, name=None) -> UGraph:
    """Associated undirected graph: arcs e+ / e- with e+ dagger e-.

    e+ attaches where e is an input, e- attaches where e is an output; this
    convention is what makes orientation round-trips exact.
    """
    ends = {(f"{e}+", f"{e}-"): d.ends(e) for e in d.edges}
    return UGraph.from_ends(name or f"U({d.name})", ends, d.vertices)


def ends_by_edge(g):
    """The two ends of each edge, by edge key: what ``from_ends`` reads."""
    return {e: g.ends(e) for e in g.edge_keys}


# ---------------------------------------------------------------------------
# subgraphs


class Subgraph(Record):
    __slots__ = ("host", "edge_set", "vertex_set")

    def __init__(self, host, edge_set, vertex_set):
        setfield(self, "host", host)
        setfield(self, "edge_set", edge_set)
        setfield(self, "vertex_set", vertex_set)


def subgraph(g, edge_set, vertex_set):
    """Validate the closure condition: an edge with an end at a chosen
    vertex is chosen."""
    edge_set = frozenset(edge_set)
    vertex_set = frozenset(vertex_set)
    if not edge_set and not vertex_set:
        fail("EmptySubgraph")
    if not edge_set <= set(g.edge_keys):
        fail(g.unknown_code, "edge set not a subset of host edges")
    if not vertex_set <= set(g.vertices):
        fail(g.unknown_code, "vertex set not a subset of host vertices")
    for e in g.edge_keys:
        for v in g.ends(e):
            if v in vertex_set and e not in edge_set:
                fail("NotClosed", f"edge {e!r} at chosen vertex {v!r} lies off the edge set")
    return Subgraph(g, edge_set, vertex_set)


def subgraph_view(s: Subgraph, name=None):
    """The subgraph as a standalone graph, reusing host names."""
    g, vs = s.host, s.vertex_set
    ends = {e: tuple(v if v in vs else None for v in g.ends(e)) for e in sorted(s.edge_set)}
    return type(g).from_ends(name or f"{g.name}|sub", ends, sorted(vs))


# ---------------------------------------------------------------------------
# shape predicates


class GraphShape(Record):
    # is_acyclic is None for undirected graphs
    __slots__ = (
        "is_edge", "is_star", "is_linear", "is_tree", "is_acyclic", "is_connected",
        "is_simply_connected",
    )

    def __init__(self, *flags):
        for name, flag in zip(self.__slots__, flags, strict=True):
            setfield(self, name, flag)


def _incidence(ends, n):
    """(nodes, links, components) of the incidence multigraph onto which the
    realization retracts, for vertices 0, .., n-1 and edges with these ends
    (None: loose): a node per vertex and edge, a link per attached end."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    links = alone = 0
    for x, y in ends:
        if x is None or y is None:
            links += x is not y  # one end attached; with none, the edge is alone
            alone += x is y
        else:
            links += 2
            a, b = find(x), find(y)
            if a != b:
                parent[a] = b
    return n + len(ends), links, alone + sum(1 for i, p in enumerate(parent) if i == p)


def _indexed_ends(g):
    """The ends of g's edges as vertex indices, None at a loose end."""
    node = {v: i for i, v in enumerate(g.vertices)}
    node[None] = None
    return [(node[x], node[y]) for x, y in map(g.ends, g.edge_keys)]


def ends_connected(ends, n) -> bool:
    """Is the graph on vertices 0, .., n-1 with edges of these ends connected?"""
    nodes, _, parts = _incidence(ends, n)
    return nodes > 0 and parts == 1


def is_connected(g) -> bool:
    return ends_connected(_indexed_ends(g), len(g.vertices))


def has_directed_cycle(d: DGraph) -> bool:
    # slot digraph: v -> e for outputs, e -> v for inputs
    succ = {("v", v): [] for v in d.vertices}
    for e in d.edges:
        succ[("e", e)] = []
    for e, v in d.outputs.items():
        succ[("v", v)].append(("e", e))
    for e, v in d.inputs.items():
        succ[("e", e)].append(("v", v))
    color = {}

    def dfs(n):
        color[n] = 1
        for m in succ[n]:
            c = color.get(m)
            if c == 1:
                return True
            if c is None and dfs(m):
                return True
        color[n] = 2
        return False

    return any(color.get(n) is None and dfs(n) for n in succ)


def shape(g) -> GraphShape:
    nodes, links, parts = _incidence(_indexed_ends(g), len(g.vertices))
    connected = nodes > 0 and parts == 1
    tree = simply = connected and links - nodes + parts == 0  # cycle rank 0
    edge = connected and not g.vertices
    star = connected and len(g.vertices) == 1 and not any(map(g.is_internal_edge, g.edge_keys))
    loose = 2 * len(g.edge_keys) - links
    linear = tree and loose == 2 and all(g.degree(v) <= 2 for v in g.vertices)
    acyclic = None
    if g.directed:
        acyclic = connected and not has_directed_cycle(g)
        linear = linear and all(len(g.in_of(v)) == 1 == len(g.out_of(v)) for v in g.vertices)
    return GraphShape(edge, star, linear, tree, acyclic, connected, simply)


# ---------------------------------------------------------------------------
# relabeling, canonical forms, isomorphism


def relabel_ugraph(g: UGraph, arc_map, vertex_map, name=None):
    dagger = {arc_map[a]: arc_map[b] for a, b in g.dagger.items()}
    t = {arc_map[a]: vertex_map[v] for a, v in g.t.items()}
    return UGraph(name or g.name, dagger, t, [vertex_map[v] for v in g.vertices])


def relabel_dgraph(g: DGraph, edge_map, vertex_map, name=None):
    return DGraph(
        name or g.name,
        [edge_map[e] for e in g.edges],
        {edge_map[e]: vertex_map[v] for e, v in g.inputs.items()},
        {edge_map[e]: vertex_map[v] for e, v in g.outputs.items()},
        [vertex_map[v] for v in g.vertices],
    )


def _invariants(ends, vertices, sides):
    """The local invariant of each vertex, given the ends of the edges and
    the side of each end's port: how many ends meet it on each side, then
    how many side-0 ends of loops meet it."""
    s0, s1 = sides
    loop = sides.count(0)
    count = {v: [0] * (s1 + 2) for v in vertices}
    for x, y in ends:
        if x is not None:
            count[x][s0] += 1
        if y is not None:
            count[y][s1] += 1
            if x == y:
                count[y][-1] += loop
    return {v: tuple(c) for v, c in count.items()}


def _descriptors(ends, pos, ordered):
    """Each edge's end positions under pos, which maps None to -1: the
    second end first when ends are ordered (a directed edge's tail), else
    the least first."""
    out = []
    for x, y in ends:
        p, q = pos[x], pos[y]
        out.append((q, p) if ordered or q < p else (p, q))
    return out


def canonical_signature(g):
    """Complete iso invariant: vertex count plus the multiset of edge end
    descriptors under the best vertex ordering.  Minimized over orderings
    compatible with the local vertex invariants; a graph without vertices
    has one ordering, the empty one."""
    return ends_signature(list(map(g.ends, g.edge_keys)), g.vertices, g.end_sides)


def ends_signature(ends, vertices, sides):
    """canonical_signature of the graph that from_ends would build from
    these ends, listed in any order, on these vertices, for a class with
    these ``end_sides``, without building it.  The signature does not depend
    on the vertices' order; the witnessing order is canonical_signature's
    when they come sorted."""
    inv = _invariants(ends, vertices, sides)
    ordered = sides[0] != sides[1]  # the ends meet vertices on two sides
    groups = {}
    for v in vertices:
        groups.setdefault(inv[v], []).append(v)
    keys = sorted(groups)
    spectrum = tuple(k for k in keys for _ in groups[k])
    best = None
    for arrangement in itertools.product(*(itertools.permutations(groups[k]) for k in keys)):
        order = [v for block in arrangement for v in block]
        pos = {v: i for i, v in enumerate(order)}
        pos[None] = -1
        descr = _descriptors(ends, pos, ordered)
        descr.sort()
        cand = ((len(order), spectrum, tuple(descr)), order)
        if best is None or cand[0] < best[0]:
            best = cand
    return best  # (signature, vertex order witnessing it)


def iso(g, h):
    """Backtracking isomorphism search; returns witness maps or None.

    The witness is (slot_map, vertex_map): arcs to arcs for UGraphs, edges
    to edges for DGraphs.
    """
    if type(g) is not type(h) or len(g.vertices) != len(h.vertices):
        return None
    if len(g.edge_keys) != len(h.edge_keys):
        return None
    g_ends, h_ends = list(map(g.ends, g.edge_keys)), list(map(h.ends, h.edge_keys))
    ginv = _invariants(g_ends, g.vertices, g.end_sides)
    hinv = _invariants(h_ends, h.vertices, h.end_sides)
    if sorted(ginv.values()) != sorted(hinv.values()):
        return None
    order = sorted(g.vertices, key=lambda v: (ginv[v], v))

    def extend_vertices(i, vmap):
        if i == len(order):
            return _match_edges(g, h, g_ends, h_ends, vmap)
        v = order[i]
        used = set(vmap.values())
        # prefer the same-named vertex so iso(G, G) yields the identity
        candidates = sorted(h.vertices, key=lambda w: (w != v, w))
        for w in candidates:
            if w in used or hinv[w] != ginv[v]:
                continue
            vmap[v] = w
            res = extend_vertices(i + 1, vmap)
            if res is not None:
                return res
            del vmap[v]
        return None

    return extend_vertices(0, {})


def _match_edges(g, h, g_ends, h_ends, vmap):
    """The slot map over the vertex map: each edge of g goes to an unused
    edge of h with its descriptor (the same-named one first, for identity
    witnesses), its first slot to that edge's first slot when the ends line
    up as they are, to its partner when they line up crosswise."""
    ordered = g.end_sides[0] != g.end_sides[1]
    pos_g = {v: i for i, v in enumerate(sorted(vmap))}
    pos_h = {vmap[v]: i for v, i in pos_g.items()}
    pos_g[None] = pos_h[None] = -1
    pools = {}
    for f, d in zip(h.edge_keys, _descriptors(h_ends, pos_h, ordered)):
        pools.setdefault(d, []).append(f)
    h_ends = dict(zip(h.edge_keys, h_ends))
    slot_map = {}
    for e, (x, y), d in zip(g.edge_keys, g_ends, _descriptors(g_ends, pos_g, ordered)):
        pool = pools.get(d)
        if not pool:
            return None
        f = e if e in pool else pool[0]
        pool.remove(f)
        s, c = g.slot_of(e), h.slot_of(f)
        if (vmap.get(x), vmap.get(y)) != h_ends[f]:
            c = h.partner(c)
        slot_map[s] = c
        slot_map[g.partner(s)] = h.partner(c)
    return slot_map, dict(vmap)


def isomorphic(g, h) -> bool:
    return iso(g, h) is not None


# ---------------------------------------------------------------------------
# brute-force path oracles (kept naive on purpose; used to cross-check shape)


def enumerate_path_cycles(u: UGraph):
    """Cycles per the alternating arc/vertex definition: simple closed paths
    of length > 1 starting and ending at the same arc or vertex, never
    re-traversing an edge by immediate reversal."""
    cycles = []

    def extend(path, seen):
        last = path[-1]
        if len(path) > 2 and path[0] == last:
            cycles.append(tuple(path))
            return
        if last in seen and len(path) > 1:
            return
        seen = seen | {last}
        if last[0] == "a":
            a = last[1]
            v = u.t.get(a)
            if v is not None:
                nxt = ("v", v)
                if nxt == path[0] or nxt not in seen:
                    extend(path + [nxt], seen)
        else:
            v = last[1]
            prev_arc = path[-2][1] if len(path) >= 2 and path[-2][0] == "a" else None
            for a in sorted(u.arcs):
                if u.t.get(u.dagger[a]) != v:
                    continue
                if prev_arc is not None and a == u.dagger[prev_arc]:
                    continue  # no doubling straight back along the same edge
                nxt = ("a", a)
                if nxt == path[0] or nxt not in seen:
                    extend(path + [nxt], seen)

    for a in sorted(u.arcs):
        extend([("a", a)], frozenset())
    for v in u.vertices:
        extend([("v", v)], frozenset())
    return cycles


def enumerate_directed_paths(d: DGraph):
    """Directed paths of the form e0 v1 e1 ... vn en (begin and end with an
    edge) whose intermediate elements never repeat, which is complete on
    acyclic graphs."""
    out = []

    def extend(p, seen):
        out.append(tuple(p))
        e = p[-1]
        v = d.inputs.get(e)
        if v is None or v in seen:
            return
        for e2 in sorted(d.out_of(v)):
            if e2 in seen:
                continue
            p.extend((v, e2))
            extend(p, seen | {v, e2})
            del p[-2:]

    for e in sorted(d.edges):
        extend([e], frozenset({e}))
    return out


def has_directed_cycle_oracle(d: DGraph) -> bool:
    """Literal search for a directed path of length > 1 beginning and ending
    at the same vertex (any directed cycle contains such a closure)."""

    def search(v, cur, seen):
        for e in sorted(d.out_of(cur)):
            w = d.inputs.get(e)
            if w is None:
                continue
            if w == v:
                return True
            if w not in seen and search(v, w, seen | {w}):
                return True
        return False

    return any(search(v, v, frozenset({v})) for v in d.vertices)
