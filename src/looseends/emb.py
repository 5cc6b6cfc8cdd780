"""The set Emb(G) of embeddings into G up to domain isomorphism.

Elements are encoded in a normal form: either a host edge, or a region
(S, Z) where S is the nonempty vertex image and Z the set of internal edges
of S that stay uncut (an internal edge outside Z is clutched: the domain
carries two dangling half-edges over it).  The encoding is validated against
a brute-force enumeration of embeddings elsewhere in the test suite.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import fail
from .etale import EtaleMap, enumerate_etale
from .graphs import (
    DGraph,
    UGraph,
    by_side,
    canonical_signature,
    is_connected,
    make_edge,
    make_edge_dir,
    port_table,
    shape,
    sides,
)
from .records import Record, setfield

# Classes key the hot dicts of graph maps and host indexes, so each hashes
# its fields once, at construction, into a slot that equality ignores.  The
# fast path builds them only in HostIndex and hands out the index's own
# objects; class_of_embedding and the tests build fresh ones to check it.


class EmbEdge(Record):
    __slots__ = ("host", "edge", "_hash")

    def __init__(self, host, edge):
        setfield(self, "host", host)
        setfield(self, "edge", edge)
        setfield(self, "_hash", hash((host, edge)))

    def __eq__(self, other):
        if other.__class__ is not EmbEdge:
            return NotImplemented
        return (self.host, self.edge) == (other.host, other.edge)

    def __hash__(self):
        return self._hash

    @property
    def vertex_set(self):
        return frozenset()

    def sort_key(self):
        return (0, (), (str(self.edge),), ())

    def __repr__(self):
        return f"[edge {self.edge}]"


class EmbRegion(Record):
    __slots__ = ("host", "vertices", "glued", "_hash")  # glued: internal edges kept intact

    def __init__(self, host, vertices, glued):
        setfield(self, "host", host)
        setfield(self, "vertices", vertices)
        setfield(self, "glued", glued)
        setfield(self, "_hash", hash((host, vertices, glued)))

    def __eq__(self, other):
        if other.__class__ is not EmbRegion:
            return NotImplemented
        return (self.host, self.vertices, self.glued) == (other.host, other.vertices, other.glued)

    def __hash__(self):
        return self._hash

    @property
    def vertex_set(self):
        return self.vertices

    def sort_key(self):
        return (
            1,
            (len(self.vertices),),
            tuple(sorted(map(str, self.vertices))),
            tuple(sorted(map(str, self.glued))),
        )

    def __repr__(self):
        vs = " ".join(sorted(map(str, self.vertices)))
        zs = " ".join(sorted(map(str, self.glued)))
        return f"[vertices {vs}; uncut {zs}]" if zs else f"[vertices {vs}]"


def region(g, vertices, glued):
    vertices = frozenset(vertices)
    glued = frozenset(glued)
    ix = index(g)
    if not vertices:
        fail("EmptySubgraph", "a region needs at least one vertex")
    if not vertices <= ix.vbit.keys():
        fail("UnknownVertex", "region vertices must be host vertices")
    vmask = ix.vertex_mask(vertices)
    if not glued <= ix.ebit.keys() or ix.edge_mask(glued) & ~ix.internal(vmask):
        fail("UnknownEdge", "glued edges must be internal to the region")
    x = ix.region(vmask, ix.edge_mask(glued))
    if x is None:
        fail("NotClosed", "region does not realize a connected graph")
    return x


def edge_element(g, e):
    """The class of the edge e, read from the host index."""
    x = index(g).edge_class.get(e)
    if x is None:
        fail("UnknownEdge", f"{e!r}")
    return x


def vertex_element(g, v):
    """The class of the vertex v alone.  A host vertex's class is read from
    the host index; anything else fails as region() does."""
    x = index(g).stars.get(v)
    return region(g, [v], []) if x is None else x


def id_element(g):
    """The class of the whole host."""
    return index(g).top


def enumerate_emb_pieces(g):
    """Edge and connected-region classes without the host connectivity
    check; the CLI uses this to report on disconnected inputs."""
    return index(g).emb


def enumerate_emb(g):
    """All of Emb(G) in the deterministic (kind, |S|, S, Z) order."""
    ix = index(g)
    if not ix.host_connected:
        fail("NotConnected", "Emb is defined for connected hosts")
    return ix.emb


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# ---------------------------------------------------------------------------
# the host index: Emb(G) compiled to bitmasks


def index(g):
    """The HostIndex of g, built on first use and kept on the graph, so it
    lives and dies with its host."""
    ix = g.__dict__.get("_emb_index")
    if ix is None:
        ix = g._emb_index = HostIndex(g)
    return ix


class HostIndex:
    """Emb(G) of one host as bitmasks.

    Vertex i of ``g.vertices`` is bit i of a vertex mask, edge j of
    ``g.edge_keys`` bit j of an edge mask.  ``code(x)`` is (V, Z, T, C): the
    vertex mask of x, its glued-edge mask, the vertices it touches (the ends
    of an edge, V for a region) and the edges it covers (itself, or the
    edges incident to V).  The regions of Emb(G) are exactly the connected
    (S, Z) with Z among the internal edges of S, so the classes above a
    pair whose vertex sets join to S are a filter of ``by_v[S]``, the
    regions on S in Emb order.
    """

    def __init__(self, g):
        self.host = g
        self.vbit = {v: 1 << i for i, v in enumerate(g.vertices)}
        self.ebit = {e: 1 << j for j, e in enumerate(g.edge_keys)}
        # per edge: (edge bit, end mask, both ends attached)
        self.edge_ends = [
            (self.ebit[e], self.vertex_mask(set(g.ends(e)) - {None}), None not in g.ends(e))
            for e in g.edge_keys
        ]
        pieces = [EmbEdge(g, e) for e in g.edge_keys]
        for k in range(1, len(g.vertices) + 1):
            for s in itertools.combinations(g.vertices, k):
                vmask = self.vertex_mask(s)
                internal = self.edges_in(self.internal(vmask))
                for z in _subsets(internal):
                    if self.connected(vmask, self.edge_mask(z)):
                        pieces.append(EmbRegion(g, frozenset(s), frozenset(z)))
        pieces.sort(key=lambda x: x.sort_key())
        self.emb = tuple(pieces)
        self.realized = {}  # class -> realize(class), kept for the host's life
        self._subtrees = {}
        self.host_connected = is_connected(g)

    # the tables below are built on first use: many hosts only list their
    # classes, or are only the target of a map check, which reads codes
    @cached_property
    def codes(self):
        return {x: self._encode(x) for x in self.emb}

    @cached_property
    def by_v(self):
        out = {}
        for x, c in self.codes.items():
            if c[0]:
                out.setdefault(c[0], []).append((c, x))
        return out

    @cached_property
    def stars(self):
        """The class of each vertex alone, with no glued edge, by vertex."""
        return {
            next(iter(x.vertices)): x
            for x in self.emb
            if isinstance(x, EmbRegion) and len(x.vertices) == 1 and not x.glued
        }

    @cached_property
    def top(self):
        """The class of the whole host: its one edge, or the region on all
        its vertices with every internal edge glued."""
        if not self.host_connected:
            fail("NotConnected", "no class of Emb is a disconnected host")
        full = self.vertex_mask(self.host.vertices)
        return self.region(full, self.internal(full)) if full else self.emb[0]

    @cached_property
    def slot_bits(self):
        return {s: 1 << i for i, s in enumerate(self.host.slots)}

    @cached_property
    def profiles(self):
        """boundary_profile of each class."""
        return {x: boundary_profile(x) for x in self.emb}

    @cached_property
    def edge_class(self):
        """The class of each edge, by edge key."""
        return {x.edge: x for x in self.emb if isinstance(x, EmbEdge)}

    @cached_property
    def by_arity(self):
        """The images a graph map may give a vertex, by its arity: each
        class with its boundary as the lists that the map matches up one to
        one (the boundary, or the inputs and the outputs) and a mask of the
        slots on each list, grouped by the lengths of the lists."""
        bit, out = self.slot_bits, {}
        for x, prof in self.profiles.items():
            lists = sides(self.host, prof)
            masks = tuple(sum(map(bit.__getitem__, side)) for side in lists)
            out.setdefault(tuple(map(len, lists)), []).append((x, lists, masks))
        return out

    @cached_property
    def adjacent(self):
        """Per vertex bit, the mask of the other vertices that share an
        edge with it."""
        out = dict.fromkeys(self.vbit.values(), 0)
        for _, ends, both in self.edge_ends:
            if both:
                for bit in mask_bits(ends):
                    out[bit] |= ends & ~bit
        return out

    @cached_property
    def breadth_first(self):
        """The vertices in breadth-first order from the first one, so that
        each later vertex shares an edge with an earlier one."""
        order, seen = [1] if self.vbit else [], 1
        for bit in order:
            order.extend(mask_bits(self.adjacent[bit] & ~seen))
            seen |= self.adjacent[bit]
        return [self.host.vertices[bit.bit_length() - 1] for bit in order]

    @cached_property
    def splits(self):
        """Each region with two or more vertices or a glued edge as a triple
        (x, a, b) with x among unions(a, b): a is x without a vertex that
        leaves it connected and b that vertex's star, or, on one vertex, a
        is x without a glued edge and b that edge.  Listed by size, so that
        a and b come before x."""
        g, out = self.host, []
        big = [(c[0], c[1], x) for x, c in self.codes.items() if c[0] & (c[0] - 1) or c[1]]
        big.sort(key=lambda t: (t[0].bit_count(), t[1].bit_count()))
        for v, z, x in big:
            if not v & (v - 1):
                bit = z & -z
                edge = self.edge_class[g.edge_keys[bit.bit_length() - 1]]
                out.append((x, self.region(v, z ^ bit), edge))
                continue
            for bit in mask_bits(v):
                rest = v ^ bit
                rz = z & self.internal(rest)
                if self.connected(rest, rz):
                    star = self.stars[g.vertices[bit.bit_length() - 1]]
                    out.append((x, self.region(rest, rz), star))
                    break
        return out

    def subtree(self, vmask):
        """The region on vmask with all its internal edges glued (in a tree
        host, the subtree on vmask), or None if no class is; kept by mask."""
        x = self._subtrees.get(vmask)
        if x is None:
            x = self._subtrees[vmask] = self.region(vmask, self.internal(vmask))
        return x

    def vertex_mask(self, vertices):
        return sum(self.vbit[v] for v in vertices)

    def edge_mask(self, edges):
        return sum(self.ebit[e] for e in edges)

    def edges_in(self, emask):
        return [e for e in self.host.edge_keys if self.ebit[e] & emask]

    def internal(self, vmask):
        """Mask of the edges with both ends attached inside vmask."""
        return sum(bit for bit, ends, both in self.edge_ends if both and not ends & ~vmask)

    def incident(self, vmask):
        """Mask of the edges with an end in vmask."""
        return sum(bit for bit, ends, _ in self.edge_ends if ends & vmask)

    def connected(self, vmask, zmask):
        """Do the glued edges zmask join the vertices vmask into one piece?"""
        links = [ends for bit, ends, _ in self.edge_ends if bit & zmask]
        reached, grown = vmask & -vmask, True
        while grown:
            grown = False
            for ends in links:
                if ends & reached and ends & ~reached:
                    reached |= ends
                    grown = True
        return reached == vmask

    def code(self, x):
        """The masks (V, Z, T, C) of the class x of Emb."""
        c = self.codes.get(x)
        if c is None:
            fail("UnknownClass", f"{x!r} is no class of Emb({self.host.name})")
        return c

    def _encode(self, x):
        if isinstance(x, EmbEdge):
            bit = self.ebit[x.edge]
            return 0, 0, self.edge_ends[bit.bit_length() - 1][1], bit
        v = self.vertex_mask(x.vertices)
        return v, self.edge_mask(x.glued), v, self.incident(v)

    def region(self, vmask, zmask):
        """The region with masks (vmask, zmask), or None if no class is."""
        for c, x in self.by_v.get(vmask, ()):
            if c[1] == zmask:
                return x
        return None

    @cached_property
    def disjoint_pairs(self):
        """Positions (i, j), i < j, of the classes of Emb with disjoint
        vertex sets, in the order of itertools.combinations, as two columns."""
        vs = [self.codes[x][0] for x in self.emb]
        pairs = [
            (i, j) for i, j in itertools.combinations(range(len(vs)), 2) if not vs[i] & vs[j]
        ]
        return _columns(pairs, 2)

    @cached_property
    def union_triples(self):
        """Positions (i, j, k), i <= j, in Emb with emb[k] among
        unions(emb[i], emb[j]), in the order of a loop over i, then j, then
        the unions, as three columns.  unions is symmetric, so the pairs
        with j < i would repeat these tests."""
        pos = {x: k for k, x in enumerate(self.emb)}
        triples = [
            (i, j, pos[z])
            for i, x in enumerate(self.emb)
            for j, y in enumerate(self.emb[i:], i)
            for z in unions(x, y)
        ]
        return _columns(triples, 3)


def mask_bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _columns(rows, width):
    """Rows as one tuple per column: a third of the memory of the rows."""
    return tuple(zip(*rows)) or ((),) * width


def is_union_code(cx, cy, cz):
    """Is the class coded cz a union of the classes coded cx and cy?"""
    vx, zx, tx, ex = cx
    vy, zy, ty, ey = cy
    vz, zz, _, ez = cz
    s = vx | vy
    if not s:  # two edges: their union is the edge, if they are one
        return not vz and ex == ey == ez
    z = zx | zy
    return vz == s and zz & z == z and bool(tx & s and ty & s)


def check_host(x, y):
    if x.host is not y.host and x.host != y.host:
        fail("HostMismatch", f"{x!r} vs {y!r}")


# ---------------------------------------------------------------------------
# realization


def realize(x):
    """Canonical representative embedding of the class x, made once and kept
    in the host index: every caller gets the same pair, and none may change it.

    Returns (abstract graph H, EtaleMap H -> host).  An edge at the class's
    vertices that it does not glue is cut: each of its ends there becomes a
    half-edge, loose at the other end, that maps onto the host edge.
    """
    g, ix = x.host, index(x.host)
    if x in ix.realized:
        return ix.realized[x]
    if isinstance(x, EmbEdge):
        e = x.edge
        h = type(g).from_ends(f"{g.name}|{g.slot_of(e)}", {e: (None, None)}, [])
        return ix.realized.setdefault(x, (h, EtaleMap(h, g, {s: s for s in h.slots}, {})))
    ends, comp = {}, {}
    for e in ix.edges_in(ix.code(x)[3]):
        pair = g.ends(e)
        if e in x.glued:
            ends[e] = pair
            s = g.slot_of(e)
            comp[s] = s
            comp[g.partner(s)] = g.partner(s)
            continue
        for i, v in enumerate(pair):
            if v in x.vertices:
                half, ends[half], over = _cut_half(g, e, i, v)
                comp.update(over)
    h = type(g).from_ends(f"{g.name}|{len(x.vertices)}v", ends, sorted(x.vertices))
    return ix.realized.setdefault(x, (h, EtaleMap(h, g, comp, {v: v for v in x.vertices})))


def _cut_half(g, e, i, v):
    """The key and ends of the half-edge at v left by cutting e at its i-th
    end, and where its slots go in the host: the end's own arc a and a new
    arc a~ over a's partner, or e>in / e>out over e."""
    if g.directed:
        half = f"{e}>{('in', 'out')[i]}"
        return half, ((v, None) if i == 0 else (None, v)), {half: e}
    a = e[i]
    return (a, f"{a}~"), (v, None), {a: a, f"{a}~": g.dagger[a]}


# ---------------------------------------------------------------------------
# order, unions, disjointness


def leq(x, y) -> bool:
    """x <= y iff realize(x) factors through realize(y)."""
    check_host(x, y)
    if isinstance(y, EmbEdge):
        return x == y
    ix = index(y.host)
    vx, zx, tx, _ = ix.code(x)
    vy, zy, _, _ = ix.code(y)
    return not (vx & ~vy or zx & ~zy) and bool(tx & vy)


def vertex_disjoint(x, y) -> bool:
    check_host(x, y)
    ix = index(x.host)
    return not ix.code(x)[0] & ix.code(y)[0]


def unions(x, y):
    """All unions of x and y: common upper bounds whose vertex set is the
    union of the two vertex sets.  May be empty or contain several elements."""
    check_host(x, y)
    ix = index(x.host)
    cx, cy = ix.code(x), ix.code(y)
    s = cx[0] | cy[0]
    pool = ix.by_v.get(s, ()) if s else ((cx, x),)
    return tuple(z for cz, z in pool if is_union_code(cx, cy, cz))


# ---------------------------------------------------------------------------
# boundary


def boundary(x):
    """Boundary multiset of the class, as a sorted tuple of host arcs."""
    if x.host.directed:
        fail("HostMismatch", "boundary lists arcs; use in_out on a directed host")
    return boundary_profile(x)


def in_out(x):
    """(inputs, outputs) of the class for a directed host, as sorted tuples."""
    if not x.host.directed:
        fail("HostMismatch", "in_out needs a directed host")
    return boundary_profile(x)


def boundary_profile(x):
    """The boundary of x, as a profile of host slots: both end ports of an
    edge class; for a region, the end ports at its vertices of the edges
    that it does not glue."""
    g = x.host
    if isinstance(x, EmbEdge):
        return by_side(g, g.end_ports(x.edge))
    at = port_table(g)
    ports = [p for v in x.vertices for p in at[v] if g.edge_of(p[1]) not in x.glued]
    return by_side(g, ports)


def boundary_via_realize(x):
    """Independent boundary computation through the realization."""
    h, m = realize(x)
    if isinstance(h, UGraph):
        return tuple(sorted(m.component[a] for a in h.boundary))
    ins = tuple(sorted(m.component[e] for e in h.graph_inputs))
    outs = tuple(sorted(m.component[e] for e in h.graph_outputs))
    return ins, outs


# ---------------------------------------------------------------------------
# pushforward along an embedding (composition at the level of classes)


def class_of_embedding(m: EtaleMap):
    """The Emb element of an embedding, recovered from its image data."""
    g = m.target
    h = m.source
    if not h.vertices:
        (e,) = h.edge_keys
        return EmbEdge(g, m.edge_image(e))
    # an edge stays glued when one intact edge of the domain covers it; the
    # ends of an intact edge go to the embedding's vertices, so it is internal
    images = [m.edge_image(e) for e in h.edge_keys]
    glued = frozenset(
        y for e, y in zip(h.edge_keys, images) if h.is_internal_edge(e) and images.count(y) == 1
    )
    return EmbRegion(g, frozenset(m.vertex_map.values()), glued)


def pushforward(m: EtaleMap, x):
    """Image of x in Emb(target) along the embedding m with source = x.host,
    read from the target's index."""
    if x.host != m.source:
        fail("HostMismatch", "pushforward needs x on the embedding's source")
    ix = index(m.target)
    if isinstance(x, EmbEdge):
        return ix.edge_class[m.edge_image(x.edge)]
    vmask = ix.vertex_mask({m.vertex_map[v] for v in x.vertices})
    return ix.region(vmask, ix.edge_mask({m.edge_image(e) for e in x.glued}))


# ---------------------------------------------------------------------------
# structured subgraphs of acyclic directed graphs


def is_structured(x) -> bool:
    """Unique lifting of directed paths whose end edges land in the class.

    Length-zero paths force injectivity over edges (no cut internal edges);
    longer paths force closure under directed paths between region edges.
    """
    g = x.host
    if not g.directed:
        fail("FlavorMismatch", "structured subgraphs live in directed graphs")
    s = shape(g)
    if not s.is_acyclic:
        fail("NotAcyclic", f"{g.name} is not acyclic")
    if isinstance(x, EmbEdge):
        return True
    ix = index(g)
    vmask, zmask, _, cmask = ix.code(x)
    if zmask != ix.internal(vmask):
        return False
    edges = ix.edges_in(cmask)
    forward = _reach(g, edges, x.vertices, direction="fwd")
    backward = _reach(g, edges, x.vertices, direction="bwd")
    return not (forward & backward)


def _reach(g, region_edges, region_vertices, direction):
    """Vertices outside the region reachable by a directed path leaving
    (direction fwd) or entering (bwd) the region's edges."""
    seen = set()
    frontier = []
    for e in region_edges:
        v = g.inputs.get(e) if direction == "fwd" else g.outputs.get(e)
        if v is not None and v not in region_vertices:
            frontier.append(v)
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        nxt = g.out_of(v) if direction == "fwd" else g.in_of(v)
        for e in nxt:
            w = g.inputs.get(e) if direction == "fwd" else g.outputs.get(e)
            if w is not None and w not in region_vertices and w not in seen:
                frontier.append(w)
    return seen


def enumerate_ssb(g):
    return tuple(x for x in enumerate_emb(g) if is_structured(x))


# ---------------------------------------------------------------------------
# subtree intersection (tree hosts)


def intersect_subtrees(x, y):
    """Intersection of two subtree classes in a tree host; None if disjoint."""
    check_host(x, y)
    ix = index(x.host)
    vx, _, _, cx = ix.code(x)
    vy, _, _, cy = ix.code(y)
    common_v = vx & vy
    if common_v:
        common = ix.subtree(common_v)
        if common is None:
            fail("NotTrees", "the common vertices span no class")
        return common
    common_e = cx & cy
    if not common_e:
        return None
    if common_e & (common_e - 1):
        fail("NotTrees", "multiple common edges without common vertices")
    return ix.edge_class[x.host.edge_keys[common_e.bit_length() - 1]]


def overlap(x, y) -> bool:
    check_host(x, y)
    ix = index(x.host)
    vx, _, _, cx = ix.code(x)
    vy, _, _, cy = ix.code(y)
    return bool(cx & cy or vx & vy)


# ---------------------------------------------------------------------------
# brute-force oracle: embeddings modulo domain isomorphism


def oracle_embedding_classes(g):
    """Enumerate embeddings into g modulo domain iso, from first principles:
    generate candidate domains from degree profiles, enumerate etale maps,
    keep the vertex-injective ones, and quotient by triangle isomorphism."""
    classes = []

    def add(m):
        for rep in classes:
            if _equivalent_over(rep, m):
                return
        classes.append(m)

    lone = make_edge() if isinstance(g, UGraph) else make_edge_dir()
    for m in enumerate_etale(lone, g):
        add(m)
    for h in _candidate_domains(g):
        for m in enumerate_etale(h, g):
            if m.vertex_injective and is_connected(m.source):
                add(m)
    return classes


def _equivalent_over(m1, m2):
    """Does a domain iso sigma with m2 . sigma = m1 exist?"""
    if m1.target != m2.target:
        return False
    h1, h2 = m1.source, m2.source
    if isinstance(h1, UGraph) != isinstance(h2, UGraph):
        return False
    if len(h1.vertices) != len(h2.vertices):
        return False
    if isinstance(h1, UGraph):
        if len(h1.arcs) != len(h2.arcs):
            return False
    elif len(h1.edges) != len(h2.edges):
        return False
    for sigma in enumerate_etale(h1, h2):
        if not sigma.vertex_injective or len(set(sigma.component.values())) != len(
            sigma.component
        ):
            continue
        composed_comp = {a: m2.component[b] for a, b in sigma.component.items()}
        composed_v = {v: m2.vertex_map[w] for v, w in sigma.vertex_map.items()}
        if composed_comp == m1.component and composed_v == m1.vertex_map:
            return True
    return False


def _candidate_domains(g):
    """Connected domains with vertex count at most |V_G|, assembled from
    injectively matched degree profiles: internal edges are partial matchings
    on attachment slots, unmatched slots become boundary legs."""
    verts = sorted(g.vertices)
    seen = set()
    for k in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            for h in _domains_for_profile(g, combo):
                sig = canonical_signature(h)[0]
                if sig not in seen:
                    seen.add(sig)
                    yield h


def _domains_for_profile(g, combo):
    if isinstance(g, UGraph):
        slots = []
        for i, v in enumerate(combo):
            slots.extend((i, n) for n in range(g.degree(v)))
        for matching in _partial_matchings(slots):
            yield _domain_u(len(combo), [g.degree(v) for v in combo], matching)
    else:
        in_slots, out_slots = [], []
        for i, v in enumerate(combo):
            in_slots.extend((i, n) for n in range(len(g.in_of(v))))
            out_slots.extend((i, n) for n in range(len(g.out_of(v))))
        for matching in _bipartite_matchings(out_slots, in_slots):
            yield _domain_d(
                len(combo),
                [len(g.in_of(v)) for v in combo],
                [len(g.out_of(v)) for v in combo],
                matching,
            )


def _partial_matchings(slots):
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for m in _partial_matchings(rest):
        yield m  # first unmatched
    for idx in range(len(rest)):
        pair = (first, rest[idx])
        for m in _partial_matchings(rest[:idx] + rest[idx + 1 :]):
            yield [pair] + m


def _bipartite_matchings(outs, ins):
    if not outs:
        yield []
        return
    first, rest = outs[0], outs[1:]
    for m in _bipartite_matchings(rest, ins):
        yield m
    for idx in range(len(ins)):
        pair = (first, ins[idx])
        for m in _bipartite_matchings(rest, ins[:idx] + ins[idx + 1 :]):
            yield [pair] + m


def _domain_u(k, degrees, matching):
    dagger, t = {}, {}
    matched = set()
    idx = 0
    for (i1, n1), (i2, n2) in matching:
        a, b = f"m{idx}", f"m{idx}*"
        dagger[a], dagger[b] = b, a
        t[a] = f"v{i1}"
        t[b] = f"v{i2}"
        matched.add((i1, n1))
        matched.add((i2, n2))
        idx += 1
    for i, d in enumerate(degrees):
        for n in range(d):
            if (i, n) in matched:
                continue
            a, b = f"p{i}.{n}", f"p{i}.{n}*"
            dagger[a], dagger[b] = b, a
            t[a] = f"v{i}"
    return UGraph(f"dom{k}", dagger, t, [f"v{i}" for i in range(k)])


def _domain_d(k, in_deg, out_deg, matching):
    edges, inputs, outputs = [], {}, {}
    matched_out, matched_in = set(), set()
    idx = 0
    for (i1, n1), (i2, n2) in matching:
        e = f"m{idx}"
        edges.append(e)
        outputs[e] = f"v{i1}"
        inputs[e] = f"v{i2}"
        matched_out.add((i1, n1))
        matched_in.add((i2, n2))
        idx += 1
    for i, d in enumerate(in_deg):
        for n in range(d):
            if (i, n) not in matched_in:
                e = f"pi{i}.{n}"
                edges.append(e)
                inputs[e] = f"v{i}"
    for i, d in enumerate(out_deg):
        for n in range(d):
            if (i, n) not in matched_out:
                e = f"po{i}.{n}"
                edges.append(e)
                outputs[e] = f"v{i}"
    return DGraph(f"dom{k}", edges, inputs, outputs, [f"v{i}" for i in range(k)])
