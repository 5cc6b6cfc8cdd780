"""Etale maps and embeddings between graphs.

An etale map preserves structure and vertex arities: its neighborhood
squares are pullbacks, checked here as per-vertex neighborhood bijectivity.
Embeddings are etale maps between connected graphs that are injective on
vertices; they may still identify arcs (clutching).
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_BUDGET
from .errors import LooseEndsError, fail
from .graphs import DGraph, is_connected, port_table


class EtaleMap:
    """Etale map for either flavor.

    For undirected graphs ``component`` maps arcs to arcs; for directed
    graphs it maps edges to edges.  The dangling/in/out legs are recovered by
    restriction and validated rather than stored separately.
    """

    def __init__(self, source, target, component, vertex_map, check=True):
        self.source = source
        self.target = target
        self.component = dict(component)
        self.vertex_map = dict(vertex_map)
        if check:
            self._validate()
        self._key = (
            source._key,
            target._key,
            tuple(sorted(self.component.items())),
            tuple(sorted(self.vertex_map.items())),
        )

    def __eq__(self, other):
        return isinstance(other, EtaleMap) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"EtaleMap({self.source.name} -> {self.target.name})"

    def _validate(self):
        g, h = self.source, self.target
        f, vmap = self.component, self.vertex_map
        if g.directed != h.directed:
            fail("SourceTargetMismatch", "mixed directedness")
        ports, target_ports = port_table(g), port_table(h)
        for v in g.vertices:
            if vmap.get(v) not in target_ports:
                fail("SquareNotCommuting", f"vertex {v!r} has no valid image")
        target_slots = set(h.slots)
        for s in g.slots:
            if f.get(s) not in target_slots:
                fail("SquareNotCommuting", f"slot {s!r} has no valid image")
        for s in g.slots:
            if f[g.partner(s)] != h.partner(f[s]):
                fail("NotInvolutive", f"at slot {s!r}")
        # each attached end goes to an end attached at the image vertex, on
        # the same side, and the ends at a vertex biject onto those at its image
        images = {v: {(side, f[s]) for side, s in mine} for v, mine in ports.items()}
        for v, image in images.items():
            if not image <= target_ports[vmap[v]]:
                fail("SquareNotCommuting", f"an end at {v!r} leaves its image vertex")
        for v, image in images.items():
            if len(image) != len(ports[v]) or image != target_ports[vmap[v]]:
                fail("NeighborhoodNotBijective", f"at vertex {v!r}")

    def edge_image(self, e):
        """The target edge that the source edge e maps onto."""
        return self.target.edge_of(self.component[self.source.slot_of(e)])

    @property
    def vertex_injective(self):
        vals = list(self.vertex_map.values())
        return len(vals) == len(set(vals))


def validate_etale(source, target, component, vertex_map) -> EtaleMap:
    return EtaleMap(source, target, component, vertex_map)


def is_embedding(f: EtaleMap) -> bool:
    if not (is_connected(f.source) and is_connected(f.target)):
        fail("NotConnected", "embeddings live between connected graphs")
    return f.vertex_injective


def compose_etale(g: EtaleMap, f: EtaleMap) -> EtaleMap:
    if f.target != g.source:
        fail("SourceTargetMismatch", f"{f.target.name} vs {g.source.name}")
    comp = {a: g.component[b] for a, b in f.component.items()}
    vmap = {v: g.vertex_map[w] for v, w in f.vertex_map.items()}
    return EtaleMap(f.source, g.target, comp, vmap)


def enumerate_etale(h, g, budget=DEFAULT_BUDGET):
    """All etale maps h -> g in a deterministic order.

    Vertex images are assigned first, each to a vertex with as many ports on
    each side; the ports at each vertex then go one to one onto the ports at
    its image, side by side, in every order; edges at no vertex take every
    target slot.  EtaleMap validates each candidate.
    """
    if h.directed != g.directed:
        fail("SourceTargetMismatch", "mixed directedness")
    counter = itertools.count(1)

    def tick():
        used = next(counter)
        if used > budget.nodes:
            fail("SearchBudgetExceeded", f"enumerate_etale {h.name} -> {g.name}: {used} nodes used")

    # The engine of oracle_embedding_classes, so it splits ports and fills
    # in free edges itself rather than through the slot-map helpers of
    # gmaps' search: the oracles share no code with the fast path.
    mine, theirs = {}, {}

    def split(graph, v, cache):
        """The slots of the ports at v with their partners, one sorted list
        per side; cached, since only vertices passing the degree test are split."""
        if v not in cache:
            cache[v] = parts = [[] for _ in set(graph.end_sides)]
            for side, s in sorted(port_table(graph)[v]):
                parts[side].append((s, graph.partner(s)))
        return cache[v]

    verts = sorted(h.vertices, key=lambda v: (-h.degree(v), v))
    out = []

    def assign(i, vmap):
        if i == len(verts):
            map_ports(vmap)
            return
        v = verts[i]
        degree = h.degree(v)
        for w in g.vertices:
            tick()
            if g.degree(w) != degree:
                continue
            # equal degrees: equal first sides make equal second sides
            if len(split(g, w, theirs)[0]) != len(split(h, v, mine)[0]):
                continue
            vmap[v] = w
            assign(i + 1, vmap)
        vmap.pop(v, None)

    def map_ports(vmap):
        slots = [s for v in verts for part in mine[v] for s in part]
        pools = [itertools.permutations(part) for v in verts for part in theirs[vmap[v]]]
        for perms in itertools.product(*pools):
            if verts:  # a vertexless source has no assignment to count
                tick()
            phi = {}
            for (s, s_), (c, c_) in zip(slots, itertools.chain.from_iterable(perms)):
                if phi.setdefault(s, c) != c or phi.setdefault(s_, c_) != c_:
                    break
            else:
                free = [s for s in map(h.slot_of, h.edge_keys) if s not in phi]
                for images in itertools.product(g.slots, repeat=len(free)):
                    tick()
                    for s, c in zip(free, images):
                        phi[s], phi[h.partner(s)] = c, g.partner(c)
                    try:
                        out.append(EtaleMap(h, g, phi, vmap))
                    except LooseEndsError:
                        pass

    assign(0, {})
    out.sort(key=lambda m: m._key)
    return out


def lift_embedding_directed(f: EtaleMap, host: DGraph):
    """Lift an undirected embedding f : G >-> underlying(host) to a directed
    graph G' and embedding G' >-> host.

    Relies on the e+/e- naming convention of underlying(): the +-arc sits at
    the input end, the --arc at the output end.
    """
    if not is_embedding(f):
        fail("NotEmbedding")
    g = f.source
    u = f.target
    expected = {f"{e}{s}" for e in host.edges for s in "+-"}
    if set(u.arcs) != expected:
        fail("SourceTargetMismatch", "target of f is not underlying(host)")
    # name directed edges by the source edge keys for stability
    edge_names = {}
    inputs, outputs = {}, {}
    for a, v in g.t.items():
        b = f.component[a]
        e_host = _host_edge_of_arc(b)
        e_src = g.edge_key(a)
        edge_names.setdefault(e_src, "|".join(e_src))
        if b.endswith("+"):
            inputs[edge_names[e_src]] = v
        else:
            outputs[edge_names[e_src]] = v
    for a in g.arcs:  # edges of g not touching a vertex (lone edge case)
        e_src = g.edge_key(a)
        edge_names.setdefault(e_src, "|".join(e_src))
    lifted = DGraph(f"{g.name}^", sorted(edge_names.values()), inputs, outputs, g.vertices)
    edge_map = {}
    for e_src, name in edge_names.items():
        b = f.component[e_src[0]]
        edge_map[name] = _host_edge_of_arc(b)
    f_dir = EtaleMap(lifted, host, edge_map, dict(f.vertex_map))
    return lifted, f_dir


def _host_edge_of_arc(b):
    # arcs of underlying() are named e+ / e-
    return b[:-1]
