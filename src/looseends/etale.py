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
from .graphs import DGraph, UGraph, is_connected, port_table


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


def identity_etale(g) -> EtaleMap:
    comp = {s: s for s in g.slots}
    return EtaleMap(g, g, comp, {v: v for v in g.vertices}, check=False)


def compose_etale(g: EtaleMap, f: EtaleMap) -> EtaleMap:
    if f.target != g.source:
        fail("SourceTargetMismatch", f"{f.target.name} vs {g.source.name}")
    comp = {a: g.component[b] for a, b in f.component.items()}
    vmap = {v: g.vertex_map[w] for v, w in f.vertex_map.items()}
    return EtaleMap(f.source, g.target, comp, vmap)


def enumerate_etale(h, g, budget=DEFAULT_BUDGET):
    """All etale maps h -> g in a deterministic order.

    Vertex images are assigned first; neighborhoods then extend by one
    bijection choice per vertex; finally global arc consistency is checked.
    """
    if isinstance(h, UGraph) != isinstance(g, UGraph):
        fail("SourceTargetMismatch", "mixed directedness")
    counter = itertools.count(1)

    def tick():
        used = next(counter)
        if used > budget.nodes:
            fail("SearchBudgetExceeded", f"enumerate_etale {h.name} -> {g.name}: {used} nodes used")

    out = []
    if isinstance(h, UGraph):
        _enumerate_etale_u(h, g, out, tick)
    else:
        _enumerate_etale_d(h, g, out, tick)
    out.sort(key=lambda m: m._key)
    return out


def _enumerate_etale_u(h, g, out, tick):
    verts = sorted(h.vertices, key=lambda v: (-h.degree(v), v))

    def vertex_arcs(vmap):
        """Extend vertex assignment over neighborhood bijections, then close
        over the involution and check totality."""
        choices = []
        for v in verts:
            mine = sorted(h.nbhd(v))
            theirs = sorted(g.nbhd(vmap[v]))
            if len(mine) != len(theirs):
                return
            choices.append((mine, theirs))
        for assignment in itertools.product(
            *(itertools.permutations(theirs) for _, theirs in choices)
        ):
            tick()
            arc_map = {}
            ok = True
            for (mine, _), perm in zip(choices, assignment):
                for a, b in zip(mine, perm):
                    arc_map[a] = b
            # close over the involution; free arcs (both ends boundary) are
            # only possible in an edge-only graph handled below
            for a in h.arcs:
                if a in arc_map:
                    partner = h.dagger[a]
                    want = g.dagger[arc_map[a]]
                    if partner in arc_map and arc_map[partner] != want:
                        ok = False
                        break
            if not ok:
                continue
            full = dict(arc_map)
            for a in h.arcs:
                if a in full and h.dagger[a] not in full:
                    full[h.dagger[a]] = g.dagger[full[a]]
            free = sorted({h.edge_key(a) for a in h.arcs if a not in full})
            for images in itertools.product(sorted(g.arcs), repeat=len(free)):
                tick()
                total = dict(full)
                for (a0, a1), b in zip(free, images):
                    total[a0], total[a1] = b, g.dagger[b]
                try:
                    out.append(EtaleMap(h, g, total, dict(vmap)))
                except LooseEndsError:
                    continue

    if not verts:
        for e_arcs in [(a, h.dagger[a]) for a in sorted(h.arcs)][:1]:
            a0, a1 = e_arcs
            for b in sorted(g.arcs):
                tick()
                out.append(EtaleMap(h, g, {a0: b, a1: g.dagger[b]}, {}))
        return

    def assign(i, vmap):
        if i == len(verts):
            vertex_arcs(vmap)
            return
        v = verts[i]
        for w in sorted(g.vertices):
            tick()
            if len(g.nbhd(w)) != len(h.nbhd(v)):
                continue
            vmap[v] = w
            assign(i + 1, vmap)
            del vmap[v]

    assign(0, {})


def _enumerate_etale_d(h, g, out, tick):
    verts = sorted(h.vertices, key=lambda v: (-h.degree(v), v))

    if not verts:
        (e,) = h.edges if len(h.edges) == 1 else (None,)
        if e is None:
            return
        for d in sorted(g.edges):
            tick()
            out.append(EtaleMap(h, g, {e: d}, {}))
        return

    def slot_maps(vmap):
        per_vertex = []
        for v in verts:
            ins_mine, ins_theirs = sorted(h.in_of(v)), sorted(g.in_of(vmap[v]))
            outs_mine, outs_theirs = sorted(h.out_of(v)), sorted(g.out_of(vmap[v]))
            if len(ins_mine) != len(ins_theirs) or len(outs_mine) != len(outs_theirs):
                return
            per_vertex.append((ins_mine, ins_theirs, outs_mine, outs_theirs))
        pools = []
        for ins_mine, ins_theirs, outs_mine, outs_theirs in per_vertex:
            pools.append(
                [
                    (pi, po)
                    for pi in itertools.permutations(ins_theirs)
                    for po in itertools.permutations(outs_theirs)
                ]
            )
        for assignment in itertools.product(*pools):
            tick()
            edge_map = {}
            ok = True
            for (ins_mine, _, outs_mine, _), (pi, po) in zip(per_vertex, assignment):
                for e, d in itertools.chain(zip(ins_mine, pi), zip(outs_mine, po)):
                    if edge_map.get(e, d) != d:
                        ok = False
                        break
                    edge_map[e] = d
                if not ok:
                    break
            if not ok:
                continue
            free = sorted(e for e in h.edges if e not in edge_map)
            for images in itertools.product(sorted(g.edges), repeat=len(free)):
                tick()
                total = dict(edge_map)
                total.update(zip(free, images))
                try:
                    out.append(EtaleMap(h, g, total, dict(vmap)))
                except LooseEndsError:
                    continue

    def assign(i, vmap):
        if i == len(verts):
            slot_maps(vmap)
            return
        v = verts[i]
        for w in sorted(g.vertices):
            tick()
            if len(g.in_of(w)) != len(h.in_of(v)) or len(g.out_of(w)) != len(h.out_of(v)):
                continue
            vmap[v] = w
            assign(i + 1, vmap)
            del vmap[v]

    assign(0, {})


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


def boundary_mono(f: EtaleMap) -> bool:
    """Empirical check that boundary arcs inject into the target arc set."""
    g = f.source
    image = [f.component[a] for a in g.boundary]
    return len(image) == len(set(image))
