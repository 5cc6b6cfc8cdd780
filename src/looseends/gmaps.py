"""Morphisms of the graph categories and their structure.

A graph map is a pair (phi0, phi_hat): an involutive arc function (edge
function in the directed case) together with a total function on embedding
classes that sends edges to edges, preserves unions, preserves vertex
disjointness, and is boundary-compatible.  Active maps preserve the maximum
class; inert maps restrict to vertices.  Tree maps are determined by their
vertex data and extend uniquely; general maps store the full table.
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_BUDGET
from .emb import (
    EmbEdge,
    EmbRegion,
    boundary_profile,
    edge_element,
    enumerate_emb,
    id_element,
    index,
    internal_edges_of,
    is_structured,
    is_union_code,
    pushforward,
    realize,
    unions,
    vertex_element,
)
from .errors import LooseEndsError, fail
from .etale import EtaleMap
from .graphs import (
    DGraph,
    UGraph,
    complete_slot_maps,
    extend_slot_map,
    is_connected,
    shape,
)


class GraphMap:
    def __init__(self, source, target, phi0, phi_hat, check=True):
        self.source = source
        self.target = target
        self.phi0 = dict(phi0)
        self.phi_hat = dict(phi_hat)
        if check:
            validate_graph_map(self)

    def __eq__(self, other):
        return isinstance(other, GraphMap) and (
            self.source == other.source
            and self.target == other.target
            and self.phi0 == other.phi0
            and self.phi_hat == other.phi_hat
        )

    def __hash__(self):
        # phi0 and the hosts tell most maps apart; equal maps agree on them
        return hash((self.source, self.target, frozenset(self.phi0.items())))

    def __repr__(self):
        return f"GraphMap({self.source.name} -> {self.target.name})"

    def push_boundary(self, profile):
        """Apply N(phi0) to a boundary profile (multiset as sorted tuple)."""
        if isinstance(self.source, UGraph):
            return tuple(sorted(self.phi0[a] for a in profile))
        ins, outs = profile
        return (
            tuple(sorted(self.phi0[e] for e in ins)),
            tuple(sorted(self.phi0[e] for e in outs)),
        )

    def edge_image(self, e):
        """The target edge that phi0 sends the source edge e onto."""
        return self.target.edge_of(self.phi0[self.source.slot_of(e)])


def validate_graph_map(m: GraphMap):
    g, gp = m.source, m.target
    if isinstance(g, UGraph) != isinstance(gp, UGraph):
        fail("SourceTargetMismatch", "mixed directedness")
    target_slots = set(gp.slots)
    for s in g.slots:
        if s not in m.phi0 or m.phi0[s] not in target_slots:
            fail("BoundaryIncompatible", f"phi0 not total at {s!r}")
    for s in g.slots:
        if m.phi0[g.partner(s)] != gp.partner(m.phi0[s]):
            fail("NotInvolutive", f"phi0 at arc {s!r}")
    elems = enumerate_emb(g)
    enumerate_emb(gp)  # the target must be connected too
    target_codes = index(gp).codes
    for x in elems:
        if x not in m.phi_hat:
            fail("BoundaryIncompatible", f"phi_hat not total at {x!r}")
        if m.phi_hat[x] not in target_codes:
            fail("BoundaryIncompatible", f"phi_hat lands outside Emb at {x!r}")
    images = [m.phi_hat[x] for x in elems]
    # (i) edges to edges, matching phi0
    for x, y in zip(elems, images):
        if isinstance(x, EmbEdge):
            if not isinstance(y, EmbEdge):
                fail("EdgesNotPreserved", f"{x!r} maps to {y!r}")
            if y.edge != m.edge_image(x.edge):
                fail("BoundaryIncompatible", f"edge image of {x!r} disagrees with phi0")
    # (iv) boundary compatibility
    for x, y in zip(elems, images):
        want = m.push_boundary(boundary_profile(x))
        got = boundary_profile(y)
        if want != got:
            fail("BoundaryIncompatible", f"at {x!r}: {want} vs {got}")
    # (iii) vertex-disjointness and (ii) unions, as mask tests on the codes
    # of the images, over the source's precomputed pairs and triples
    ix = index(g)
    codes = [target_codes[y] for y in images]
    for i, j in zip(*ix.disjoint_pairs):
        if codes[i][0] & codes[j][0]:
            fail("DisjointnessViolated", f"{elems[i]!r}, {elems[j]!r}")
    for i, j, k in zip(*ix.union_triples):
        if not is_union_code(codes[i], codes[j], codes[k]):
            fail("UnionNotPreserved", f"{elems[i]!r} u {elems[j]!r} -> {elems[k]!r}")
    return m


def identity_map(g) -> GraphMap:
    comp = {s: s for s in g.slots}
    phi_hat = {x: x for x in enumerate_emb(g)}
    return GraphMap(g, g, comp, phi_hat, check=False)


def compose(psi: GraphMap, phi: GraphMap, check=False) -> GraphMap:
    if phi.target != psi.source:
        fail("SourceTargetMismatch", f"{phi.target.name} vs {psi.source.name}")
    phi0 = {a: psi.phi0[b] for a, b in phi.phi0.items()}
    phi_hat = {x: psi.phi_hat[y] for x, y in phi.phi_hat.items()}
    return GraphMap(phi.source, psi.target, phi0, phi_hat, check=check)


def map_from_embedding(m: EtaleMap) -> GraphMap:
    """The inert map induced by an embedding: post-composition on classes."""
    g = m.source
    phi_hat = {x: pushforward(m, x) for x in enumerate_emb(g)}
    return GraphMap(g, m.target, m.component, phi_hat, check=False)


def is_active(m: GraphMap) -> bool:
    """The whole source goes to the whole target."""
    return m.phi_hat[id_element(m.source)] == id_element(m.target)


def is_inert(m: GraphMap) -> bool:
    """Each vertex goes to one vertex: the class of every source vertex maps
    to the class of a single target vertex with no glued edge."""
    return all(
        isinstance(y, EmbRegion) and len(y.vertices) == 1 and not y.glued
        for y in map(m.phi_hat.__getitem__, index(m.source).stars.values())
    )


# ---------------------------------------------------------------------------
# tree maps


def tree_boundary_of_vertex(g, v):
    """Boundary profile of the star class at v."""
    return boundary_profile(vertex_element(g, v))


def check_tree_map_data(g, gp, phi0, phi1):
    for v in g.vertices:
        probe = GraphMap(g, gp, phi0, {}, check=False)
        want = probe.push_boundary(tree_boundary_of_vertex(g, v))
        got = boundary_profile(phi1[v])
        if want != got:
            fail("BoundaryIncompatible", f"vertex {v!r}: {want} vs {got}")


def extend_tree_map(g, gp, phi0, phi1) -> GraphMap:
    """Unique full tree map restricting to the vertex data (phi0, phi1).

    Builds phi_hat by peeling stars: a subtree with n+1 vertices is the
    union of a subtree with n vertices and an extremal star, and unions of
    subtrees in a tree are unique.
    """
    if not (shape(g).is_tree and shape(gp).is_tree):
        fail("NotTrees")
    check_tree_map_data(g, gp, phi0, phi1)
    probe = GraphMap(g, gp, phi0, {}, check=False)
    phi_hat = {}
    for x in enumerate_emb(g):
        if isinstance(x, EmbEdge):
            phi_hat[x] = edge_element(gp, probe.edge_image(x.edge))
        elif len(x.vertices) == 1:
            (v,) = x.vertices
            phi_hat[x] = phi1[v]
    for x in sorted(
        (x for x in enumerate_emb(g) if isinstance(x, EmbRegion) and len(x.vertices) > 1),
        key=lambda x: len(x.vertices),
    ):
        u = _extremal_vertex(g, x.vertices)
        rest = x.vertices - {u}
        smaller = EmbRegion(g, rest, internal_edges_of(g, rest))
        opts = unions(phi_hat[smaller], phi_hat[vertex_element(g, u)])
        if len(opts) != 1:
            fail(
                "BoundaryIncompatible",
                f"no unique union while extending at {sorted(x.vertices)}",
            )
        phi_hat[x] = opts[0]
    return GraphMap(g, gp, phi0, phi_hat, check=True)


def _extremal_vertex(g, vertex_set):
    """A vertex adjacent to exactly one other vertex of the set (tree hosts)."""
    for v in sorted(vertex_set):
        neighbors = set()
        for e in internal_edges_of(g, vertex_set):
            x, y = g.ends(e)
            if v == x and y != v:
                neighbors.add(y)
            if v == y and x != v:
                neighbors.add(x)
        if len(neighbors) <= 1:
            return v
    fail("NotTrees", "no extremal vertex; host is not a tree")


def restrict_tree_map(m: GraphMap):
    phi1 = {v: m.phi_hat[vertex_element(m.source, v)] for v in m.source.vertices}
    return dict(m.phi0), phi1


# ---------------------------------------------------------------------------
# factorization


def factorize(m: GraphMap):
    """Factor as an active map followed by an inert map, phi = iota . alpha.
    The middle is realized once per class of the target's Emb and kept on
    the target's host index."""
    top = m.phi_hat[id_element(m.source)]
    middles = index(top.host).middles
    if top not in middles:
        middles[top] = realize(top)
    h, incl = middles[top]
    iota = map_from_embedding(incl)
    alpha = _lift_through_embedding(m, incl)
    if alpha is None:
        fail("NoFactorizationFound", "internal error: the theorem guarantees one")
    return alpha, iota


def _lift_through_embedding(m: GraphMap, incl: EtaleMap):
    """Find alpha : source -> H with incl-pushforward matching m."""
    g = m.source
    h = incl.source
    # candidate phi0: lift each edge's first slot through incl's component
    fibers = {}
    for s_h, s_t in incl.component.items():
        fibers.setdefault(s_t, []).append(s_h)
    items = [g.slot_of(e) for e in g.edge_keys]

    def candidates(s):
        return sorted(fibers.get(m.phi0[s], []))

    h_elems = enumerate_emb(h)
    by_push = {}
    for x in h_elems:
        by_push.setdefault(pushforward(incl, x), []).append(x)

    elems = enumerate_emb(g)

    def try_phi0(assign):
        phi0 = {}
        for s, c in assign.items():
            phi0[s] = c
            phi0[g.partner(s)] = h.partner(c)
        probe = GraphMap(g, h, phi0, {}, check=False)
        # assign phi_hat elementwise from pushforward fibers, pruned by
        # boundary compatibility, then check the remaining map conditions
        table = {}

        def fill(i):
            if i == len(elems):
                try:
                    return GraphMap(g, h, phi0, dict(table), check=True)
                except LooseEndsError:
                    return None
            x = elems[i]
            want = probe.push_boundary(boundary_profile(x))
            for y in by_push.get(m.phi_hat[x], []):
                if boundary_profile(y) != want:
                    continue
                table[x] = y
                res = fill(i + 1)
                if res is not None:
                    return res
                del table[x]
            return None

        return fill(0)

    def assign_items(i, assign):
        if i == len(items):
            return try_phi0(assign)
        it = items[i]
        for b in candidates(it):
            assign[it] = b
            res = assign_items(i + 1, assign)
            if res is not None:
                return res
            del assign[it]
        return None

    return assign_items(0, {})


# ---------------------------------------------------------------------------
# vertex functor into pointed finite sets


def vertex_functor(m: GraphMap):
    """Pointed map (V_target)+ -> (V_source)+ : w goes to the v whose star
    image contains w, or to the basepoint (None)."""
    table = {}
    for w in m.target.vertices:
        table[w] = None
        for v in m.source.vertices:
            img = m.phi_hat[vertex_element(m.source, v)]
            if w in img.vertex_set:
                table[w] = v
                break
    return table


def compose_pointed(inner, outer):
    """Composite of vertex_functor tables: V(psi . phi) = V(phi) . V(psi)."""
    return {w: (inner.get(v) if v is not None else None) for w, v in outer.items()}


# ---------------------------------------------------------------------------
# category membership


CATEGORY_TAGS = ("U", "Ucyc", "U0", "O", "O0", "Omega", "Delta", "G")


def object_in_category(g, tag) -> bool:
    s = shape(g)
    if tag == "U":
        return isinstance(g, UGraph) and s.is_connected
    if tag == "U0":
        return isinstance(g, UGraph) and s.is_tree
    if tag == "Ucyc":
        return isinstance(g, UGraph) and s.is_tree and bool(g.boundary)
    if tag == "O":
        return isinstance(g, DGraph) and s.is_connected
    if tag == "O0":
        return isinstance(g, DGraph) and s.is_tree
    if tag == "Omega":
        return (
            isinstance(g, DGraph)
            and s.is_tree
            and all(len(g.out_of(v)) == 1 for v in g.vertices)
        )
    if tag == "Delta":
        return isinstance(g, DGraph) and s.is_linear
    if tag == "G":
        return isinstance(g, DGraph) and bool(s.is_acyclic)
    fail("UnknownEdge", f"unknown category tag {tag!r}")


def morphism_in_category(m: GraphMap, tag) -> bool:
    if not (object_in_category(m.source, tag) and object_in_category(m.target, tag)):
        return False
    if tag == "G":
        return is_structured(m.phi_hat[id_element(m.source)])
    return True


# ---------------------------------------------------------------------------
# enumeration of graph maps (used as the brute-force oracle and site builder)


def enumerate_graph_maps(g, gp, tag=None, budget=DEFAULT_BUDGET):
    """All graph maps g -> gp, optionally filtered to a category tag.

    Search order: vertex classes get target classes with matching boundary
    size together with a bijection of boundaries (fixing phi0 on the touched
    arcs), then any untouched edges get images, then the remaining region
    classes are filled in boundary-compatible ways; full validation runs on
    each complete candidate.
    """
    if isinstance(g, UGraph) != isinstance(gp, UGraph):
        return []
    if tag is not None and not (
        object_in_category(g, tag) and object_in_category(gp, tag)
    ):
        return []
    counter = itertools.count()

    def tick():
        if next(counter) > budget.nodes:
            fail("SearchBudgetExceeded", "enumerate_graph_maps")

    target_elems = enumerate_emb(gp)
    by_boundary = {}
    for y in target_elems:
        by_boundary.setdefault(boundary_profile(y), []).append(y)

    undirected = isinstance(g, UGraph)

    def sides(x):
        """The boundary lists a map must match up bijectively: the boundary,
        or the inputs and the outputs."""
        prof = boundary_profile(x)
        return (prof,) if undirected else prof

    verts = sorted(g.vertices)
    stars = [sides(vertex_element(g, v)) for v in verts]
    images = [(y, sides(y)) for y in target_elems]
    out = []

    def vertex_assignments(i, phi0, phi1):
        tick()
        if i == len(verts):
            for full0 in complete_slot_maps(phi0, g, gp):
                tick()
                fill_regions(full0, dict(phi1))
            return
        v, mine = verts[i], stars[i]
        for y, prof in images:
            if list(map(len, prof)) != list(map(len, mine)):
                continue
            for perms in itertools.product(*map(itertools.permutations, prof)):
                tick()
                pairs = zip(itertools.chain(*mine), itertools.chain(*perms))
                new = extend_slot_map(phi0, pairs, g, gp)
                if new is None:
                    continue
                phi0.update(new)
                phi1[v] = y
                vertex_assignments(i + 1, phi0, phi1)
                del phi1[v]
                for k in new:
                    del phi0[k]

    elems = enumerate_emb(g)
    big_regions = [
        x
        for x in elems
        if isinstance(x, EmbRegion) and (len(x.vertices) > 1 or x.glued)
    ]

    def fill_regions(phi0, phi1):
        probe = GraphMap(g, gp, phi0, {}, check=False)
        table = {}
        for x in elems:
            if isinstance(x, EmbEdge):
                table[x] = EmbEdge(gp, probe.edge_image(x.edge))
            elif len(x.vertices) == 1 and not x.glued:
                (v,) = x.vertices
                table[x] = phi1[v]

        def rec(i):
            tick()
            if i == len(big_regions):
                try:
                    cand = GraphMap(g, gp, phi0, dict(table), check=True)
                except LooseEndsError:
                    return
                if tag is None or morphism_in_category(cand, tag):
                    out.append(cand)
                return
            x = big_regions[i]
            want = probe.push_boundary(boundary_profile(x))
            for y in by_boundary.get(want, []):
                table[x] = y
                rec(i + 1)
                del table[x]

        rec(0)

    vertex_assignments(0, {}, {})
    out.sort(key=_sort_key)
    return out


def _sort_key(m):
    """The order of a hom-set: hosts, then phi0, then phi_hat by repr."""
    return (
        m.source._key,
        m.target._key,
        tuple(sorted(m.phi0.items())),
        tuple(sorted((repr(k), repr(v)) for k, v in m.phi_hat.items())),
    )


# ---------------------------------------------------------------------------
# active cover star and hypermoment data


def star_cover(g):
    """A star with the same boundary as g, plus the active cover map onto g.

    Boundary arcs keep their host names; their star-side partners are fresh,
    so this also works when both arcs of a host edge are boundary.
    """
    if not is_connected(g):
        fail("NotConnected")
    if isinstance(g, UGraph):
        dagger, t, phi0 = {}, {}, {}
        for a in g.boundary:
            tip = f"{a}^"
            dagger[a], dagger[tip] = tip, a
            t[tip] = "c"
            phi0[a] = a
            phi0[tip] = g.dagger[a]
        star = UGraph(f"star({g.name})", dagger, t, ["c"])
        phi_hat = {}
        for x in enumerate_emb(star):
            if isinstance(x, EmbEdge):
                phi_hat[x] = edge_element(g, g.edge_key(phi0[x.edge[0]]))
            else:
                phi_hat[x] = id_element(g)
        return star, GraphMap(star, g, phi0, phi_hat, check=True)
    edges, inputs, outputs, phi0 = [], {}, {}, {}
    for e in g.graph_inputs:
        name = f"{e}.i"
        edges.append(name)
        inputs[name] = "c"
        phi0[name] = e
    for e in g.graph_outputs:
        name = f"{e}.o"
        edges.append(name)
        outputs[name] = "c"
        phi0[name] = e
    star = DGraph(f"star({g.name})", edges, inputs, outputs, ["c"])
    phi_hat = {}
    for x in enumerate_emb(star):
        if isinstance(x, EmbEdge):
            phi_hat[x] = edge_element(g, phi0[x.edge])
        else:
            phi_hat[x] = id_element(g)
    return star, GraphMap(star, g, phi0, phi_hat, check=True)
