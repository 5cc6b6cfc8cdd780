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
    is_structured,
    is_union_code,
    pushforward,
    realize,
    unions,
    vertex_element,
)
from .errors import fail
from .etale import EtaleMap
from .graphs import UGraph, complete_slot_maps, extend_slot_map, shape, sides


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
    codes = _check_slots_and_boundaries(m)
    if fault := _join_fault(index(m.source), codes):
        fail(*fault)
    return m


def _check_slots_and_boundaries(m: GraphMap):
    """Totality, involution, edges to edges, boundaries: what the search
    builds.  Returns the codes of the images, in the source's Emb order."""
    g, gp = m.source, m.target
    if g.directed != gp.directed:
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
    ix, tix = index(g), index(gp)
    target_codes = tix.codes
    for x in elems:
        if x not in m.phi_hat:
            fail("BoundaryIncompatible", f"phi_hat not total at {x!r}")
        if m.phi_hat[x] not in target_codes:
            fail("BoundaryIncompatible", f"phi_hat lands outside Emb at {x!r}")
    images = list(map(m.phi_hat.__getitem__, elems))
    # (i) edges to edges, matching phi0
    for x, y in zip(elems, images):
        if isinstance(x, EmbEdge):
            if not isinstance(y, EmbEdge):
                fail("EdgesNotPreserved", f"{x!r} maps to {y!r}")
            if y.edge != m.edge_image(x.edge):
                fail("BoundaryIncompatible", f"edge image of {x!r} disagrees with phi0")
    # (iv) boundary compatibility
    for x, y, prof in zip(elems, images, ix.profiles.values()):
        want = m.push_boundary(prof)
        got = tix.profiles[y]
        if want != got:
            fail("BoundaryIncompatible", f"at {x!r}: {want} vs {got}")
    return list(map(target_codes.__getitem__, images))


def _join_fault(ix, codes):
    """The first fault at (iii) disjointness or (ii) unions, as (code, message),
    or None, of a map whose images of ix.emb have the codes ``codes``."""
    for i, j in zip(*ix.disjoint_pairs):
        if codes[i][0] & codes[j][0]:
            return "DisjointnessViolated", f"{ix.emb[i]!r}, {ix.emb[j]!r}"
    for i, j, k in zip(*ix.union_triples):
        if not is_union_code(codes[i], codes[j], codes[k]):
            return "UnionNotPreserved", f"{ix.emb[i]!r} u {ix.emb[j]!r} -> {ix.emb[k]!r}"
    return None


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


def extend_tree_map(g, gp, phi0, phi1) -> GraphMap:
    """Unique full tree map restricting to the vertex data (phi0, phi1).

    Builds phi_hat by peeling stars: a subtree with n+1 vertices is the
    union of a subtree with n vertices and an extremal star, and unions of
    subtrees in a tree are unique.  The host index's splits list exactly
    these peels, by size, each subtree split off its first leaf.
    """
    if not (shape(g).is_tree and shape(gp).is_tree):
        fail("NotTrees")
    probe = GraphMap(g, gp, phi0, {}, check=False)
    ix = index(g)
    for v in g.vertices:
        want = probe.push_boundary(ix.profiles[ix.stars[v]])
        got = boundary_profile(phi1[v])
        if want != got:
            fail("BoundaryIncompatible", f"vertex {v!r}: {want} vs {got}")
    phi_hat = {x: edge_element(gp, probe.edge_image(e)) for e, x in ix.edge_class.items()}
    phi_hat.update((x, phi1[v]) for v, x in ix.stars.items())
    for x, a, star in ix.splits:
        opts = unions(phi_hat[a], phi_hat[star])
        if len(opts) != 1:
            where = sorted(x.vertices)
            fail("BoundaryIncompatible", f"no unique union while extending at {where}")
        phi_hat[x] = opts[0]
    return GraphMap(g, gp, phi0, phi_hat, check=True)


def restrict_tree_map(m: GraphMap):
    phi1 = {v: m.phi_hat[vertex_element(m.source, v)] for v in m.source.vertices}
    return dict(m.phi0), phi1


# ---------------------------------------------------------------------------
# factorization


def factorize(m: GraphMap):
    """Factor as an active map followed by an inert map, phi = iota . alpha.

    The middle H realizes top = phi_hat(whole source), one graph per class
    of the target's Emb, which realize keeps.  alpha is built, not
    searched for: a class sent to a region goes to the region of H over it;
    a slot on such a class's boundary goes to the slot over its image on
    the same boundary side of that region (unique: where top cuts an edge,
    only one of the two slots over a host slot lies on a given side), and
    its partner to that slot's partner; any other slot has one slot over
    its image; an edge class, or a region sent to an edge, goes to the edge
    of H that alpha gives its first boundary slot.  A missing or doubled
    candidate, a conflict, or a composite other than m (a corrupted table)
    fails NoFactorizationFound.
    """
    g = m.source
    top = m.phi_hat.get(id_element(g))
    if top is None:
        fail("NoFactorizationFound", "phi_hat has no image of the whole source")
    h, incl = realize(top)
    iota = map_from_embedding(incl)
    over = {y: x for x, y in iota.phi_hat.items() if isinstance(x, EmbRegion)}
    ix, hix = index(g), index(h)
    phi0, table, to_edges = {}, {}, []
    for x in enumerate_emb(g):
        y = over.get(m.phi_hat.get(x))
        if y is None:
            to_edges.append(x)
            continue
        table[x] = y
        pairs = []
        for side, hside in zip(sides(g, ix.profiles[x]), sides(h, hix.profiles[y])):
            lift = {incl.component[c]: c for c in hside}
            pairs += [(s, lift.get(m.phi0.get(s))) for s in side]
        new = None if any(c is None for _, c in pairs) else extend_slot_map(phi0, pairs, g, h)
        if new is None:
            fail("NoFactorizationFound", f"no unique slot lifts at {x!r}")
        phi0.update(new)
    fibers = {}
    for c, t in incl.component.items():
        fibers.setdefault(t, []).append(c)
    for s in g.slots:
        if s not in phi0:
            cs = fibers.get(m.phi0.get(s), ())
            if len(cs) != 1:
                fail("NoFactorizationFound", f"{len(cs)} slots over the image of {s!r}")
            phi0[s] = cs[0]
    for x in to_edges:
        first = next(itertools.chain(*sides(g, ix.profiles[x])), None)
        if first is None or not isinstance(m.phi_hat.get(x), EmbEdge):
            fail("NoFactorizationFound", f"{x!r} goes to no class of the middle")
        table[x] = hix.edge_class[h.edge_of(phi0[first])]
    alpha = GraphMap(g, h, phi0, table, check=True)
    if compose(iota, alpha) != m:
        fail("NoFactorizationFound", "the map does not factor through its middle")
    return alpha, iota


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


# ---------------------------------------------------------------------------
# category membership


DIRECTED_TAGS = ("O", "O0", "Omega", "Delta", "G")
CATEGORY_TAGS = ("U", "Ucyc", "U0") + DIRECTED_TAGS


def object_in_category(g, tag) -> bool:
    if tag not in CATEGORY_TAGS:
        fail("UnknownCategory", f"unknown category tag {tag!r}")
    if g.directed != (tag in DIRECTED_TAGS):
        return False
    s = shape(g)
    if tag in ("U", "O"):
        return s.is_connected
    if tag in ("U0", "O0"):
        return s.is_tree
    if tag == "Ucyc":
        return s.is_tree and bool(g.boundary)
    if tag == "Omega":
        return s.is_tree and all(len(g.out_of(v)) == 1 for v in g.vertices)
    if tag == "Delta":
        return s.is_linear
    return bool(s.is_acyclic)


def morphism_in_category(m: GraphMap, tag) -> bool:
    if not (object_in_category(m.source, tag) and object_in_category(m.target, tag)):
        return False
    if tag == "G":
        return is_structured(m.phi_hat[id_element(m.source)])
    return True


# ---------------------------------------------------------------------------
# enumeration of graph maps (A04 checks it against extend_tree_map) and of
# active maps (the site builder)


def enumerate_graph_maps(g, gp, tag=None, budget=DEFAULT_BUDGET):
    """All graph maps g -> gp in hom-set order, optionally only those in
    the category tag.

    The search propagates phi0.  Vertices are placed in breadth-first
    order: each goes to a target class whose boundary holds the images
    already fixed at its star, and its free star arcs are permuted over the
    rest of that boundary.  Edge classes follow from phi0.  Each larger
    region is a union of two classes placed before it (``HostIndex.splits``)
    and a graph map preserves unions, so its image is among the unions of
    their images, with the pushed boundary.  So each candidate is built
    total, involutive, edge- and boundary-compatible, ``_join_fault``
    checks the rest, and the maps are sorted by ``_sort_key``.  Sites use
    ``enumerate_active_maps``; tests hold both to this reference search.
    """
    if g.directed != gp.directed:
        return []
    if tag is not None and not (object_in_category(g, tag) and object_in_category(gp, tag)):
        return []
    out = _search(g, gp, budget, "enumerate_graph_maps")
    if tag == "G":
        out = [m for m in out if is_structured(m.phi_hat[id_element(g)])]
    out.sort(key=_sort_key)
    return out


def enumerate_active_maps(g, gp, budget=DEFAULT_BUDGET):
    """The active maps g -> gp, in search order: those maps of
    ``enumerate_graph_maps`` that send the whole source to the whole target;
    the site builder sorts them once they are composed with inclusions.

    Boundary compatibility at the whole source then matches the boundary of
    g one to one with the boundary of gp, side by side.  So only hosts with
    boundaries of equal size per side have active maps, and the search
    takes one more rule: a boundary slot of g goes to a boundary slot of gp
    on its side, no two to one.  The whole of an acyclic target is
    structured, so G needs no filter here.
    """
    ends = [sides(h, index(h).profiles[id_element(h)]) for h in (g, gp)]
    if [len(side) for side in ends[0]] != [len(side) for side in ends[1]]:
        return []  # also when the flavors differ: one side against two
    onto = {s: (d, frozenset(to)) for d, (side, to) in enumerate(zip(*ends)) for s in side}
    return [m for m in _search(g, gp, budget, "enumerate_active_maps", onto) if is_active(m)]


def _search(g, gp, budget, name, onto=None):
    """The complete candidates g -> gp of propagation with no ``_join_fault``,
    unsorted.  With onto, a dict slot -> (side, slots of gp), each slot of g
    that keys it goes to one of its slots, and no two on one side to one
    slot.  Nodes count against budget; running out names search and pair."""
    used = 0

    def tick():
        nonlocal used
        used += 1
        if used > budget.nodes:
            fail("SearchBudgetExceeded", f"{name} {g.name} -> {gp.name}: {used} nodes used")

    def fits(new):
        hit = {(onto[s][0], phi0[s]) for s in onto if s in phi0}
        for s, c in new.items():
            if s in onto:
                side, to = onto[s]
                if c not in to or (side, c) in hit:
                    return False
                hit.add((side, c))
        return True

    enumerate_emb(g)
    enumerate_emb(gp)  # both hosts must be connected
    ix, tix = index(g), index(gp)
    verts = [ix.stars[v] for v in ix.breadth_first]
    stars = [sides(g, ix.profiles[x]) for x in verts]
    edges = [x for x in ix.emb if isinstance(x, EmbEdge)]
    splits = ix.splits
    bit = tix.slot_bits
    phi0, phi1, out = {}, {}, []

    def place(i):
        tick()
        if i == len(verts):
            for full0 in complete_slot_maps(phi0, g, gp):
                tick()
                fill(full0)
            return
        free = [[s for s in side if s not in phi0] for side in stars[i]]
        taken = [{phi0[s] for s in side if s in phi0} for side in stars[i]]
        if any(len(t) + len(r) < len(side) for t, r, side in zip(taken, free, stars[i])):
            return  # two star arcs already go to one target arc
        fixed = [sum(map(bit.__getitem__, t)) for t in taken]
        for y, lists, masks in tix.by_arity.get(tuple(map(len, stars[i])), ()):
            if any(f & ~m for f, m in zip(fixed, masks)):
                continue
            rest = [[c for c in side if not bit[c] & f] for side, f in zip(lists, fixed)]
            for perms in itertools.product(*map(itertools.permutations, rest)):
                tick()
                pairs = zip(itertools.chain(*free), itertools.chain(*perms))
                new = extend_slot_map(phi0, pairs, g, gp)
                if new is None or onto and not fits(new):
                    continue
                phi0.update(new)
                phi1[verts[i]] = y
                place(i + 1)
                for k in new:
                    del phi0[k]

    def fill(full0):
        probe = GraphMap(g, gp, full0, {}, check=False)
        table = {x: tix.edge_class[probe.edge_image(x.edge)] for x in edges}
        table.update(phi1)
        wants = [probe.push_boundary(ix.profiles[x]) for x, _, _ in splits]

        def rec(i):
            tick()
            if i == len(splits):
                codes = list(map(tix.codes.__getitem__, map(table.__getitem__, ix.emb)))
                if _join_fault(ix, codes) is None:
                    out.append(GraphMap(g, gp, full0, table, check=False))
                return
            x, a, b = splits[i]
            for y in unions(table[a], table[b]):
                if tix.profiles[y] == wants[i]:
                    table[x] = y
                    rec(i + 1)

        rec(0)

    place(0)
    return out


def _sort_key(m):
    """The order of a hom-set: hosts, then phi0, then phi_hat by repr (the
    classes of a host print distinctly, so ``by_repr`` sorts the pairs)."""
    text = index(m.target).by_repr
    return (
        m.source._key,
        m.target._key,
        tuple(sorted(m.phi0.items())),
        tuple((t, text[m.phi_hat[k]]) for k, t in index(m.source).by_repr.items()),
    )
