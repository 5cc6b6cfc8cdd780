"""Finite truncations of the graph categories.

A site holds iso-class representatives within size bounds and complete
hom-sets between them.  The hom-sets are assembled, not searched pair by
pair: every map is an active map onto its middle, the realization of one
class of the target's Emb, followed by the middle's inclusion, uniquely up
to a unique iso of the middle.  So an active search runs only between
objects with boundaries of equal size, and each hom-set is composed from
its results and one inclusion per class, then sorted once (see _Build).

Composition is a lookup: on first use every morphism compiles to a code,
the target positions of the images of its source's slots and of its
source's Emb classes, in the source's order.  Codes compose index by index,
and one dict per site maps a code back to the morphism's position in its
hom-set.  Sites are closed under the middle objects of active-inert
factorizations and under the elementary covers (vertex stars and the edge)
that the Segal condition needs; both can exceed the edge bound.  The
category of elementary covers of each object is built once, on first use.

The category of elements of the orientation presheaf, the bridge for the
restriction / left Kan extension tests, is a directed site on (undirected
object, orientation) pairs.  A base map m : i -> j is lifted once per
orientation y of j, from y restricted along m, through per-pair class tables.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property

from .config import DEFAULT_BOUNDS, DEFAULT_BUDGET
from .emb import (
    EmbEdge,
    edge_element,
    enumerate_emb,
    index,
    is_structured,
    realize,
)
from .errors import fail
from .etale import EtaleMap
from .gen import gen_connected_dgraphs, gen_connected_ugraphs
from .gmaps import (
    DIRECTED_TAGS,
    GraphMap,
    _sort_key,
    compose,
    enumerate_active_maps,
    identity_map,
    is_inert,
    map_from_embedding,
    object_in_category,
)
from .graphs import (
    DGraph,
    UGraph,
    canonical_signature,
    ends_by_edge,
    iso,
    isomorphic,
    shape,
    sides,
)


class Site:
    def __init__(self, tag, objects, homs):
        self.tag = tag
        self.objects = list(objects)
        self.homs = dict(homs)
        self._covers = {}

    def __repr__(self):
        n_maps = sum(len(v) for v in self.homs.values())
        return f"Site({self.tag}, {len(self.objects)} objects, {n_maps} maps)"

    def hom(self, i, j):
        return self.homs.get((i, j), ())

    def morph(self, ref):
        i, j, pos = ref
        return self.homs[(i, j)][pos]

    def all_refs(self):
        for (i, j), maps in sorted(self.homs.items()):
            for pos in range(len(maps)):
                yield (i, j, pos)

    @cached_property
    def _by_signature(self):
        """_signature_index(objects), built on the first find_object."""
        return _signature_index(self.objects)

    @cached_property
    def _positions(self):
        """Per object: the position of each slot, and of each Emb class."""
        return [
            (
                {s: p for p, s in enumerate(g.slots)},
                {x: p for p, x in enumerate(enumerate_emb(g))},
            )
            for g in self.objects
        ]

    @cached_property
    def _codes(self):
        """The code of every morphism by ref, and its inverse."""
        codes, where = {}, {}
        for (i, j), maps in self.homs.items():
            for pos, m in enumerate(maps):
                code = codes[(i, j, pos)] = self._encode(i, j, m)
                if code is not None:
                    where[(i, j, code)] = pos
        return codes, where

    def _encode(self, i, j, m):
        """The code of m : objects[i] -> objects[j], or None when m is no
        total map between them."""
        if m.source != self.objects[i] or m.target != self.objects[j]:
            return None
        (slots_i, emb_i), (slots_j, emb_j) = self._positions[i], self._positions[j]
        code = (
            _image_positions(m.phi0, slots_i, slots_j),
            _image_positions(m.phi_hat, emb_i, emb_j),
        )
        return None if None in code else code

    def locate(self, i, j, m: GraphMap):
        _, where = self._codes
        pos = where.get((i, j, self._encode(i, j, m)))
        if pos is None:
            fail("SiteTooSmall", f"morphism {m!r} missing from hom({i},{j})")
        return (i, j, pos)

    def identity_ref(self, i):
        return self.locate(i, i, identity_map(self.objects[i]))

    def compose_refs(self, ref2, ref1):
        """ref1 : i -> j then ref2 : j -> k, as a located reference."""
        i, j, _ = ref1
        j2, k, _ = ref2
        if j != j2:
            fail("SourceTargetMismatch", "composition of non-adjacent refs")
        codes, where = self._codes
        a0, a1 = codes[ref1]
        b0, b1 = codes[ref2]
        code = tuple(map(b0.__getitem__, a0)), tuple(map(b1.__getitem__, a1))
        pos = where.get((i, k, code))
        if pos is None:
            fail("SiteTooSmall", f"composite of {ref1} and {ref2} missing from hom({i},{k})")
        return (i, k, pos)

    def covers(self, i):
        """elementary_over(self, i), built on first use and kept, like the
        codes, for the life of the site."""
        out = self._covers.get(i)
        if out is None:
            out = self._covers[i] = elementary_over(self, i)
        return out

    def find_object(self, g):
        """Index of the object isomorphic to g, or None."""
        return _find(self.objects, self._by_signature, g, canonical_signature(g)[0])


def _signature_index(objects):
    """Canonical signature -> the indices of the objects that have it."""
    out = {}
    for i, g in enumerate(objects):
        out.setdefault(canonical_signature(g)[0], []).append(i)
    return out


def _find(objects, by_signature, g, sig):
    """Index of the object isomorphic to g, whose signature is sig, or None."""
    for i in by_signature.get(sig, ()):
        if isomorphic(objects[i], g):
            return i
    return None


def _image_positions(table, source, target):
    """The target position of table[x] for each x in source's order, or None
    when table is not a total function from source to target."""
    if len(table) != len(source):
        return None
    out = [None] * len(source)
    for x, y in table.items():
        p, q = source.get(x), target.get(y)
        if p is None or q is None:
            return None
        out[p] = q
    return tuple(out)


def elementary_classes(g):
    """The classes of Emb(g) that elementary covers realize, in Emb order:
    the edges, then the vertex stars."""
    ix = index(g)
    return [*ix.edge_class.values(), *ix.stars.values()]


def elementary_over(site, i):
    """The category of elementary inert covers of object i.

    Objects: one canonical inert cover per edge / vertex class of Emb(G_i),
    located in the site.  Morphisms: inert site morphisms commuting over G_i.
    Returns (covers, arrows): covers maps x -> (k, cover_ref); arrows lists
    (x, y, connecting_ref).  Built afresh on every call; Site.covers keeps
    one per object.
    """
    g = site.objects[i]
    covers = {}
    for x in elementary_classes(g):
        h, incl = realize(x)
        k = site.find_object(h)
        if k is None:
            fail("SiteTooSmall", f"no site object for an elementary cover of {g.name}")
        covers[x] = site.locate(k, i, _inclusion(site.objects[k], h, incl))
    arrows = []
    for x, ref_x in covers.items():
        for y, ref_y in covers.items():
            if x == y:
                continue
            kx, ky = ref_x[0], ref_y[0]
            for pos in range(len(site.hom(kx, ky))):
                m = site.morph((kx, ky, pos))
                if not is_inert(m):
                    continue
                if site.compose_refs(ref_y, (kx, ky, pos)) == ref_x:
                    arrows.append((x, y, (kx, ky, pos)))
    return covers, arrows


def _object_pool(tag, bounds):
    if tag in DIRECTED_TAGS:
        pool = gen_connected_dgraphs(bounds)
    else:
        pool = gen_connected_ugraphs(bounds)
    return [g for g in pool if object_in_category(g, tag)]


def build_site(tag, bounds=DEFAULT_BOUNDS, budget=DEFAULT_BUDGET):
    """Site with one object per iso class within bounds, full hom-sets, and
    closure under factorization middles and elementary covers."""
    objects = [
        type(g).from_ends(f"{tag}{i}", ends_by_edge(g), g.vertices)
        for i, g in enumerate(_object_pool(tag, bounds))
    ]
    build = _Build(tag, objects, budget)
    build.close()
    return Site(tag, objects, build.homs())


class _Build:
    """The state of one build_site: the objects so far, and what is found
    about them once and kept until the hom-sets are assembled.

    Every map G_i -> G_j is an active map onto the middle H_x, the
    realization of x = phi_hat(whole G_i), then the inclusion of H_x; the
    factorization is unique up to a unique iso of the middle.  So hom(i, j)
    is compose(incl_x . rho_x, alpha) over the classes x of Emb(G_j) whose
    middle is an object K_x, with rho_x : K_x -> H_x one iso, and over the
    active maps alpha : G_i -> K_x; G counts only structured classes.  An
    active map matches boundaries one to one, so only the classes of G_j
    with a boundary of G_i's size are looked at.  Per class, the build keeps
    its realization's signature and matching object; realize keeps the rest.
    """

    def __init__(self, tag, objects, budget):
        self.tag, self.objects, self.budget = tag, objects, budget
        self.by_signature = _signature_index(objects)
        self.sizes = []  # per object: the size of its boundary, side by side
        self.classes = []  # per object: boundary size -> the classes that count
        self.found = {}  # class -> [its realization's signature, object or None]
        self._grow()

    def _grow(self):
        """Read the classes of each object added since the last call off
        its host index, by the size of their boundary."""
        for g in self.objects[len(self.sizes) :]:
            ix = index(g)
            self.classes.append(
                {
                    size: [x for x, _, _ in row if self.tag != "G" or is_structured(x)]
                    for size, row in ix.by_arity.items()
                }
            )
            self.sizes.append(tuple(map(len, sides(g, ix.profiles[ix.top]))))

    def through(self, i, j):
        """The classes of G_j that a map from G_i may factor through."""
        return self.classes[j].get(self.sizes[i], ())

    def realization(self, x):
        """(realization, its embedding, its signature, the object isomorphic
        to it or None) of the class x."""
        h, incl = realize(x)
        found = self.found.get(x)
        if found is None:
            found = self.found[x] = [canonical_signature(h)[0], None]
        if found[1] is None:  # objects only grow: once found, found for good
            found[1] = _find(self.objects, self.by_signature, h, found[0])
        return (h, incl, *found)

    def first_missing_middle(self, i, j):
        """The middle of the first map of hom(i, j), in hom order, whose
        middle is no object, or None."""
        best = None
        for x in self.through(i, j):
            h, incl, _, k = self.realization(x)
            alphas = enumerate_active_maps(self.objects[i], h, self.budget) if k is None else ()
            if alphas:
                iota = map_from_embedding(incl)
                first = min(_sort_key(compose(iota, a)) for a in alphas)
                if best is None or first < best[0]:
                    best = first, x
        return best and best[1]

    def missing_cover(self, g):
        """The first elementary class of g whose realization is in the
        category and no object, or None."""
        for x in elementary_classes(g):
            h, _, _, k = self.realization(x)
            if k is None and object_in_category(h, self.tag):
                return x
        return None

    def close(self):
        """Add the missing middle objects of active-inert factorizations,
        then the missing elementary covers, one at a time, until none is
        missing.  Objects only grow, so a hom key whose middles are all
        present, or an object whose covers are, is not looked at again."""
        n = len(self.objects)
        dirty, covered = {(i, j) for i in range(n) for j in range(n)}, 0
        while True:
            missing = None
            for key in sorted(dirty):
                missing = self.first_missing_middle(*key)
                if missing is not None:
                    break
                dirty.remove(key)
            while missing is None and covered < len(self.objects):
                missing = self.missing_cover(self.objects[covered])
                covered += missing is None
            if missing is None:
                return
            h, _, sig, _ = self.realization(missing)
            n = len(self.objects)
            self.objects.append(type(h).from_ends(f"{self.tag}{n}", ends_by_edge(h), h.vertices))
            self.by_signature.setdefault(sig, []).append(n)
            self._grow()
            dirty.update([(i, n) for i in range(n)] + [(n, j) for j in range(n + 1)])

    def homs(self):
        """Every hom-set, assembled and sorted by _sort_key, row by row: the
        one place a hom-set is put in order.  The active maps from G_i are
        kept, in search order, for row i only."""
        n, rows, out = len(self.objects), {}, {}
        for i, g in enumerate(self.objects):
            active = {}  # object k -> the active maps G_i -> G_k
            for j in range(n):
                maps = []
                for x in self.through(i, j):
                    h, incl, _, k = self.realization(x)
                    if k is None:
                        continue  # no object maps actively onto its middle
                    if x not in rows:
                        rows[x] = _inclusion(self.objects[k], h, incl)
                    if k not in active:
                        active[k] = enumerate_active_maps(g, self.objects[k], self.budget)
                    maps += (compose(rows[x], a) for a in active[k])
                maps.sort(key=_sort_key)
                out[(i, j)] = tuple(maps)
        return out


def _inclusion(rep, h, incl):
    """incl . rho : rep -> host as an inert graph map, for (h, incl) the
    realization of a class and rho one iso rep -> h."""
    w = iso(rep, h)
    if w is None:
        fail("SiteTooSmall", "iso lookup failed")
    comp = {s: incl.component[c] for s, c in w[0].items()}
    vmap = {v: incl.vertex_map[u] for v, u in w[1].items()}
    return map_from_embedding(EtaleMap(rep, incl.target, comp, vmap, check=False))


# ---------------------------------------------------------------------------
# orientations


def _require_arcs(g):
    """Fail FlavorMismatch when g is directed: orientations pick arcs."""
    if g.directed:
        fail("FlavorMismatch", f"{g.name} is a directed graph; orientations need arcs")


def orientations(g: UGraph):
    """All orientations as frozensets of +1 arcs (one arc per edge)."""
    _require_arcs(g)
    return [frozenset(picks) for picks in itertools.product(*g.edge_keys)]


def restrict_orientation(x, phi0, source: UGraph):
    """Precompose an orientation with the arc component of a map."""
    return frozenset(a for a in source.arcs if phi0[a] in x)


def orient(g: UGraph, x, name=None) -> DGraph:
    """Directed structure from an orientation: an arc a with x(a) = +1 and
    t(a) = v makes its edge an input of v.  Edges are named by +1 arcs."""
    _require_arcs(g)
    if not x <= set(g.arcs) or len(x) != len(set(g.edges())):
        fail("NotBoundaryArc", "not an orientation: needs one +1 arc per edge")
    if any(g.dagger[a] in x for a in x):
        fail("NotBoundaryArc", "both arcs of one edge set to +1")
    ends = {a: (g.t.get(a), g.t.get(g.dagger[a])) for a in sorted(x)}
    return DGraph.from_ends(name or f"{g.name}@{len(x)}", ends, g.vertices)


def root_orientation(g: UGraph, r):
    """Orientation of a tree pointing every edge toward the boundary arc r."""
    _require_arcs(g)
    if r not in g.boundary:
        fail("NotBoundaryArc", f"{r!r}")
    if not shape(g).is_tree:
        fail("NotATree", g.name)
    # walk inward from r; an edge's +1 arc is the one nearer the root edge
    plus = {r}
    root_edge = g.edge_key(r)
    dist = {root_edge: 0}
    frontier = [root_edge]
    while frontier:
        e = frontier.pop(0)
        for a in e:
            v = g.t.get(a)
            if v is None:
                continue
            for b in g.nbhd(v):
                e2 = g.edge_key(b)
                if e2 in dist:
                    continue
                dist[e2] = dist[e] + 1
                # b attaches to v which is nearer the root: flow enters v,
                # so b itself is the +1 arc of e2
                plus.add(b)
                frontier.append(e2)
    return frozenset(plus)


def root(g: UGraph, r, name=None) -> DGraph:
    return orient(g, root_orientation(g, r), name=name)


def is_rooted_orientation(g: UGraph, x) -> bool:
    """Does the orientation make g a rooted tree: one output per vertex.  An
    edge is an output of the vertex its -1 arc is attached to."""
    if not shape(g).is_tree:
        return False
    outputs = Counter(g.t[a] for a in g.arcs if a in g.t and a not in x)
    return all(outputs[v] == 1 for v in g.vertices)


# ---------------------------------------------------------------------------
# the category of elements of the orientation presheaf, materialized


class ElementsSite:
    """Directed site whose objects are (base object, orientation) pairs.

    directed.objects[k] is orient(base, x) for pairs[k] = (i, x); functor
    data maps directed object/morphism references to the base site's.
    """

    def __init__(self, base: Site, pairs):
        self.base = base
        self.pairs = pairs  # list of (base index, orientation)
        self.obj_map = {k: i for k, (i, x) in enumerate(pairs)}  # directed object -> base object
        self.directed, self.mor_map = self._lift()  # mor_map: directed ref -> base ref

    def __repr__(self):
        return f"ElementsSite({self.directed!r} over {self.base!r})"

    def fibre(self, i):
        """The directed objects over base object i, in pair order."""
        return [k for k, (j, _) in enumerate(self.pairs) if j == i]

    def _lift(self):
        """Lift each base map m : i -> j once per pair (j, y), from the pair of
        y restricted along m, reading phi_hat off m's Emb code through the two
        pairs' class tables.  Each hom-set keeps the base hom-set's order;
        only the non-empty ones are kept, in key order, and ``hom`` answers
        () for the others."""
        base, objs = self.base, self.base.objects
        dobjects = [
            orient(objs[i], x, name=f"{objs[i].name}x{k}") for k, (i, x) in enumerate(self.pairs)
        ]
        tables = [class_table(objs[i], d) for (i, _), d in zip(self.pairs, dobjects)]
        pair_index = {pair: k for k, pair in enumerate(self.pairs)}
        into = [[] for _ in objs]  # per base target: (map, its Emb code, its ref) by source
        for (i, j), maps in sorted(base.homs.items()):
            for pos, m in enumerate(maps):
                into[j].append((m, base._encode(i, j, m)[1], (i, j, pos)))
        homs, refs = {}, {}
        for b, (j, y) in enumerate(self.pairs):
            found = {}  # source pair -> its lifts into b, in base order
            for m, code, ref in into[j]:
                a = pair_index.get((ref[0], restrict_orientation(y, m.phi0, m.source)))
                if a is None:
                    continue
                phi0 = {e: m.phi0[e] for e in dobjects[a].edges}  # +1 arcs map to +1 arcs
                phi_hat = dict(zip(tables[a], map(tables[b].__getitem__, code)))
                dm = GraphMap(dobjects[a], dobjects[b], phi0, phi_hat, check=False)
                found.setdefault(a, []).append((dm, ref))
            for a, lifted in found.items():
                homs[(a, b)], refs[(a, b)] = zip(*lifted)
        mor_map = {(*key, pos): ref for key in sorted(refs) for pos, ref in enumerate(refs[key])}
        return Site("el", dobjects, sorted(homs.items())), mor_map


def build_elements_site(base: Site, rooted_only=False):
    """Materialize el(orientation presheaf) over a U-flavored site.

    With rooted_only (for trees) only root orientations are kept, producing
    the rooted-tree site over a tree site.
    """
    pairs = []
    for i, g in enumerate(base.objects):
        for x in sorted(orientations(g), key=sorted):
            if rooted_only and not is_rooted_orientation(g, x):
                continue
            pairs.append((i, x))
    return ElementsSite(base, pairs)


def class_table(g: UGraph, d: DGraph):
    """The class of Emb(d) over each class of Emb(g), in Emb(g)'s order,
    for d an orientation of g; directed edges are named by their +1 arcs.
    Classes come back as the host index's own objects, so lifted maps share
    them."""
    ix = index(d)

    def edge_name(e):
        a, b = e
        return a if a in ix.ebit else b

    def lift(x):
        if isinstance(x, EmbEdge):
            return edge_element(d, edge_name(x.edge))
        return ix.region(ix.vertex_mask(x.vertices), ix.edge_mask(map(edge_name, x.glued)))

    return tuple(map(lift, enumerate_emb(g)))
