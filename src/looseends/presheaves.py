"""Set-valued presheaves on truncated graph categories.

Covers the Segal condition (limits over elementary inert covers), the
orientation presheaf, restriction and left Kan extension along the
direction-forgetting functors, the comma-category colimit oracle, and the
category-of-elements equivalence checks.
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_BUDGET
from .errors import LooseEndsError, fail
from .gmaps import enumerate_graph_maps
from .operads import enumerate_decorations, nerve_action
from .sites import (
    ElementsSite,
    Site,
    elementary_over,
    orientations,
    restrict_orientation,
)


class Presheaf:
    """Total tables: a value tuple per object, an action per morphism."""

    def __init__(self, site: Site, values, action, name="X"):
        self.site = site
        self.values = {i: tuple(v) for i, v in values.items()}
        self.action = {ref: dict(a) for ref, a in action.items()}
        self.name = name

    def __repr__(self):
        total = sum(len(v) for v in self.values.values())
        return f"Presheaf({self.name}, {total} elements)"

    def value(self, i):
        return self.values[i]

    def act(self, ref, elem):
        return self.action[ref][elem]

    def check_total(self):
        """A value at every object, and every action total on its target's
        value and into its source's; validate adds the costlier functor laws."""
        for i in range(len(self.site.objects)):
            if i not in self.values:
                fail("NotFunctorial", f"no value at object {i}")
        for (i, j), maps in self.site.homs.items():
            for pos in range(len(maps)):
                table = self.action.get((i, j, pos))
                if table is None:
                    fail("NotFunctorial", f"missing action at {(i, j, pos)}")
                for elem in self.values[j]:
                    if elem not in table:
                        fail("NotFunctorial", f"partial action at {(i, j, pos)}")
                    if table[elem] not in self.values[i]:
                        fail("NotFunctorial", "action leaves the value set")
        return self

    def validate(self):
        self.check_total()
        for i in range(len(self.site.objects)):
            ref = self.site.identity_ref(i)
            for elem in self.values[i]:
                if self.act(ref, elem) != elem:
                    fail("NotFunctorial", f"identity acts nontrivially at {i}")
        by_source = {}
        for ref in self.site.all_refs():
            by_source.setdefault(ref[0], []).append(ref)
        for ref1 in self.site.all_refs():
            i, j, p1 = ref1
            for ref2 in by_source.get(j, ()):
                _, k, p2 = ref2
                ref = self.site.compose_refs(ref2, ref1)
                for elem in self.values[k]:
                    direct = self.act(ref, elem)
                    stepwise = self.act(ref1, self.act(ref2, elem))
                    if direct != stepwise:
                        fail("NotFunctorial", f"functoriality fails through {ref1} {ref2}")
        return self


def presheaf_from_values(site, values_fn, action_fn, name="X"):
    values = {i: tuple(values_fn(i)) for i in range(len(site.objects))}
    action = {}
    for ref in site.all_refs():
        i, j, pos = ref
        action[ref] = {elem: action_fn(ref, elem) for elem in values[j]}
    return Presheaf(site, values, action, name=name)


def terminal_presheaf(site):
    return presheaf_from_values(site, lambda i: ("*",), lambda ref, e: "*", name="1")


def representable(site, k):
    """C(-, object k): values are hom tuples, action is precomposition."""

    def values(i):
        return [(i, k, pos) for pos in range(len(site.hom(i, k)))]

    def action(ref, elem):
        return site.compose_refs(elem, ref)

    return presheaf_from_values(site, values, action, name=f"y({k})")


def orientation_presheaf(site):
    """Involutive plus/minus labelings of arcs, one free choice per edge."""

    def values(i):
        return sorted(orientations(site.objects[i]), key=sorted)

    def action(ref, x):
        i, j, pos = ref
        m = site.morph(ref)
        return restrict_orientation(x, m.phi0, m.source)

    return presheaf_from_values(site, values, action, name="orientation")


def nerve_presheaf(P, site):
    """The nerve of an operad presentation on a matching site.  Each
    (decoration, target class) region is evaluated once, through a memo that
    lives for this call only."""
    if any(g.directed != P.directed for g in site.objects):
        fail("FlavorMismatch", f"{P.flavor} against a {site.tag} site")
    regions = {}

    def values(i):
        return enumerate_decorations(P, site.objects[i])

    def action(ref, d):
        return nerve_action(P, site.morph(ref), d, regions)

    return presheaf_from_values(site, values, action, name=f"N({P.name})")


# ---------------------------------------------------------------------------
# the Segal condition


def segal_map(X: Presheaf, i):
    """(the Segal map as a dict, whether it is a bijection).

    The limit is computed as compatible families over the elementary cover
    category, which the site builds once per object; an independent
    brute-force product filter cross-checks it."""
    covers, arrows = X.site.covers(i)
    keys = sorted(covers, key=lambda x: x.sort_key())
    limit = _limit_families(X, covers, arrows, keys)
    mapping = {}
    for elem in X.value(i):
        image = tuple(X.act(covers[x], elem) for x in keys)
        mapping[elem] = image
    image_set = set(mapping.values())
    injective = len(image_set) == len(X.value(i))
    surjective = image_set == set(limit)
    if not image_set <= set(limit):
        fail("NotFunctorial", "Segal map leaves the limit; presheaf not functorial")
    return mapping, injective and surjective


def _limit_families(X, covers, arrows, keys):
    """Backtracking construction of all compatible families, in product
    order.  An arrow (x, y, ref) asks fam[x] == X.act(ref, fam[y]), and is
    checked once, when the later of its two covers is placed."""
    where = {x: n for n, x in enumerate(keys)}
    checks = [[] for _ in keys]
    for x, y, ref in arrows:
        checks[max(where[x], where[y])].append((where[x], where[y], ref))
    families = [()]
    for key, check in zip(keys, checks):
        new = []
        for fam in families:
            for val in X.value(covers[key][0]):
                fam2 = fam + (val,)
                if all(fam2[nx] == X.act(ref, fam2[ny]) for nx, ny, ref in check):
                    new.append(fam2)
        families = new
    return families


def limit_families_bruteforce(X: Presheaf, i):
    """Independent generic-limit computation: full product, then filter.
    It builds the cover category afresh rather than reading the site's
    copy, so a stale copy cannot mislead both this and segal_map."""
    covers, arrows = elementary_over(X.site, i)
    keys = sorted(covers, key=lambda x: x.sort_key())
    pools = [X.value(covers[y][0]) for y in keys]
    out = []
    for fam in itertools.product(*pools):
        ok = True
        for x, y, ref in arrows:
            if fam[keys.index(x)] != X.act(ref, fam[keys.index(y)]):
                ok = False
                break
        if ok:
            out.append(fam)
    return out


def is_segal(X: Presheaf):
    """(verdict, first violation report or None)."""
    for i in range(len(X.site.objects)):
        _, bij = segal_map(X, i)
        if not bij:
            return False, {"object": i, "name": X.site.objects[i].name}
    return True, None


# ---------------------------------------------------------------------------
# restriction and left Kan extension along the forgetful functors


def restrict_presheaf(els: ElementsSite, X: Presheaf) -> Presheaf:
    """f*X on the directed side: value at (G, x) is X_G."""
    if X.site is not els.base:
        fail("SiteTooSmall", "presheaf lives on the wrong site")
    dsite = els.directed

    def values(k):
        return X.value(els.obj_map[k])

    def action(ref, elem):
        return X.act(els.mor_map[ref], elem)

    return presheaf_from_values(dsite, values, action, name=f"f*{X.name}")


def left_kan_formula(els: ElementsSite, Z: Presheaf) -> Presheaf:
    """f_!Z on the base site: at object i, the sum of Z over the fibre of
    i, each summand tagged by its orientation (rooting).  A base map has one
    lift into each object over its target, so it acts on that object's
    summand through the lift, into the summand of the lift's source."""
    if Z.site is not els.directed:
        fail("SiteTooSmall", "presheaf lives on the wrong site")
    base, tags = els.base, [tuple(sorted(x)) for _, x in els.pairs]
    values = {
        i: [(tags[k], z) for k in els.fibre(i) for z in Z.value(k)]
        for i in range(len(base.objects))
    }
    action = {ref: {} for ref in base.all_refs()}
    for lift, ref in els.mor_map.items():
        a, b, _ = lift
        table = action[ref]
        for z in Z.value(b):
            table[tags[b], z] = tags[a], Z.act(lift, z)
    return Presheaf(base, values, action, name=f"f!{Z.name}")


def left_kan_oracle(els: ElementsSite, Z: Presheaf, i):
    """Pointwise left Kan extension as a colimit over the comma category:
    elements (directed object k, u : G_i -> f(k), z in Z_k) modulo zig-zags,
    glued by union-find."""
    base = els.base
    nodes = []
    for k in range(len(els.directed.objects)):
        j = els.obj_map[k]
        for pos in range(len(base.hom(i, j))):
            for z in Z.value(k):
                nodes.append((k, (i, j, pos), z))
    index = {n: t for t, n in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (k, k2, pos), base_ref in els.mor_map.items():
        jk, jk2 = els.obj_map[k], els.obj_map[k2]
        for upos in range(len(base.hom(i, jk))):
            u_ref = (i, jk, upos)
            u2_ref = base.compose_refs(base_ref, u_ref)
            for z2 in Z.value(k2):
                z = Z.act((k, k2, pos), z2)
                union(index[(k, u_ref, z)], index[(k2, u2_ref, z2)])

    classes = {}
    for n, t in index.items():
        classes.setdefault(find(t), []).append(n)
    return [sorted(v, key=repr) for v in sorted(classes.values(), key=lambda v: repr(sorted(v, key=repr)))]


def kan_formula_matches_oracle(els: ElementsSite, Z: Presheaf, i):
    """The formula's tagged sum must hit each comma-colimit class once."""
    base = els.base
    classes = left_kan_oracle(els, Z, i)
    locate = {}
    for t, cls in enumerate(classes):
        for node in cls:
            locate[node] = t
    id_ref = base.identity_ref(i)
    hit = {}
    count = 0
    for k in els.fibre(i):
        for z in Z.value(k):
            count += 1
            cls = locate.get((k, id_ref, z))
            if cls is None:
                return False
            if cls in hit:
                return False
            hit[cls] = (k, z)
    return count == len(classes)


# ---------------------------------------------------------------------------
# category-of-elements equivalence (criterion: hom bijections)


def elements_equivalence_check(els: ElementsSite, budget=None):
    """Directly enumerate directed homs and compare with the lifted ones."""
    budget = budget or DEFAULT_BUDGET
    report = {"objects": len(els.pairs), "hom_pairs": 0, "mismatches": []}
    d = els.directed
    for a in range(len(d.objects)):
        for b in range(len(d.objects)):
            direct = enumerate_graph_maps(d.objects[a], d.objects[b], budget=budget)
            lifted = list(d.hom(a, b))
            report["hom_pairs"] += 1
            if set(direct) != set(lifted):
                report["mismatches"].append((a, b, len(direct), len(lifted)))
    return report


# ---------------------------------------------------------------------------
# Segal transfer and the slice argument


def _site_automorphism_refs(site, i):
    """Refs of invertible endomorphisms of object i."""
    autos = set()
    endos = site.hom(i, i)
    identity = site.identity_ref(i)
    for pos in range(len(endos)):
        for pos2 in range(len(endos)):
            left = site.compose_refs((i, i, pos), (i, i, pos2))
            right = site.compose_refs((i, i, pos2), (i, i, pos))
            if left == identity and right == identity:
                autos.add((i, i, pos))
    return autos


def perturb_presheaf(X: Presheaf, i, name=None):
    """Double one value at object i.

    The new element is fixed by automorphisms of i and falls onto the image
    of a base value along every other map; this is functorial whenever i is
    not a retract of another site object (the caller should validate)."""
    values = dict(X.values)
    v0 = X.value(i)[0]
    extra = ("dup", v0)
    values[i] = X.value(i) + (extra,)
    autos = _site_automorphism_refs(X.site, i)
    action = {}
    for ref, table in X.action.items():
        t2 = dict(table)
        if ref[1] == i:
            t2[extra] = extra if ref in autos else table[v0]
        action[ref] = t2
    return Presheaf(X.site, values, action, name=name or f"{X.name}+dup")


def doubled_value_fixture(site, want_internal=True):
    """A functorial presheaf with a doubled value at a non-elementary object,
    found by search; returns (presheaf, object index)."""
    base = terminal_presheaf(site)
    for i, g in enumerate(site.objects):
        internal = any(g.is_internal_edge(e) for e in g.edge_keys)
        if want_internal and not internal:
            continue
        cand = perturb_presheaf(base, i)
        try:
            cand.validate()
        except LooseEndsError:
            continue
        return cand, i
    fail("SiteTooSmall", "no object supports a doubled value")
