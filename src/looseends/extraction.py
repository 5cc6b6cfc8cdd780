"""Extraction of an operad presentation from a Segal presheaf.

Works over undirected sites: colors come from the edge object, operations
from the stars, identities from the active cover of the edge, compositions
from two-vertex join graphs via the Segal bijection, contractions from loop
graphs.  This is site-level evidence toward essential surjectivity of the
nerve, not a proof; the consistency test compares the nerve of the
extracted presentation back against the presheaf.

Every morphism used is a site morphism out of a star or out of the edge,
and such a morphism is fixed by where phi0 sends the source's boundary arcs
and by whether it is active or inert: the attached arcs follow by the
involution, the edge classes by phi0, and the vertex goes to the whole
target (active) or to the one vertex star with that boundary (inert).  So
each is looked up in its hom-set by those two facts, with no search.
"""

from __future__ import annotations

import functools
import itertools

from .config import OperadCaps
from .errors import fail
from .gmaps import is_active, is_inert
from .graphs import iso, make_edge, make_star, shape, validate_ugraph
from .operads import OperadPresentation, _close_tables, flavor_has_contraction
from .presheaves import Presheaf


def _ref(site, i, j, arcs, images, active=False):
    """The ref in hom(i, j) that sends arcs[k] to images[k] and is active
    (or inert); out of a star or the edge, there is at most one."""
    want = dict(zip(arcs, images))
    kind = is_active if active else is_inert
    for pos, m in enumerate(site.hom(i, j)):
        if all(m.phi0[a] == b for a, b in want.items()) and kind(m):
            return (i, j, pos)
    kind = "active" if active else "inert"
    fail("SiteTooSmall", f"no {kind} map in hom({i},{j}) sending {want}")


def _join_graph(n, i, m, j):
    """Stars of arities n and m joined along position i of the first and
    position j of the second; boundary named by (side, position)."""
    u = [f"u{k}" for k in range(n) if k != i]
    v = [f"v{k}" for k in range(m) if k != j]
    pairs = [("m", "m*")] + [(a, a + "*") for a in u + v]
    return validate_ugraph(f"join{n}.{i}.{m}.{j}", pairs, [("u", ["m", *u]), ("v", ["m*", *v])])


def _loop_graph(n, i, j):
    """A star of arity n with positions i < j glued into a loop."""
    u = [f"u{k}" for k in range(n) if k not in (i, j)]
    pairs = [("l", "l*")] + [(a, a + "*") for a in u]
    return validate_ugraph(f"loop{n}.{i}.{j}", pairs, [("v", ["l", "l*", *u])])


def _site_copy(site, g):
    """The site object isomorphic to g, and the name there of each arc of g."""
    big = site.find_object(g)
    if big is None:
        fail("SiteTooSmall", f"{g.name} graph not in site")
    comp, _ = iso(site.objects[big], g)
    return big, {b: a for a, b in comp.items()}


def presentation_from_segal(X: Presheaf, flavor, caps=None, name=None):
    site = X.site
    if any(g.directed for g in site.objects):
        fail("FlavorMismatch", "extraction implemented for undirected sites")
    arity_cap = 0
    for g in site.objects:
        if shape(g).is_star:
            arity_cap = max(arity_cap, len(g.boundary))
    caps = caps or OperadCaps(max_arity=arity_cap, max_ops_per_profile=64)
    e = site.find_object(make_edge())
    if e is None:
        fail("SiteTooSmall", "no edge object")
    a0, a1 = sorted(site.objects[e].arcs)
    colors = tuple(X.value(e))
    swap = _ref(site, e, e, [a0], [a1])
    dagger = {c: X.act(swap, c) for c in colors}

    # stars[n]: the n-star's object and its boundary arcs, sorted; leg k of
    # an operation is its restriction along the edge onto arc k
    stars, autos, ops, op_profile, op_value = {}, {}, {}, {}, {}
    for n in range(caps.max_arity + 1):
        s = site.find_object(make_star(n))
        if s is None:
            continue
        order = site.objects[s].boundary
        stars[n] = (s, order)
        autos[n] = {
            perm: _ref(site, s, s, order, [order[k] for k in perm])
            for perm in itertools.permutations(range(n))
        }
        legs = [_ref(site, e, s, [a0], [a]) for a in order]
        for k, v in enumerate(X.value(s)):
            prof = tuple(X.act(leg, v) for leg in legs)
            p = f"op{n}.{k}"
            ops[prof] = ops.get(prof, ()) + (p,)
            op_profile[p] = prof
            op_value[p] = (n, v)
    value_to_op = {nv: p for p, nv in op_value.items()}
    actions = {
        (p, perm): value_to_op[(n, X.act(ref, v))]
        for p, (n, v) in op_value.items()
        for perm, ref in autos[n].items()
    }

    # the identity of c reads (dagger c, c): the cover sends leg 0 onto a1
    s2, order2 = stars[2]
    cover = _ref(site, s2, e, order2, [a1, a0], active=True)
    identities = {c: value_to_op[(2, X.act(cover, c))] for c in colors}

    P = OperadPresentation(
        name or f"extracted({X.name})", flavor, colors, dagger, ops, op_profile,
        {}, {}, actions, identities, caps,
    )

    def inclusion(n, big, to_rep, g, attached):
        """The inert n-star inclusion whose leg k lies on the partner of the
        attached arc attached[k] of g."""
        s, order = stars[n]
        return _ref(site, s, big, order, [to_rep[g.dagger[a]] for a in attached])

    def cover_of(big, to_rep, legs):
        """The active cover of big whose leg k lies on legs[k]."""
        s, order = stars[len(legs)]
        return _ref(site, s, big, order, [to_rep[a] for a in legs], active=True)

    @functools.cache
    def join_refs(n, i, m, j):
        join = _join_graph(n, i, m, j)
        big, to_rep = _site_copy(site, join)
        # the composite lists p's entries before i, q's entries in cyclic
        # order from j, then p's entries after i
        legs = (
            [f"u{k}*" for k in range(i)]
            + [f"v{k}*" for k in list(range(j + 1, m)) + list(range(j))]
            + [f"u{k}*" for k in range(i + 1, n)]
        )
        return (
            big,
            inclusion(n, big, to_rep, join, ["m" if k == i else f"u{k}" for k in range(n)]),
            inclusion(m, big, to_rep, join, ["m*" if k == j else f"v{k}" for k in range(m)]),
            cover_of(big, to_rep, legs),
        )

    @functools.cache
    def loop_refs(n, i, j):
        loop = _loop_graph(n, i, j)
        big, to_rep = _site_copy(site, loop)
        attached = ["l" if k == i else "l*" if k == j else f"u{k}" for k in range(n)]
        legs = [f"u{k}*" for k in range(n) if k not in (i, j)]
        return big, inclusion(n, big, to_rep, loop, attached), cover_of(big, to_rep, legs)

    def composite(p, i, j, q):
        (n, v), (m, w) = op_value[p], op_value[q]
        big, u_ref, v_ref, cover = join_refs(n, i, m, j)
        xi = _segal_preimage(X, big, [(u_ref, v), (v_ref, w)])
        return value_to_op[(n + m - 2, X.act(cover, xi))]

    def contraction(p, i, j):
        n, v = op_value[p]
        big, v_ref, cover = loop_refs(n, i, j)
        xi = _segal_preimage(X, big, [(v_ref, v)])
        return value_to_op[(n - 2, X.act(cover, xi))]

    return _close_tables(P, composite, contraction if flavor_has_contraction(flavor) else None)


def _segal_preimage(X, i, cover_values):
    """The unique element of X_i restricting to the given values along the
    given located covers; Segal-ness guarantees existence and uniqueness."""
    found = None
    for elem in X.value(i):
        if all(X.act(ref, elem) == val for ref, val in cover_values):
            if found is not None:
                fail("SiteTooSmall", "Segal preimage not unique")
            found = elem
    if found is None:
        fail("SiteTooSmall", "Segal preimage missing")
    return found
