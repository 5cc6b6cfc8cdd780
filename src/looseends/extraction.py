"""Extraction of an operad presentation from a Segal presheaf.

Works over undirected sites: colors come from the edge object, operations
from the stars, identities from the active cover of the edge, compositions
from two-vertex join graphs via the Segal bijection, contractions from loop
graphs.  This is site-level evidence toward essential surjectivity of the
nerve, not a proof; the consistency test compares the nerve of the
extracted presentation back against the presheaf.
"""

from __future__ import annotations

import itertools

from .config import OperadCaps
from .emb import realize, vertex_element
from .errors import LooseEndsError, fail
from .etale import EtaleMap
from .gmaps import compose, map_from_embedding, star_cover
from .graphs import UGraph, iso, make_star, validate_ugraph
from .operads import OperadPresentation, _close_tables, flavor_has_contraction
from .presheaves import Presheaf


def _edge_object(site):
    for i, g in enumerate(site.objects):
        if not g.vertices and len(set(g.edges())) == 1:
            return i
    fail("SiteTooSmall", "no edge object")


def _star_object(site, n):
    i = site.find_object(make_star(n))
    if i is None:
        fail("SiteTooSmall", f"no {n}-star object")
    return i


def _iso_graph_map(src, dst):
    w = iso(src, dst)
    if w is None:
        fail("SiteTooSmall", "expected isomorphic graphs")
    comp, vmap = w
    return map_from_embedding(EtaleMap(src, dst, comp, vmap, check=False))


def _leg_refs(site, star_idx, edge_idx):
    """Per boundary arc of the star object, the located inert edge cover
    whose phi0 sends the canonical arc of the edge object to that arc."""
    star = site.objects[star_idx]
    edge = site.objects[edge_idx]
    a0 = min(edge.arcs)
    legs = {}
    for pos in range(len(site.hom(edge_idx, star_idx))):
        m = site.morph((edge_idx, star_idx, pos))
        legs[m.phi0[a0]] = (edge_idx, star_idx, pos)
    order = tuple(sorted(star.boundary))
    return order, [legs[a] for a in order]


def _auto_ref(site, star_idx, order, perm):
    """The automorphism of the star sending leg k onto leg perm[k]."""
    star = site.objects[star_idx]
    want = {order[k]: order[perm[k]] for k in range(len(order))}
    for pos in range(len(site.hom(star_idx, star_idx))):
        m = site.morph((star_idx, star_idx, pos))
        if all(m.phi0[a] == b for a, b in want.items()):
            return (star_idx, star_idx, pos)
    fail("SiteTooSmall", "missing star automorphism")


def _join_graph(n, i, m, j):
    """Stars of arities n and m joined along position i of the first and
    position j of the second; boundary named by (side, position)."""
    pairs, inc_u, inc_v = [], [], []
    pairs.append(("m", "m*"))
    inc_u.append("m")
    inc_v.append("m*")
    for k in range(n):
        if k == i:
            continue
        a = f"u{k}"
        pairs.append((a, a + "*"))
        inc_u.append(a)
    for k in range(m):
        if k == j:
            continue
        a = f"v{k}"
        pairs.append((a, a + "*"))
        inc_v.append(a)
    return validate_ugraph(f"join{n}.{i}.{m}.{j}", pairs, [("u", inc_u), ("v", inc_v)])


def _loop_graph(n, i, j):
    """A star of arity n with positions i < j glued into a loop."""
    pairs = [("l", "l*")]
    inc = ["l", "l*"]
    for k in range(n):
        if k in (i, j):
            continue
        a = f"u{k}"
        pairs.append((a, a + "*"))
        inc.append(a)
    return validate_ugraph(f"loop{n}.{i}.{j}", pairs, [("v", inc)])


def _locate_cover(site, idx, target_idx, custom_map):
    """Turn a graph map from a custom object into a located site morphism by
    pre-composing with an iso from the site representative."""
    rep = site.objects[idx]
    adjust = _iso_graph_map(rep, custom_map.source)
    return site.locate(idx, target_idx, compose(custom_map, adjust))


def _star_inclusion_ref(site, big, v, star_idx, order, edge_to_arc):
    """Located inert star cover of vertex v of site object big, with leg k
    of the star landing on the arc edge_to_arc[k]."""
    g = site.objects[big]
    h, incl = realize(vertex_element(g, v))
    cover = map_from_embedding(incl)
    rep = site.objects[star_idx]
    # iso rep -> h aligning legs: rep boundary order[k] must map onto the arc
    # of h whose image boundary arc is edge_to_arc[k]
    want_image = {order[k]: edge_to_arc[k] for k in range(len(order))}
    for w in _all_isos(rep, h):
        comp, vmap = w
        candidate = EtaleMap(rep, h, comp, vmap, check=False)
        full = compose(cover, map_from_embedding(candidate))
        if all(full.phi0[a] == b for a, b in want_image.items()):
            return site.locate(star_idx, big, full)
    fail("SiteTooSmall", "no aligned star inclusion")


def _all_isos(g, h):
    """All isomorphism witnesses between small graphs (via etale search)."""
    from .etale import enumerate_etale

    out = []
    if len(g.vertices) != len(h.vertices) or len(g.arcs) != len(h.arcs):
        return out
    for m in enumerate_etale(g, h):
        if m.vertex_injective and len(set(m.component.values())) == len(m.component):
            out.append((m.component, m.vertex_map))
    return out


def presentation_from_segal(X: Presheaf, flavor, caps=None, name=None):
    site = X.site
    if not isinstance(site.objects[0], UGraph):
        fail("FlavorMismatch", "extraction implemented for undirected sites")
    arity_cap = 0
    for g in site.objects:
        if len(g.vertices) == 1 and not any(g.is_internal_edge(e) for e in g.edges()):
            arity_cap = max(arity_cap, len(g.boundary))
    caps = caps or OperadCaps(max_arity=arity_cap, max_ops_per_profile=64)
    edge_idx = _edge_object(site)
    edge = site.objects[edge_idx]
    a0, a1 = sorted(edge.arcs)
    colors = tuple(X.value(edge_idx))
    swap_ref = None
    for pos in range(len(site.hom(edge_idx, edge_idx))):
        m = site.morph((edge_idx, edge_idx, pos))
        if m.phi0[a0] == a1:
            swap_ref = (edge_idx, edge_idx, pos)
    dagger = {c: X.act(swap_ref, c) for c in colors}

    ops, op_profile, op_value = {}, {}, {}
    star_data = {}
    for n in range(0, caps.max_arity + 1):
        try:
            s_idx = _star_object(site, n)
        except LooseEndsError:
            continue
        order, legs = _leg_refs(site, s_idx, edge_idx)
        star_data[n] = (s_idx, order, legs)
        for k, v in enumerate(X.value(s_idx)):
            prof = tuple(X.act(leg, v) for leg in legs)
            p = f"op{n}.{k}"
            ops.setdefault(prof, ())
            ops[prof] = ops[prof] + (p,)
            op_profile[p] = prof
            op_value[p] = (n, v)

    value_to_op = {}
    for p, (n, v) in op_value.items():
        value_to_op[(n, v)] = p

    P = OperadPresentation(
        name or f"extracted({X.name})",
        flavor,
        colors,
        dagger,
        ops,
        op_profile,
        {},
        {},
        {},
        {},
        caps,
    )

    # actions from star automorphisms
    for p, (n, v) in op_value.items():
        s_idx, order, legs = star_data[n]
        for perm in itertools.permutations(range(n)):
            ref = _auto_ref(site, s_idx, order, perm)
            P.actions[(p, perm)] = value_to_op[(n, X.act(ref, v))]

    # identities from the active cover of the edge object
    cover_star, cover = star_cover(edge)
    s2_idx, order2, legs2 = star_data[2]
    cover_ref = _locate_cover(site, s2_idx, edge_idx, cover)
    for c in colors:
        idv = X.act(cover_ref, c)
        p = value_to_op[(2, idv)]
        # reorder so the profile reads (dagger c, c)
        if P.op_profile[p] == (dagger[c], c):
            P.identities[c] = p
        else:
            P.identities[c] = P.actions[(p, (1, 0))]

    # compositions through two-vertex join graphs, contractions through
    # loop graphs
    return _close_tables(
        P,
        lambda p, i, j, q: _compose_via_join(
            X, site, star_data, value_to_op, p, i, q, j, op_value, dagger
        ),
        (
            (lambda p, i, j: _contract_via_loop(
                X, site, star_data, value_to_op, p, i, j, op_value
            ))
            if flavor_has_contraction(flavor)
            else None
        ),
    )


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


def _cover_with_legs(site, big_idx, v, star_data, n, edge_to_arc):
    s_idx, order, legs = star_data[n]
    return _star_inclusion_ref(site, big_idx, v, s_idx, order, edge_to_arc)


def _compose_via_join(X, site, star_data, value_to_op, p, i, q, j, op_value, dagger):
    n, v = op_value[p]
    m_ar, w = op_value[q]
    join = _join_graph(n, i, m_ar, j)
    big = site.find_object(join)
    if big is None:
        fail("SiteTooSmall", f"join graph for {p}.{i} o {q}.{j} not in site")
    rep = site.objects[big]
    adjust = _iso_graph_map(rep, join)  # rep -> join
    inv = {b: a for a, b in adjust.phi0.items()}
    # the star's boundary arcs are the daggers of the attached join arcs
    u_arcs = ["m" if k == i else f"u{k}" for k in range(n)]
    v_arcs = ["m*" if k == j else f"v{k}" for k in range(m_ar)]
    u_ref = _cover_with_legs(
        site, big, _vertex_of(rep, adjust, "u"), star_data, n,
        [inv[join.dagger[a]] for a in u_arcs],
    )
    v_ref = _cover_with_legs(
        site, big, _vertex_of(rep, adjust, "v"), star_data, m_ar,
        [inv[join.dagger[a]] for a in v_arcs],
    )
    xi = _segal_preimage(X, big, [(u_ref, v), (v_ref, w)])
    # evaluate through the active cover, then reorder to the result profile
    _, cover = star_cover(rep)
    result_arity = n + m_ar - 2
    s_idx, order, legs = star_data[result_arity]
    cover_ref = _locate_cover(site, s_idx, big, cover)
    val = X.act(cover_ref, xi)
    r0 = value_to_op[(result_arity, val)]
    # the canonical profile order lists p's entries before i, q's entries in
    # cyclic order, then p's entries after i; align via the leg arcs
    boundary_order = (
        [inv[f"u{k}*"] for k in range(i)]
        + [inv[f"v{k}*"] for k in list(range(j + 1, m_ar)) + list(range(j))]
        + [inv[f"u{k}*"] for k in range(i + 1, n)]
    )
    return _reorder_to(X, site, star_data, value_to_op, val, big, cover_ref, boundary_order, order, s_idx)


def _vertex_of(rep, adjust, name):
    # vertex of rep mapping onto the named join vertex under adjust
    for v in rep.vertices:
        img = adjust.phi_hat[vertex_element(rep, v)]
        if name in img.vertex_set:
            return v
    fail("SiteTooSmall", "vertex alignment failed")


def _reorder_to(
    X, site, star_data, value_to_op, val, big, cover_ref, boundary_order, order, s_idx
):
    """Permute the extracted composite so position k carries boundary_order[k].

    The cover's phi0 relates the star's boundary arcs to the big object's
    boundary arcs; we need the action moving the sorted order onto the
    requested one."""
    i, j, pos = cover_ref
    m = site.morph(cover_ref)
    # star leg arc -> big boundary arc
    to_big = {a: m.phi0[a] for a in order}
    arity = len(order)
    want = {}
    for k, big_arc in enumerate(boundary_order):
        leg = next(a for a in order if to_big[a] == big_arc)
        want[k] = order.index(leg)
    perm = tuple(want[k] for k in range(arity))
    n_val = value_to_op[(arity, val)]
    # apply the star automorphism action on values
    ref = _auto_ref(site, s_idx, order, perm)
    return value_to_op[(arity, X.act(ref, val))]


def _contract_via_loop(X, site, star_data, value_to_op, p, i, j, op_value):
    n, v = op_value[p]
    loop = _loop_graph(n, i, j)
    big = site.find_object(loop)
    if big is None:
        fail("SiteTooSmall", f"loop graph for {p}.{i}.{j} not in site")
    rep = site.objects[big]
    adjust = _iso_graph_map(rep, loop)
    inv = {b: a for a, b in adjust.phi0.items()}
    arcs = []
    for k in range(n):
        if k == i:
            arcs.append("l")
        elif k == j:
            arcs.append("l*")
        else:
            arcs.append(f"u{k}")
    v_ref = _cover_with_legs(
        site, big, _vertex_of(rep, adjust, "v"), star_data, n,
        [inv[loop.dagger[a]] for a in arcs],
    )
    xi = _segal_preimage(X, big, [(v_ref, v)])
    result_arity = n - 2
    s_idx, order, legs = star_data[result_arity]
    _, cover = star_cover(rep)
    cover_ref = _locate_cover(site, s_idx, big, cover)
    val = X.act(cover_ref, xi)
    boundary_order = [inv[f"u{k}*"] for k in range(n) if k not in (i, j)]
    return _reorder_to(
        X, site, star_data, value_to_op, val, big, cover_ref, boundary_order, order, s_idx
    )
