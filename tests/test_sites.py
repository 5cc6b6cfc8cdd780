"""Sites: hom-set order, composition by code lookup against the map-level
composite, the lookup's error codes, closure under elementary covers, and
the functor data of the elements sites."""

import hashlib

import pytest

from looseends.config import SiteBounds
from looseends.emb import EmbEdge, EmbRegion, enumerate_emb, id_element, realize
from looseends.errors import LooseEndsError
from looseends.gmaps import (
    GraphMap,
    _sort_key,
    compose,
    enumerate_graph_maps,
    object_in_category,
)
from looseends.graphs import isomorphic
from looseends.presheaves import elementary_over
from looseends.sites import (
    Site,
    _object_pool,
    build_elements_site,
    build_site,
    class_table,
    elementary_classes,
    orient,
    restrict_orientation,
)
from looseends.textio import graph_to_text


def _repr_key(m):
    """Hosts, then phi0, then phi_hat by repr: the order of every hom-set,
    and the key sites used to locate a map by."""
    return (
        m.source._key,
        m.target._key,
        tuple(sorted(m.phi0.items())),
        tuple(sorted((repr(k), repr(v)) for k, v in m.phi_hat.items())),
    )


def _composable(site, step=1):
    """Every composable pair (ref2, ref1), over every step-th ref1."""
    by_source = {}
    for ref in site.all_refs():
        by_source.setdefault(ref[0], []).append(ref)
    for ref1 in list(site.all_refs())[::step]:
        for ref2 in by_source.get(ref1[1], ()):
            yield ref2, ref1


@pytest.fixture(scope="module")
def u0_site():
    return build_site("U0", SiteBounds(2, 4, 3))


@pytest.fixture(scope="module")
def ucyc_site():
    return build_site("Ucyc", SiteBounds(2, 4, 3))


@pytest.fixture(scope="module")
def els(u0_site, ucyc_site):
    """The elements sites of acceptance criteria A05 and A08."""
    return {
        "elsU": build_elements_site(build_site("U", SiteBounds(2, 3, 3))),
        "elsU0": build_elements_site(u0_site),
        "elsOmega": build_elements_site(ucyc_site, rooted_only=True),
    }


@pytest.fixture(scope="module")
def sites(u0_site, ucyc_site, els):
    return {
        "U0": (u0_site, 1),
        "Ucyc": (ucyc_site, 1),
        "Delta": (build_site("Delta", SiteBounds(4, 5, 2)), 1),
        "elsU0": (els["elsU0"].directed, 23),
    }


@pytest.mark.parametrize("tag", ["U", "G"])
def test_hom_sets_in_repr_order(tag):
    site = build_site(tag, SiteBounds(2, 3, 3))
    for maps in site.homs.values():
        assert list(maps) == sorted(maps, key=_repr_key)
        assert len(set(maps)) == len(maps)


@pytest.mark.parametrize("key", ["U0", "Ucyc", "Delta", "elsU0"])
def test_compose_refs_is_the_composite(sites, key):
    site, step = sites[key]
    old = {
        (i, j, _repr_key(m)): pos
        for (i, j), maps in site.homs.items()
        for pos, m in enumerate(maps)
    }
    pairs = 0
    for ref2, ref1 in _composable(site, step):
        i, k = ref1[0], ref2[1]
        m = compose(site.morph(ref2), site.morph(ref1))
        got = site.compose_refs(ref2, ref1)
        assert got == site.locate(i, k, m) == (i, k, old[(i, k, _repr_key(m))])
        pairs += 1
    assert pairs > 1000


def test_identity_refs_are_neutral(u0_site):
    for ref in u0_site.all_refs():
        i, j, _ = ref
        assert u0_site.compose_refs(ref, u0_site.identity_ref(i)) == ref
        assert u0_site.compose_refs(u0_site.identity_ref(j), ref) == ref


def _error_code(call, *args):
    with pytest.raises(LooseEndsError) as err:
        call(*args)
    return err.value.code


def test_lookup_error_codes(u0_site):
    site = u0_site
    i, j = next(k for k, maps in sorted(site.homs.items()) if k[0] != k[1] and len(maps) > 1)
    m = site.hom(i, j)[0]
    other = next(ref for ref in site.all_refs() if ref[0] != j)
    assert _error_code(site.compose_refs, other, (i, j, 0)) == "SourceTargetMismatch"
    # a valid map missing from its hom-set, or asked for at other objects
    cut = Site(site.tag, site.objects, {**site.homs, (i, j): site.hom(i, j)[1:]})
    assert _error_code(cut.locate, i, j, m) == "SiteTooSmall"
    assert _error_code(site.locate, j, i, m) == "SiteTooSmall"
    # tables that are partial, have an extra entry, or leave the target's Emb
    x = enumerate_emb(m.source)[0]
    partial = {y: z for y, z in m.phi_hat.items() if y != x}
    extra = {**m.phi_hat, enumerate_emb(m.target)[-1]: m.phi_hat[x]}
    outside = {**m.phi_hat, x: EmbRegion(m.target, frozenset({"nowhere"}), frozenset())}
    partial0 = dict(list(m.phi0.items())[1:])
    for phi0, phi_hat in ((m.phi0, partial), (m.phi0, extra), (m.phi0, outside), (partial0, m.phi_hat)):
        bad = GraphMap(m.source, m.target, phi0, phi_hat, check=False)
        assert _error_code(site.locate, i, j, bad) == "SiteTooSmall"
    copy = GraphMap(m.source, m.target, dict(m.phi0), dict(m.phi_hat), check=False)
    assert site.locate(i, j, copy) == (i, j, 0)


def test_hom_sets_are_the_full_search(differential_site):
    """Every checked hom-set, assembled from active maps and inclusions, is
    what the reference search finds between the two objects, in order."""
    tag, site, pairs = differential_site
    found = 0
    for i, j in pairs:
        want = enumerate_graph_maps(site.objects[i], site.objects[j], tag=tag)
        assert list(site.hom(i, j)) == want, (i, j)
        found += len(want)
    assert found > len(site.objects)  # more than the identities


def test_sites_close_under_elementary_covers():
    """U(2,2,3) has objects (a vertex with a loop and a leg) whose vertex
    star has three legs, past the edge bound; the site adds it."""
    site = build_site("U", SiteBounds(2, 2, 3))
    assert max(len(g.edge_keys) for g in site.objects) == 3
    for i in range(len(site.objects)):
        covers, _ = elementary_over(site, i)
        assert covers


@pytest.mark.parametrize(
    "tag, bounds, n_pool, pinned",
    [
        (
            "O",
            SiteBounds(2, 3, 3),
            46,
            (59, 1494, "30a3c5275e9c714fd4e63b50be0077baf5e20c254cdbb5480886eb044249f317"),
        ),
        (
            "Omega",
            SiteBounds(3, 4, 3),
            15,
            (15, 565, "c27cd100b0256b2c3f6c4be35860ddb0ac88f6593164159ed63dbe02c6cb93e9"),
        ),
    ],
)
def test_closure_is_complete_and_pinned(tag, bounds, n_pool, pinned):
    """Every map's middle and every elementary cover in the category is
    isomorphic to some object, found by a plain scan over all objects.  The
    object texts and the hom-sets, in key order, are pinned by sha256, so a
    closure that adds the same objects in another order fails too: O adds
    13 objects to its pool of 46, Omega none to its 15."""
    site = build_site(tag, bounds)
    assert len(_object_pool(tag, bounds)) == n_pool

    def present(h):
        return any(isomorphic(g, h) for g in site.objects)

    for maps in site.homs.values():
        for m in maps:
            assert present(realize(m.phi_hat[id_element(m.source)])[0])
    for g in site.objects:
        for x in elementary_classes(g):
            h, _ = realize(x)
            assert not object_in_category(h, tag) or present(h)
    digest = hashlib.sha256()
    for g in site.objects:
        digest.update(graph_to_text(g).encode() + b"\n")
    for key, maps in sorted(site.homs.items()):
        digest.update(repr(key).encode() + b"\n")
        for m in maps:
            digest.update(repr(_sort_key(m)).encode() + b"\n")
    n_maps = sum(map(len, site.homs.values()))
    assert (len(site.objects), n_maps, digest.hexdigest()) == pinned


def test_elementary_classes_are_the_edges_and_stars(differential_site):
    """On every object, elementary_classes, read off the host index, is Emb
    filtered by the edge and vertex-star test, in Emb order."""
    _, site, _ = differential_site
    for g in site.objects:
        want = [
            x
            for x in enumerate_emb(g)
            if isinstance(x, EmbEdge) or (len(x.vertices) == 1 and not x.glued)
        ]
        assert elementary_classes(g) == want, g.name


def test_elements_functor_data_is_pinned(els):
    """The pairs, the object map, the morphism map and the size of every
    directed hom-set of each elements site, read through ``hom`` over all
    pairs in row-major order: their sizes and a sha256 of their items.  Kan
    extension reads a directed ref's base ref off mor_map, and mor_map's
    positions and order follow the order of the hom-sets."""
    got = {}
    for key, site in els.items():
        n = len(site.directed.objects)
        digest = hashlib.sha256()
        for part in (
            [(i, sorted(x)) for i, x in site.pairs],
            site.obj_map.items(),
            site.mor_map.items(),
            [((a, b), len(site.directed.hom(a, b))) for a in range(n) for b in range(n)],
        ):
            for item in part:
                digest.update(repr(item).encode() + b"\n")
        got[key] = (len(site.pairs), len(site.mor_map), digest.hexdigest())
    assert got == {
        "elsU": (133, 7489, "44e374d12a10e82b739c828780894fa50bc4c82ce4725f173b2ae1ce8d4238eb"),
        "elsU0": (55, 1979, "a9f5c86562d7495201a397136040878e1fefca9ba3b44ff173537e23f505075b"),
        "elsOmega": (16, 493, "bdc463e636a1ae4be0fbae875d5fb404f81fab85b0e40e42310a46d085baf036"),
    }


# ---------------------------------------------------------------------------
# lifted maps against the class-by-class reference


def translate_emb_to_oriented(x, d):
    """The class of Emb(d) over the class x of the undirected base, for d
    an orientation of x's host, built from x's fields: d names each edge
    by its +1 arc."""
    if isinstance(x, EmbEdge):
        (e,) = set(x.edge) & set(d.edges)
        return EmbEdge(d, e)
    glued = frozenset(a for e in x.glued for a in e if a in d.edges)
    return EmbRegion(d, x.vertices, glued)


def lift_map_to_oriented(m, d_src, d_dst):
    """The directed map over a base map compatible with the orientations,
    lifted class by class."""
    phi0 = {e: m.phi0[e] for e in d_src.edges}
    phi_hat = {
        translate_emb_to_oriented(u, d_src): translate_emb_to_oriented(v, d_dst)
        for u, v in m.phi_hat.items()
    }
    return GraphMap(d_src, d_dst, phi0, phi_hat, check=False)


@pytest.mark.parametrize("key", ["elsU", "elsU0", "elsOmega"])
def test_lifted_maps_match_the_reference(els, key):
    """Every lifted map is the reference lift of its base map, between the
    pairs whose orientations it restricts, and each pair's class table is a
    bijection onto the classes of its oriented host."""
    site = els[key]
    dobjects = site.directed.objects
    for k, (i, x) in enumerate(site.pairs):
        g, d = site.base.objects[i], dobjects[k]
        table = class_table(g, d)
        # one-to-one onto the oriented host's classes, as its own objects
        assert sorted(map(id, table)) == sorted(map(id, enumerate_emb(d)))
        assert set(table) == set(enumerate_emb(orient(g, x, name=d.name)))
        assert list(table) == [translate_emb_to_oriented(u, d) for u in enumerate_emb(g)]
    for (a, b, pos), base_ref in site.mor_map.items():
        m = site.base.morph(base_ref)
        (i, x), (j, y) = site.pairs[a], site.pairs[b]
        assert base_ref[:2] == (i, j)
        assert restrict_orientation(y, m.phi0, m.source) == x
        want = lift_map_to_oriented(m, dobjects[a], dobjects[b])
        assert site.directed.morph((a, b, pos)) == want
