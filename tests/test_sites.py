"""Sites: hom-set order, composition by code lookup against the map-level
composite, the lookup's error codes, and closure under elementary covers."""

import pytest

from looseends.config import SiteBounds
from looseends.emb import EmbRegion, enumerate_emb
from looseends.errors import LooseEndsError
from looseends.gmaps import GraphMap, compose
from looseends.presheaves import elementary_over
from looseends.sites import Site, build_elements_site, build_site


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
def sites(u0_site):
    return {
        "U0": (u0_site, 1),
        "Ucyc": (build_site("Ucyc", SiteBounds(2, 4, 3)), 1),
        "Delta": (build_site("Delta", SiteBounds(4, 5, 2)), 1),
        "elsU0": (build_elements_site(u0_site).directed, 23),
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


def test_sites_close_under_elementary_covers():
    """U(2,2,3) has objects (a vertex with a loop and a leg) whose vertex
    star has three legs, past the edge bound; the site adds it."""
    site = build_site("U", SiteBounds(2, 2, 3))
    assert max(len(g.edge_keys) for g in site.objects) == 3
    for i in range(len(site.objects)):
        covers, _ = elementary_over(site, i)
        assert covers
