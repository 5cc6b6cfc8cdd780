import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looseends.config import Budget, SiteBounds
from looseends.emb import (
    EmbEdge,
    EmbRegion,
    edge_element,
    enumerate_emb,
    id_element,
    index,
    intersect_subtrees,
    overlap,
    realize,
    region,
    vertex_element,
)
from looseends import gmaps
from looseends.errors import LooseEndsError, fail
from looseends.gen import _build, gen_trees_u
from looseends.gmaps import (
    GraphMap,
    compose,
    enumerate_active_maps,
    enumerate_graph_maps,
    extend_tree_map,
    factorize,
    identity_map,
    is_active,
    is_inert,
    map_from_embedding,
    morphism_in_category,
    object_in_category,
    restrict_tree_map,
    validate_graph_map,
    vertex_functor,
)
from looseends.graphs import (
    DGraph,
    UGraph,
    ends_by_edge,
    is_connected,
    isomorphic,
    make_edge,
    make_edge_dir,
    make_linear,
    make_star,
    make_star_dir,
    underlying,
    validate_dgraph,
    validate_ugraph,
)
from looseends.textio import emb_from_text


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


@pytest.fixture
def path2():
    return validate_ugraph(
        "path2",
        [("a", "a*"), ("b", "b*"), ("c", "c*")],
        [("x", ["a*", "b"]), ("y", ["b*", "c"])],
    )


class TestValidate:
    def test_identity_active_and_inert(self, theta):
        m = identity_map(theta)
        validate_graph_map(m)
        assert is_active(m) and is_inert(m)

    def test_embedding_induced_is_inert(self, theta):
        x = vertex_element(theta, "u")
        _, incl = realize(x)
        m = map_from_embedding(incl)
        validate_graph_map(m)
        assert is_inert(m)
        assert not is_active(m)

    def test_fold_violates_disjointness(self, path2):
        # send both vertices of the path onto overlapping star images
        s2 = make_star(2)
        host = path2
        maps = enumerate_graph_maps(host, host)
        assert maps  # sanity on the enumerator
        # hand-build a bad table: both vertices onto the same star
        good = identity_map(host)
        bad_hat = dict(good.phi_hat)
        bad_hat[vertex_element(host, "y")] = vertex_element(host, "x")
        with pytest.raises(LooseEndsError) as ei:
            GraphMap(host, host, good.phi0, bad_hat)
        assert ei.value.code in {
            "DisjointnessViolated",
            "BoundaryIncompatible",
            "UnionNotPreserved",
        }


class TestCompose:
    def test_identity_neutral(self, theta):
        ms = enumerate_graph_maps(theta, theta)
        for m in ms[:6]:
            assert compose(m, identity_map(theta)) == m
            assert compose(identity_map(theta), m) == m

    def test_mismatch(self, theta, four_cycle):
        with pytest.raises(LooseEndsError) as ei:
            compose(identity_map(theta), identity_map(four_cycle))
        assert ei.value.code == "SourceTargetMismatch"

    def test_closure_and_classes(self, path2):
        s2 = make_star(2)
        maps_a = enumerate_graph_maps(s2, path2)
        maps_b = enumerate_graph_maps(path2, path2)
        for f in maps_a:
            for g in maps_b:
                h = compose(g, f, check=True)  # closure: must validate
                if is_inert(f) and is_inert(g):
                    assert is_inert(h)
                if is_active(f) and is_active(g):
                    assert is_active(h)


class TestIdentity:
    def test_insertion_order_does_not_matter(self, theta):
        for m in enumerate_graph_maps(theta, theta)[:6]:
            flipped = GraphMap(
                m.source,
                m.target,
                dict(reversed(list(m.phi0.items()))),
                dict(reversed(list(m.phi_hat.items()))),
                check=False,
            )
            assert flipped == m and hash(flipped) == hash(m)

    def test_edge_flip_differs_only_in_phi0(self):
        e = make_edge()
        ident = identity_map(e)
        flip = GraphMap(e, e, {"a": "a*", "a*": "a"}, ident.phi_hat)
        assert ident == GraphMap(e, e, {"a": "a", "a*": "a*"}, ident.phi_hat)
        assert flip != ident
        assert set(enumerate_graph_maps(e, e)) == {flip, ident}

    def test_probe_with_empty_phi_hat(self, theta):
        m = identity_map(theta)
        probe = GraphMap(theta, theta, m.phi0, {}, check=False)
        assert probe == GraphMap(theta, theta, dict(m.phi0), {}, check=False)
        assert probe != m
        assert len({probe, m}) == 2


class TestTreeMaps:
    def test_identity_extension(self, path2):
        phi0, phi1 = restrict_tree_map(identity_map(path2))
        m = extend_tree_map(path2, path2, phi0, phi1)
        assert m == identity_map(path2)

    def test_degeneracy_L1_to_L0(self):
        l1, l0 = make_linear(1), make_linear(0)
        phi0 = {"0": "0", "1": "0"}
        phi1 = {"1": EmbEdge(l0, "0")}
        m = extend_tree_map(l1, l0, phi0, phi1)
        assert is_active(m)

    def test_not_trees(self, theta):
        with pytest.raises(LooseEndsError) as ei:
            extend_tree_map(theta, theta, {}, {})
        assert ei.value.code == "NotTrees"

    def test_extension_bijection_small(self):
        trees = gen_trees_u(SiteBounds(max_vertices=3, max_edges=4, max_arity=3))
        for g in trees:
            for gp in trees:
                full = enumerate_graph_maps(g, gp)
                seen = set()
                for m in full:
                    phi0, phi1 = restrict_tree_map(m)
                    rebuilt = extend_tree_map(g, gp, phi0, phi1)
                    assert rebuilt == m
                    seen.add(m)
                assert len(seen) == len(full)

    @pytest.mark.parametrize(
        "phi0, phi1, where",
        [
            (
                {"e0+": "e1+", "e0-": "e0-", "e1+": "e1-", "e1-": "e0-"},
                {"v0": "{vertices v0}", "v1": "{vertices v0}", "v2": "{edge e1+}"},
                ["v0", "v2"],
            ),
            (
                {"e0+": "e1+", "e0-": "e1-", "e1+": "e1-", "e1-": "e0-"},
                {
                    "v0": "{vertices v0 v1; uncut e0+}",
                    "v1": "{vertices v0}",
                    "v2": "{edge e1+}",
                },
                ["v1", "v2"],
            ),
        ],
        ids=["first-region", "second-region"],
    )
    def test_vertex_data_without_a_union_names_the_region(self, phi0, phi1, where):
        """Vertex data whose boundaries match but whose images have no
        union fails BoundaryIncompatible at the first region, by size and
        then Emb order, where the union is missing: on the path
        v0 - v2 - v1, {v0, v2} comes before {v1, v2}."""
        pairs = [("e0+", "e0-"), ("e1+", "e1-")]
        path3 = [("v0", ["e0+"]), ("v1", ["e1+"]), ("v2", ["e0-", "e1-"])]
        g = validate_ugraph("path3", pairs, path3)
        gp = validate_ugraph("path2", pairs, [("v0", ["e0+"]), ("v1", ["e0-", "e1+"])])
        images = {v: emb_from_text(gp, text) for v, text in phi1.items()}
        with pytest.raises(LooseEndsError) as ei:
            extend_tree_map(g, gp, phi0, images)
        assert str(ei.value) == (
            f"BoundaryIncompatible: no unique union while extending at {where}"
        )

    def test_intersection_preservation(self, path2):
        maps = enumerate_graph_maps(path2, path2)
        elems = enumerate_emb(path2)
        for m in maps:
            for s in elems:
                for t in elems:
                    if not overlap(s, t):
                        continue
                    common = intersect_subtrees(s, t)
                    img = intersect_subtrees(m.phi_hat[s], m.phi_hat[t])
                    assert img is not None
                    assert m.phi_hat[common] == img

    def test_distinct_vertices_map_disjointly(self, path2):
        for m in enumerate_graph_maps(path2, path2):
            xs = [m.phi_hat[vertex_element(path2, v)] for v in path2.vertices]
            for x, y in itertools.combinations(xs, 2):
                assert not (x.vertex_set & y.vertex_set)


class TestCounts:
    def test_edge_automorphisms(self):
        assert len(enumerate_graph_maps(make_edge(), make_edge())) == 2
        assert len(enumerate_graph_maps(make_edge_dir(), make_edge_dir())) == 1

    def test_delta_hom_L1_L2(self):
        maps = enumerate_graph_maps(make_linear(1), make_linear(2), tag="Delta")
        assert len(maps) == 6  # monotone maps [1] -> [2]

    def test_delta_simplicial_identities_commute(self):
        # d1 . s0 relations hold because composition is just composition
        l0, l1 = make_linear(0), make_linear(1)
        degeneracies = [
            m for m in enumerate_graph_maps(l1, l0, tag="Delta") if is_active(m)
        ]
        faces = enumerate_graph_maps(l0, l1, tag="Delta")
        assert len(degeneracies) == 1
        assert len(faces) == 2
        s0 = degeneracies[0]
        for d in faces:
            assert compose(s0, d, check=True) == identity_map(l0)

    def test_program_errors_are_not_swallowed(self, monkeypatch):
        # only a failed check may drop a candidate; a KeyError is a bug
        def broken(m):
            raise KeyError("bug")

        monkeypatch.setattr(gmaps, "validate_graph_map", broken)
        with pytest.raises(KeyError):
            enumerate_graph_maps(make_linear(1), make_linear(2), tag="Delta")


class TestFactorize:
    def _roundtrip(self, m):
        alpha, iota = factorize(m)
        assert is_active(alpha)
        assert is_inert(iota)
        assert compose(iota, alpha, check=True) == m

    def test_inert_case(self, theta):
        x = vertex_element(theta, "u")
        _, incl = realize(x)
        self._roundtrip(map_from_embedding(incl))

    def test_active_case(self, theta):
        star, cover = star_cover(theta)
        assert is_active(cover)
        self._roundtrip(cover)

    def test_every_small_map(self, path2, theta):
        s2 = make_star(2)
        for src, dst in ((s2, path2), (path2, path2), (s2, theta)):
            for m in enumerate_graph_maps(src, dst):
                self._roundtrip(m)

    def test_factors_unique_up_to_iso(self, path2):
        # collect all factorizations through enumerated middles and check a
        # unique iso links any two of them
        s2 = make_star(2)
        for m in enumerate_graph_maps(s2, path2):
            alpha, iota = factorize(m)
            mids = [make_star(2), make_edge(), path2]
            found = []
            for h in mids:
                for a in enumerate_graph_maps(s2, h):
                    if not is_active(a):
                        continue
                    for i in enumerate_graph_maps(h, path2):
                        if not is_inert(i):
                            continue
                        if compose(i, a) == m:
                            found.append((a, i))
            assert found
            # all middles isomorphic to the canonical one
            for a, i in found:
                assert isomorphic(a.target, alpha.target)


def compose_pointed(inner, outer):
    """Composite of vertex_functor tables: V(psi . phi) = V(phi) . V(psi)."""
    return {w: (inner.get(v) if v is not None else None) for w, v in outer.items()}


class TestVertexFunctor:
    def test_identity(self, theta):
        vf = vertex_functor(identity_map(theta))
        assert vf == {"u": "u", "v": "v"}

    def test_star_inclusion(self, theta):
        x = vertex_element(theta, "u")
        _, incl = realize(x)
        m = map_from_embedding(incl)
        vf = vertex_functor(m)
        assert vf == {"u": "u", "v": None}

    def test_functoriality(self, path2):
        s2 = make_star(2)
        fs = enumerate_graph_maps(s2, path2)
        gs = enumerate_graph_maps(path2, path2)
        for f in fs:
            for g in gs:
                lhs = vertex_functor(compose(g, f))
                rhs = compose_pointed(vertex_functor(f), vertex_functor(g))
                assert lhs == rhs


class TestMembership:
    def test_objects(self, theta, four_cycle, diamond):
        ln = make_linear(2)
        assert object_in_category(ln, "Delta")
        assert object_in_category(ln, "Omega")
        assert object_in_category(ln, "O0")
        assert object_in_category(underlying(ln), "U0")
        assert not object_in_category(make_star_dir(1, 2), "Omega")
        assert object_in_category(make_star_dir(1, 2), "O0")
        assert not object_in_category(make_star(0), "Ucyc")
        assert object_in_category(make_star(0), "U0")
        assert object_in_category(four_cycle, "U")
        assert not object_in_category(four_cycle, "U0")
        assert object_in_category(diamond, "G")
        two_cycle = validate_dgraph(
            "two_cycle", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
        )
        assert object_in_category(two_cycle, "O")
        assert not object_in_category(two_cycle, "G")

    def test_unknown_category_is_named(self):
        with pytest.raises(LooseEndsError) as ei:
            object_in_category(make_linear(1), "XYZ")
        assert ei.value.code == "UnknownCategory"

    def test_properadic_morphisms(self, diamond):
        maps = enumerate_graph_maps(diamond, diamond)
        for m in maps:
            ok = morphism_in_category(m, "G")
            from looseends.emb import is_structured

            assert ok == is_structured(m.phi_hat[id_element(diamond)])


class TestHypermoment:
    def test_inert_star_lifts_essentially_unique(self, theta, path2):
        for host in (theta, path2):
            for v in host.vertices:
                n = len(host.nbhd(v))
                star = make_star(n)
                lifts = [
                    m
                    for m in enumerate_graph_maps(star, host)
                    if is_inert(m)
                    and m.phi_hat[id_element(star)] == vertex_element(host, v)
                ]
                assert lifts
                # all lifts differ by an automorphism of the star
                autos = enumerate_graph_maps(star, star)
                iso_autos = [a for a in autos if is_active(a) and is_inert(a)]
                orbit = {compose(lifts[0], a) for a in iso_autos}
                assert set(lifts) <= orbit

    def test_active_cover_exists_and_unique(self, theta, path2, loop_with_legs):
        for host in (theta, path2, loop_with_legs):
            star, cover = star_cover(host)
            assert is_active(cover)
            covers = [
                m for m in enumerate_graph_maps(star, host) if is_active(m)
            ]
            autos = [
                a
                for a in enumerate_graph_maps(star, star)
                if is_active(a) and is_inert(a)
            ]
            orbit = {compose(cover, a) for a in autos}
            assert set(covers) == orbit


class TestActivity:
    def test_non_surjective_on_max_not_active(self, theta):
        x = vertex_element(theta, "u")
        _, incl = realize(x)
        m = map_from_embedding(incl)
        assert m.phi_hat[id_element(m.source)] != id_element(theta)
        assert not is_active(m)


class TestVertexDataDeterminacy:
    def test_no_counterexample_on_small_hosts(self):
        """Whether (phi0, phi_hat on vertices) pins down the whole table for
        non-trees is open; on this search range no two maps share the data."""
        from collections import defaultdict

        from looseends.config import SiteBounds
        from looseends.gen import gen_connected_ugraphs

        pool = [
            g
            for g in gen_connected_ugraphs(SiteBounds(2, 4, 3))
            if any(g.is_internal_edge(e) for e in g.edges())
        ]
        for h in pool:
            for g in pool:
                groups = defaultdict(list)
                for m in enumerate_graph_maps(h, g):
                    key = (
                        tuple(sorted(m.phi0.items())),
                        tuple(
                            repr(m.phi_hat[vertex_element(h, v)])
                            for v in h.vertices
                        ),
                    )
                    groups[key].append(m)
                assert all(len(grp) == 1 for grp in groups.values())


# Error codes of the mutation sweep, per family of maps.
VALIDATE_CODES = {
    "trees": {"BoundaryIncompatible": 1544, "EdgesNotPreserved": 492},
    "U": {
        "BoundaryIncompatible": 19661,
        "DisjointnessViolated": 110,
        "EdgesNotPreserved": 11632,
        "UnionNotPreserved": 348,
        None: 36,
    },
    "G": {
        "BoundaryIncompatible": 6501,
        "DisjointnessViolated": 4,
        "EdgesNotPreserved": 3789,
        "UnionNotPreserved": 37,
        None: 5,
    },
    "Delta": {"BoundaryIncompatible": 4162, "EdgesNotPreserved": 1699},
}


def _mutations(maps):
    """Each map with one phi_hat entry replaced by another element of the
    target's Emb, unchecked."""
    for m in maps:
        for x in enumerate_emb(m.source):
            for y in enumerate_emb(m.target):
                if y == m.phi_hat[x]:
                    continue
                table = dict(m.phi_hat)
                table[x] = y
                yield GraphMap(m.source, m.target, m.phi0, table, check=False)


def _validate_codes(maps):
    """validate_graph_map's code for every mutation (None: still valid)."""
    codes = Counter()
    for bad in _mutations(maps):
        try:
            validate_graph_map(bad)
            codes[None] += 1
        except LooseEndsError as err:
            codes[err.code] += 1
    return dict(codes)


def test_mutation_sweep_pins_validate_codes():
    """Every single-entry corruption of a valid phi_hat is caught with the
    pinned code: a guard on validate_graph_map over tree maps, the cyclic
    site U and the directed sites G and Delta."""
    from looseends.config import SiteBounds
    from looseends.sites import build_site

    trees = gen_trees_u(SiteBounds(4, 6, 3))
    families = {
        "trees": [
            m
            for i, j in ((6, 12), (11, 22), (9, 9))
            for m in enumerate_graph_maps(trees[i], trees[j])
        ]
    }
    for tag, bounds in (
        ("U", SiteBounds(2, 3, 3)),
        ("G", SiteBounds(2, 3, 3)),
        ("Delta", SiteBounds(3, 4, 2)),
    ):
        site = build_site(tag, bounds)
        families[tag] = [site.morph(ref) for ref in site.all_refs()]
    got = {name: _validate_codes(maps) for name, maps in families.items()}
    assert got == VALIDATE_CODES


def test_factorize_on_corrupted_tables():
    """factorize on the sweep's mutations of every 10th morphism of U and
    Delta either fails with a library error or returns a factorization of
    exactly the corrupted map; it never raises a program error.  Most
    mutations are no graph maps; the three in U that still are factorize."""
    from looseends.sites import build_site

    answers = Counter()
    for tag, bounds in (("U", SiteBounds(2, 3, 3)), ("Delta", SiteBounds(3, 4, 2))):
        site = build_site(tag, bounds)
        maps = [site.morph(ref) for ref in itertools.islice(site.all_refs(), 0, None, 10)]
        for bad in _mutations(maps):
            try:
                alpha, iota = factorize(bad)
            except LooseEndsError:
                answers[tag, "refused"] += 1
                continue
            assert compose(iota, alpha, check=True) == bad
            answers[tag, "factorized"] += 1
    assert answers == {("U", "refused"): 3185, ("U", "factorized"): 3, ("Delta", "refused"): 595}


# ---------------------------------------------------------------------------
# inert and active maps, read from the host index


@pytest.fixture(scope="module")
def a05_sites():
    """The sites of acceptance criterion A05; an elements site as its
    directed part."""
    from looseends.sites import build_elements_site, build_site

    sites = {
        "U": build_site("U", SiteBounds(2, 3, 3)),
        "U0": build_site("U0", SiteBounds(2, 4, 3)),
        "Ucyc": build_site("Ucyc", SiteBounds(2, 4, 3)),
        "Delta": build_site("Delta", SiteBounds(4, 5, 2)),
        "G": build_site("G", SiteBounds(2, 3, 3)),
    }
    for key, base, rooted in (("elsU", "U", False), ("elsU0", "U0", False), ("elsOmega", "Ucyc", True)):
        sites[key] = build_elements_site(sites[base], rooted_only=rooted).directed
    return sites


def _whole(g):
    """The class of the whole host, from the vertex and edge sets: every
    vertex, and every edge with both ends attached."""
    if g.vertices:
        inside = frozenset(e for e in g.edge_keys if None not in g.ends(e))
        return EmbRegion(g, frozenset(g.vertices), inside)
    (e,) = g.edge_keys
    return EmbEdge(g, e)


def _inert_by_regions(m):
    """Inert as first defined: every vertex's class, built and validated by
    region(), goes to the class of one vertex with no glued edge."""
    for v in m.source.vertices:
        y = m.phi_hat[region(m.source, [v], [])]
        if not (isinstance(y, EmbRegion) and len(y.vertices) == 1 and not y.glued):
            return False
    return True


def test_inert_and_active_match_the_region_definitions(a05_sites):
    counts = Counter()
    for site in a05_sites.values():
        for ref in site.all_refs():
            m = site.morph(ref)
            inert, active = is_inert(m), is_active(m)
            assert inert == _inert_by_regions(m), (site.tag, ref)
            assert active == (m.phi_hat[_whole(m.source)] == _whole(m.target)), (site.tag, ref)
            counts[inert, active] += 1
    assert sum(counts.values()) == 12241
    assert len(counts) == 4  # both answers of both tests occur


def test_site_maps_hold_their_hosts_own_classes(a05_sites):
    """Found and lifted maps hold the objects of their hosts' Emb, never
    equal copies: one object per class keeps the heap of a site, and so
    every full garbage collection, small."""
    for site in a05_sites.values():
        own = {x: x for g in site.objects for x in enumerate_emb(g)}
        for maps in site.homs.values():
            for m in maps:
                assert all(own[x] is x and own[y] is y for x, y in m.phi_hat.items())


def test_maps_and_their_factorizations_hold_their_hosts_own_classes(a05_sites):
    """Every key and value of phi_hat, in every map of the A05 sites and in
    both parts of its factorization, is the very object that its host's
    index lists: each class is made once, in its host's index, and every
    path hands that object out."""
    own = {}  # id of a host -> (the host, the ids of its index's classes)

    def fresh(g, xs):
        ids = own.setdefault(id(g), (g, {id(x) for x in index(g).emb}))[1]
        return sum(id(x) not in ids for x in xs)

    found = Counter()
    for key, site in a05_sites.items():
        for ref in site.all_refs():
            m = site.morph(ref)
            for part in (m, *factorize(m)):
                found[key] += fresh(part.source, part.phi_hat) + fresh(
                    part.target, part.phi_hat.values()
                )
    assert +found == {}


def _build_and_factorize(monkeypatch):
    """Build the U site within SiteBounds(2, 2, 3) and factorize each of its
    morphisms, counting from before the build: the keys of the hosts whose
    index is built, the realizations that realize makes (emb builds an
    EtaleMap nowhere else) and the distinct middles met."""
    from looseends import emb
    from looseends.sites import build_site

    built, made = [], []
    init, etale_map = emb.HostIndex.__init__, emb.EtaleMap

    def counting_init(ix, g):
        built.append(g._key)
        init(ix, g)

    def counting_map(h, g, *rest):
        made.append(h._key)
        return etale_map(h, g, *rest)

    monkeypatch.setattr(emb.HostIndex, "__init__", counting_init)
    monkeypatch.setattr(emb, "EtaleMap", counting_map)
    site = build_site("U", SiteBounds(2, 2, 3))
    middles = set()
    for ref in site.all_refs():
        m = site.morph(ref)
        alpha, iota = factorize(m)
        assert alpha.target is iota.source is realize(m.phi_hat[id_element(m.source)])[0]
        middles.add(alpha.target._key)
    return site, built, made, middles


def test_factorize_builds_one_index_per_distinct_middle(monkeypatch):
    """realize keeps each class's realization, so the build and factorize
    realize each middle class once, equal middles are one graph, and every
    graph met has one host index."""
    _, built, made, middles = _build_and_factorize(monkeypatch)
    assert len(built) == len(set(built)) == 66
    assert len(made) == len(set(made)) == len(middles) == 53
    assert middles == set(made)


def test_index_builds_do_not_depend_on_earlier_sites(monkeypatch):
    """Emb classes carry the host they were asked for, not an equal host
    seen earlier in the process, so a larger site built first changes
    nothing: still one index per graph and one realization per middle."""
    from looseends.sites import build_site

    build_site("U", SiteBounds(2, 3, 3))
    site, built, made, middles = _build_and_factorize(monkeypatch)
    assert len(built) == len(set(built)) == 66
    assert len(made) == len(set(made)) == len(middles) == 53
    for g in site.objects:
        h = UGraph(g.name, g.dagger, g.t, g.vertices)
        assert h == g and h is not g
        assert all(x.host is h for x in enumerate_emb(h))


# ---------------------------------------------------------------------------
# enumerate_graph_maps: pinned hom-sets, trees past A04, search budget


def test_hom_sets_are_pinned(a05_sites):
    """Every hom-set of the A05 sites, then of all 41 x 41 pairs of A04's
    trees, in order: the number of maps and a sha256 of their sort keys,
    recorded from the exhaustive search that first tried every boundary
    permutation and every boundary-matching region image."""
    digest, count = hashlib.sha256(), 0

    def add(maps):
        nonlocal count
        for m in maps:
            digest.update(repr(gmaps._sort_key(m)).encode() + b"\n")
            count += 1

    for site in a05_sites.values():
        for _, maps in sorted(site.homs.items()):
            add(maps)
    assert count == 12241
    trees = gen_trees_u(SiteBounds(4, 6, 3))
    for h in trees:
        for g in trees:
            add(enumerate_graph_maps(h, g))
    assert count == 25510
    assert digest.hexdigest() == (
        "9c139fb3aa8357b9ef75efb4eeb06fd4c2da7c0935df3cd802589b707cde4c52"
    )


def test_factorizations_are_pinned(a05_sites):
    """The active and inert parts of every morphism of the A05 sites: their
    number and a sha256 of their sort keys, recorded from a search that
    tried every lift of phi0 and every table over the middle's Emb."""
    digest, count = hashlib.sha256(), 0
    for site in a05_sites.values():
        for ref in site.all_refs():
            alpha, iota = factorize(site.morph(ref))
            for part in (alpha, iota):
                digest.update(repr(gmaps._sort_key(part)).encode() + b"\n")
            count += 1
    assert count == 12241
    assert digest.hexdigest() == (
        "01879b5acacee205fef2523a65041322576f08eb9f132f05ea1e64d2aa9d2547"
    )


def test_kept_realizations_are_never_changed(a05_sites):
    """realize hands every caller the one realization it keeps, so none may
    change it: after the site builds and a factorization of every
    morphism, each kept realization equals the one realized afresh on a
    copy of its host, graph and embedding alike."""
    for site in a05_sites.values():
        for ref in site.all_refs():
            factorize(site.morph(ref))
    hosts = [g for site in a05_sites.values() for g in site.objects]
    seen, checked = set(), 0
    while hosts:
        g = hosts.pop()
        ix = g.__dict__.get("_emb_index")
        if id(g) in seen or ix is None:
            continue
        seen.add(id(g))
        copy = type(g).from_ends(g.name, ends_by_edge(g), g.vertices)
        for x, (h, m) in ix.realized.items():
            if isinstance(x, EmbEdge):
                twin = EmbEdge(copy, x.edge)
            else:
                twin = EmbRegion(copy, x.vertices, x.glued)
            k, n = realize(twin)
            assert (h.name, h._key) == (k.name, k._key), x
            assert (m.component, m.vertex_map) == (n.component, n.vertex_map), x
            hosts.append(h)
            checked += 1
    assert checked > 1000


@st.composite
def _trees(draw, arity=3):
    """A tree on 5 or 6 vertices with every vertex of degree at most arity,
    built as gen builds its graphs: a bundle of internal edges, then legs."""
    k = draw(st.integers(5, 6))
    degree, bundle = [0] * k, []
    for i in range(1, k):
        p = draw(st.sampled_from([p for p in range(i) if degree[p] < arity]))
        bundle.append((p, i))
        degree[p] += 1
        degree[i] += 1
    legs = [draw(st.integers(0, arity - d)) for d in degree]
    return _build(UGraph, k, bundle, legs)


@settings(max_examples=10, deadline=None)
@given(_trees(), _trees())
def test_tree_maps_past_a04_extend_from_their_vertex_data(h, g):
    """Past A04's four vertices: every map found by the search is the one
    that extend_tree_map builds from its vertex data, and no map or vertex
    data comes twice.  A tree maps to itself at least by the identity, so
    (g, g) is checked too."""
    for source in (h, g):
        maps = enumerate_graph_maps(source, g)
        data = set()
        for m in maps:
            phi0, phi1 = restrict_tree_map(m)
            assert extend_tree_map(source, g, phi0, phi1) == m
            data.add((tuple(sorted(phi0.items())), tuple(sorted(phi1.items()))))
        assert len(set(maps)) == len(data) == len(maps)
    assert maps


def test_search_budget_message_names_the_search(path2):
    for search, maps in ((enumerate_graph_maps, 20), (enumerate_active_maps, 6)):
        with pytest.raises(LooseEndsError) as ei:
            search(path2, path2, budget=Budget(nodes=5))
        assert ei.value.code == "SearchBudgetExceeded"
        assert str(ei.value) == (
            f"SearchBudgetExceeded: {search.__name__} path2 -> path2: 6 nodes used"
        )
        assert len(search(path2, path2)) == maps


def test_active_search_finds_the_active_maps_of_the_full_search(differential_site):
    """On every checked pair of objects, the active search returns the maps
    of the reference search that send the whole source to the whole
    target, in search order: sorted by _sort_key, they are the reference's
    list."""
    tag, site, pairs = differential_site
    found = 0
    for i, j in pairs:
        g, h = site.objects[i], site.objects[j]
        want = [m for m in enumerate_graph_maps(g, h, tag) if is_active(m)]
        assert sorted(enumerate_active_maps(g, h), key=gmaps._sort_key) == want, (i, j)
        found += len(want)
    assert found > len(site.objects)  # more than the identities
