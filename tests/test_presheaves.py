import pytest

from looseends.config import OperadCaps, SiteBounds
from looseends.errors import LooseEndsError, fail
from looseends.graphs import make_linear, underlying
from looseends.operads import (
    free_cyclic,
    io_presentation,
    monoid_dioperad,
    nerve_action,
    terminal_presentation,
)
from looseends.presheaves import (
    _limit_families,
    elementary_over,
    elements_equivalence_check,
    is_segal,
    kan_formula_matches_oracle,
    left_kan_formula,
    limit_families_bruteforce,
    nerve_presheaf,
    orientation_presheaf,
    presheaf_from_values,
    representable,
    restrict_presheaf,
    segal_map,
    terminal_presheaf,
)
from looseends.sites import (
    build_elements_site,
    build_site,
    orient,
    orientations,
    restrict_orientation,
    root,
)


def canonical_orientation(d):
    """The +1 arcs of underlying(d): the e+ side."""
    return frozenset(f"{e}+" for e in d.edges)


def slice_restriction(els, X, aug):
    """Restrict an orientation-augmented presheaf along the equivalence: the
    directed-side value at (G, x) is the fiber of aug over x."""

    def values(k):
        i, x = els.pairs[k]
        return [e for e in X.value(i) if aug[i][e] == x]

    def action(ref, elem):
        return X.act(els.mor_map[ref], elem)

    return presheaf_from_values(els.directed, values, action, name=f"{X.name}|fiber")


def orientation_augmentation(site, X, orient_presheaf, picker):
    """aug[i][elem] = orientation; picker builds the natural transformation."""
    aug = {}
    for i in range(len(site.objects)):
        aug[i] = {e: picker(i, e) for e in X.value(i)}
    # naturality
    for ref in site.all_refs():
        i, j, pos = ref
        m = site.morph(ref)
        for e in X.value(j):
            lhs = aug[i][X.act(ref, e)]
            rhs = restrict_orientation(aug[j][e], m.phi0, m.source)
            if lhs != rhs:
                fail("SiteTooSmall", "augmentation is not natural")
    return aug


@pytest.fixture(scope="module")
def u_site():
    return build_site("U", SiteBounds(2, 3, 3))


@pytest.fixture(scope="module")
def u0_site():
    return build_site("U0", SiteBounds(2, 4, 3))


@pytest.fixture(scope="module")
def ucyc_site():
    return build_site("Ucyc", SiteBounds(2, 4, 3))


@pytest.fixture(scope="module")
def delta_site():
    return build_site("Delta", SiteBounds(4, 5, 2))


@pytest.fixture(scope="module")
def els_u(u_site):
    return build_elements_site(u_site)


@pytest.fixture(scope="module")
def els_u0(u0_site):
    return build_elements_site(u0_site)


@pytest.fixture(scope="module")
def els_omega(ucyc_site):
    return build_elements_site(ucyc_site, rooted_only=True)


class TestOrientation:
    def test_edge_has_two(self, u_site):
        o = orientation_presheaf(u_site)
        edge_idx = next(
            i for i, g in enumerate(u_site.objects) if not g.vertices
        )
        assert len(o.value(edge_idx)) == 2

    def test_counts_are_powers_of_two(self, u_site):
        o = orientation_presheaf(u_site)
        for i, g in enumerate(u_site.objects):
            assert len(o.value(i)) == 2 ** len(set(g.edges()))

    def test_functorial(self, u_site):
        orientation_presheaf(u_site).validate()

    def test_orient_round_trip(self, u_site):
        from looseends.graphs import isomorphic, underlying

        for g in u_site.objects[:8]:
            for x in orientations(g):
                d = orient(g, x)
                u = underlying(d)
                assert isomorphic(u, g)
                d2 = orient(u, canonical_orientation(d))
                assert isomorphic(d2, d)

    def test_root_linear(self):
        for n in range(4):
            u = underlying(make_linear(n))
            bottom = f"{n}+"  # the boundary arc at the output end
            from looseends.graphs import isomorphic

            assert isomorphic(root(u, bottom), make_linear(n))

    def test_root_requires_boundary_arc(self):
        u = underlying(make_linear(1))
        with pytest.raises(LooseEndsError) as ei:
            root(u, "0+")  # attached arc, not boundary
        assert ei.value.code == "NotBoundaryArc"

    def test_orientation_segal(self, u_site):
        o = orientation_presheaf(u_site)
        verdict, report = is_segal(o)
        assert verdict, report


class TestSegal:
    def test_terminal_is_segal(self, u_site):
        verdict, _ = is_segal(terminal_presheaf(u_site))
        assert verdict

    def test_limit_matches_bruteforce(self, u_site):
        """The Segal map's image is the oracle's limit.  So is the backtracked
        limit with the cover keys reversed: in key order edges come first and
        every arrow runs from an earlier cover to a later one, reversed from a
        later to an earlier, so the arrow check is taken on both sides."""
        o = orientation_presheaf(u_site)
        for i in range(len(u_site.objects)):
            mapping, bij = segal_map(o, i)
            brute = limit_families_bruteforce(o, i)
            assert set(mapping.values()) == set(brute)
            covers, arrows = u_site.covers(i)
            keys = sorted(covers, key=lambda x: x.sort_key())[::-1]
            reversed_limit = _limit_families(o, covers, arrows, keys)
            assert set(reversed_limit) == {fam[::-1] for fam in brute}, i

    def test_perturbed_not_segal(self, u_site):
        from looseends.presheaves import doubled_value_fixture

        bad, target = doubled_value_fixture(u_site)
        bad.validate()
        verdict, report = is_segal(bad)
        assert not verdict
        assert report["object"] == target

    def test_nerve_terminal_modular_segal(self, u_site):
        P = terminal_presentation("modular", caps=OperadCaps(6, 16))
        n = nerve_presheaf(P, u_site)
        n.validate()
        verdict, _ = is_segal(n)
        assert verdict

    def test_nerve_free_cyclic_segal_and_representable(self, u0_site):
        tree = u0_site.objects[-1]
        C = free_cyclic(tree, caps=OperadCaps(6, 24))
        n = nerve_presheaf(C, u0_site)
        verdict, _ = is_segal(n)
        assert verdict
        k = u0_site.find_object(tree)
        y = representable(u0_site, k)
        for i in range(len(u0_site.objects)):
            assert len(n.value(i)) == len(y.value(i))

    def test_delta_segal_chain(self, delta_site):
        P = monoid_dioperad()
        n = nerve_presheaf(P, delta_site)
        n.validate()
        verdict, _ = is_segal(n)
        assert verdict
        # X_n = X_1 x_{X_0} ... x_{X_0} X_1 explicitly: values at L_n are
        # composable strings, here |X_n| = |monoid|^n
        sizes = {}
        for i, g in enumerate(delta_site.objects):
            sizes[len(g.vertices)] = len(n.value(i))
        assert sizes == {0: 1, 1: 2, 2: 4, 3: 8, 4: 16}


class TestRepresentables:
    def test_representable_functorial(self, u0_site):
        representable(u0_site, 0).validate()


class TestKan:
    def _battery(self, els):
        zs = [terminal_presheaf(els.directed)]
        zs.append(representable(els.directed, 0))
        return zs

    def test_terminal_kan_is_orientation(self, els_u0):
        f_shriek = left_kan_formula(els_u0, terminal_presheaf(els_u0.directed))
        o = orientation_presheaf(els_u0.base)
        for i in range(len(els_u0.base.objects)):
            assert len(f_shriek.value(i)) == len(o.value(i))
        # natural bijection: drop the * component
        for ref in els_u0.base.all_refs():
            for xs, star in f_shriek.value(ref[1]):
                lhs, _ = f_shriek.act(ref, (xs, star))
                rhs = o.act(ref, frozenset(xs))
                assert frozenset(lhs) == rhs

    def test_edge_object_two_summands(self, els_u0):
        base = els_u0.base
        edge_idx = next(i for i, g in enumerate(base.objects) if not g.vertices)
        f_shriek = left_kan_formula(els_u0, terminal_presheaf(els_u0.directed))
        assert len(f_shriek.value(edge_idx)) == 2

    def test_formula_matches_oracle(self, els_u0, els_u, els_omega):
        for els in (els_u0, els_u, els_omega):
            for Z in self._battery(els):
                for i in range(len(els.base.objects)):
                    assert kan_formula_matches_oracle(els, Z, i)

    def test_formula_matches_oracle_nerves(self, els_u0, els_u):
        P = monoid_dioperad()
        n = nerve_presheaf(P, els_u0.directed)
        for i in range(len(els_u0.base.objects)):
            assert kan_formula_matches_oracle(els_u0, n, i)
        W = terminal_presentation("wheeledProperad", caps=OperadCaps(6, 16))
        nw = nerve_presheaf(W, els_u.directed)
        for i in range(len(els_u.base.objects)):
            assert kan_formula_matches_oracle(els_u, nw, i)

    def test_kan_functorial(self, els_u0):
        left_kan_formula(els_u0, terminal_presheaf(els_u0.directed)).validate()
        left_kan_formula(els_u0, representable(els_u0.directed, 0)).validate()


class TestTransfer:
    def test_restriction_preserves_segal_both_ways(self, els_u0):
        o = orientation_presheaf(els_u0.base)
        ro = restrict_presheaf(els_u0, o)
        ro.validate()
        assert is_segal(o)[0] and is_segal(ro)[0]
        for k, (i, x) in enumerate(els_u0.pairs):
            g = els_u0.base.objects[i]
            assert len(ro.value(k)) == 2 ** len(set(g.edges()))

    def test_restriction_reflects_non_segal(self, els_u0):
        from looseends.presheaves import doubled_value_fixture

        bad, target = doubled_value_fixture(els_u0.base)
        rbad = restrict_presheaf(els_u0, bad)
        assert not is_segal(bad)[0]
        assert not is_segal(rbad)[0]

    def test_kan_preserves_segal(self, els_u0, els_u):
        P = monoid_dioperad()
        n = nerve_presheaf(P, els_u0.directed)
        assert is_segal(n)[0]
        fn = left_kan_formula(els_u0, n)
        assert is_segal(fn)[0]
        W = terminal_presentation("wheeledProperad", caps=OperadCaps(6, 16))
        nw = nerve_presheaf(W, els_u.directed)
        assert is_segal(nw)[0]
        fnw = left_kan_formula(els_u, nw)
        assert is_segal(fnw)[0]

    def test_slice_chain(self, els_u0):
        # f!(dioperad nerve) is augmented over f!(terminal) = orientation;
        # restricting to fibers recovers a Segal presheaf on the directed side
        P = monoid_dioperad()
        n = nerve_presheaf(P, els_u0.directed)
        fn = left_kan_formula(els_u0, n)
        aug = orientation_augmentation(
            els_u0.base, fn, orientation_presheaf(els_u0.base), lambda i, e: frozenset(e[0])
        )
        fiber = slice_restriction(els_u0, fn, aug)
        fiber.validate()
        assert is_segal(fiber)[0]
        for k in range(len(els_u0.directed.objects)):
            assert len(fiber.value(k)) == len(n.value(k))


class TestElementsEquivalence:
    def test_hom_bijections_small(self):
        base = build_site("U0", SiteBounds(1, 3, 3))
        els = build_elements_site(base)
        report = elements_equivalence_check(els)
        assert report["mismatches"] == []

    def test_objects_over_edge(self, els_u0):
        base = els_u0.base
        edge_idx = next(i for i, g in enumerate(base.objects) if not g.vertices)
        ks = [k for k, (i, x) in enumerate(els_u0.pairs) if i == edge_idx]
        assert len(ks) == 2
        from looseends.graphs import isomorphic, make_edge_dir

        for k in ks:
            assert isomorphic(els_u0.directed.objects[k], make_edge_dir())

    def test_first_projection_forgets_direction(self, els_u0):
        from looseends.graphs import isomorphic, underlying

        for k, (i, x) in enumerate(els_u0.pairs):
            assert isomorphic(
                underlying(els_u0.directed.objects[k]), els_u0.base.objects[i]
            )


class TestSegalSpans:
    def test_two_vertex_fiber_product(self, u_site):
        """At a two-vertex one-internal-edge object the value set bijects
        with the literal fiber product of the star values over the edge."""
        from looseends.emb import EmbEdge, vertex_element
        from looseends.presheaves import elementary_over, segal_map

        o = orientation_presheaf(u_site)
        for i, g in enumerate(u_site.objects):
            if len(g.vertices) != 2:
                continue
            internal = [e for e in g.edges() if g.is_internal_edge(e)]
            if len(internal) != 1:
                continue
            u, v = sorted(g.vertices)
            covers, arrows = elementary_over(u_site, i)
            xu, xv = vertex_element(g, u), vertex_element(g, v)
            xe = EmbEdge(g, internal[0])
            to_u = next(ref for (x, y, ref) in arrows if x == xe and y == xu)
            to_v = next(ref for (x, y, ref) in arrows if x == xe and y == xv)
            fiber = {
                (a, b)
                for a in o.value(covers[xu][0])
                for b in o.value(covers[xv][0])
                if o.act(to_u, a) == o.act(to_v, b)
            }
            image = {
                (o.act(covers[xu], elem), o.act(covers[xv], elem))
                for elem in o.value(i)
            }
            assert segal_map(o, i)[1]
            assert image == fiber and len(image) == len(o.value(i))
            return
        pytest.skip("no two-vertex one-edge object in site")

    def test_loop_limit_agrees_along_the_two_embeddings(self, u_site):
        """At a looped vertex the limit is the subset of the star values
        agreeing along the two edge inclusions into the loop."""
        from looseends.emb import EmbEdge, vertex_element
        from looseends.presheaves import elementary_over, segal_map

        o = orientation_presheaf(u_site)
        for i, g in enumerate(u_site.objects):
            loops = [
                e
                for e in g.edges()
                if g.is_internal_edge(e) and len({g.t[a] for a in e}) == 1
            ]
            if len(g.vertices) != 1 or len(loops) != 1 or len(g.edges()) != 1:
                continue
            covers, arrows = elementary_over(u_site, i)
            (v,) = g.vertices
            star_ref = covers[vertex_element(g, v)]
            edge_ref = covers[EmbEdge(g, loops[0])]
            # the two inclusions of the loop edge into the star
            incls = [ref for (x, y, ref) in arrows if isinstance(x, EmbEdge)]
            assert len(incls) == 2
            agreeing = [
                s
                for s in o.value(star_ref[0])
                if o.act(incls[0], s) == o.act(incls[1], s)
            ]
            mapping, bij = segal_map(o, i)
            assert bij
            assert len(mapping) == len(agreeing)
            return
        pytest.skip("no bare loop object in site")


class TestCaches:
    """The nerve's region memo and the site's cover categories give what an
    unmemoized computation gives, and the Segal oracle reads neither."""

    @pytest.fixture(scope="class")
    def battery(self, u0_site, ucyc_site, els_u0):
        cyc_tree = next(g for g in ucyc_site.objects if g.vertices)
        cyclic = free_cyclic(cyc_tree, caps=OperadCaps(6, 24))
        cyclic.flavor = "cyclic"
        return {
            "io/U0": (io_presentation(caps=OperadCaps(4, 16)), u0_site),
            "flip/elsU0": (monoid_dioperad(), els_u0.directed),
            "freeCyclic/U0": (free_cyclic(u0_site.objects[-1], caps=OperadCaps(6, 24)), u0_site),
            "cyclic/Ucyc": (cyclic, ucyc_site),
        }

    def test_nerve_actions_match_unmemoized(self, battery):
        for label, (P, site) in battery.items():
            X = nerve_presheaf(P, site)
            for ref in site.all_refs():
                m = site.morph(ref)
                for d in X.value(ref[1]):
                    assert X.act(ref, d) == nerve_action(P, m, d), (label, ref)

    def test_cached_covers_match_fresh(self, u0_site, ucyc_site, els_u0, els_omega):
        for site in (u0_site, ucyc_site, els_u0.directed, els_omega.directed):
            for i in range(len(site.objects)):
                assert site.covers(i) == elementary_over(site, i), (site.tag, i)

    def test_oracle_does_not_read_the_cover_cache(self):
        site = build_site("U", SiteBounds(2, 2, 3))
        X = orientation_presheaf(site)
        i = next(i for i, g in enumerate(site.objects) if len(g.vertices) == 2)
        mapping, bijective = segal_map(X, i)
        assert bijective and set(mapping.values()) == set(limit_families_bruteforce(X, i))
        covers, arrows = site.covers(i)
        assert arrows
        site._covers[i] = (covers, [])  # corrupt: forget the arrows between covers
        mapping, bijective = segal_map(X, i)
        assert not bijective
        assert set(mapping.values()) == set(limit_families_bruteforce(X, i))
