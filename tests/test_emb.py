
import pytest
from hypothesis import given, settings

from looseends.config import SiteBounds
from looseends.emb import (
    EmbEdge,
    EmbRegion,
    boundary,
    boundary_profile,
    boundary_via_realize,
    class_of_embedding,
    edge_element,
    enumerate_emb,
    enumerate_ssb,
    id_element,
    in_out,
    index,
    intersect_subtrees,
    is_structured,
    leq,
    oracle_embedding_classes,
    overlap,
    pushforward,
    realize,
    region,
    unions,
    vertex_disjoint,
    vertex_element,
)
from looseends.errors import LooseEndsError
from looseends.etale import enumerate_etale, is_embedding
from looseends.gen import gen_connected_dgraphs, gen_connected_ugraphs, gen_trees_u
from looseends.graphs import (
    is_connected,
    isomorphic,
    make_edge,
    make_linear,
    make_star,
    make_star_dir,
    shape,
    underlying,
    validate_dgraph,
)
from strategies import connected_hosts


class TestEnumerate:
    def test_edge_host(self):
        assert len(enumerate_emb(make_edge())) == 1

    def test_star_n(self):
        for n in range(4):
            assert len(enumerate_emb(make_star(n))) == n + 1

    def test_loop_with_legs(self, loop_with_legs):
        elems = enumerate_emb(loop_with_legs)
        # three edges, the loop-cut star, and the identity
        assert len(elems) == 5
        edges = [x for x in elems if isinstance(x, EmbEdge)]
        assert len(edges) == 3
        assert vertex_element(loop_with_legs, "v") in elems
        assert id_element(loop_with_legs) in elems

    def test_minimal_and_maximal(self, theta):
        elems = enumerate_emb(theta)
        top = id_element(theta)
        for x in elems:
            assert leq(x, top)
        edges = [x for x in elems if isinstance(x, EmbEdge)]
        for e in edges:
            below = [x for x in elems if leq(x, e)]
            assert below == [e]

    def test_disconnected_rejected(self, example18):
        with pytest.raises(LooseEndsError) as ei:
            enumerate_emb(example18)
        assert ei.value.code == "NotConnected"

    def test_whole_of_a_disconnected_host_is_rejected(self, example18):
        # no class of Emb is the whole host, so id_element has none to give
        with pytest.raises(LooseEndsError) as ei:
            id_element(example18)
        assert ei.value.code == "NotConnected"


class TestRealize:
    def test_edge(self, theta):
        x = edge_element(theta, theta.edge_key("e"))
        h, m = realize(x)
        assert shape(h).is_edge

    def test_vertex_star(self, loop_with_legs):
        x = vertex_element(loop_with_legs, "v")
        h, m = realize(x)
        assert shape(h).is_star
        assert len(h.nbhd("v")) == 4
        assert is_embedding(m)
        # the loop is clutched: two domain arcs share one host arc image
        values = list(m.component.values())
        assert len(values) != len(set(values))

    def test_identity(self, theta):
        x = id_element(theta)
        h, m = realize(x)
        assert isomorphic(h, theta)

    def test_directed_region_with_cut(self, diamond):
        x = region(diamond, ["u", "v"], ["e1"])
        h, m = realize(x)
        assert len(h.edges) == 5  # e0, e1 intact, e2 twice, e3
        assert is_connected(h)


class TestOrder:
    def test_leq_matches_factorization_search(self, theta, loop_with_legs, four_cycle):
        for host in (theta, loop_with_legs, four_cycle):
            elems = enumerate_emb(host)
            for x in elems:
                for y in elems:
                    assert leq(x, y) == _factors_through(x, y)

    def test_host_mismatch(self, theta, four_cycle):
        with pytest.raises(LooseEndsError) as ei:
            leq(enumerate_emb(theta)[0], enumerate_emb(four_cycle)[0])
        assert ei.value.code == "HostMismatch"


def _factors_through(x, y):
    hx, mx = realize(x)
    hy, my = realize(y)
    for g in enumerate_etale(hx, hy):
        if not g.vertex_injective:
            continue
        comp = {a: my.component[b] for a, b in g.component.items()}
        vmap = {v: my.vertex_map[w] for v, w in g.vertex_map.items()}
        if comp == mx.component and vmap == mx.vertex_map:
            return True
    return False


class TestUnions:
    def test_four_cycle_three_unions(self, four_cycle):
        left = region(four_cycle, ["a", "b"], [four_cycle.edge_key("ab")])
        right = region(four_cycle, ["c", "d"], [four_cycle.edge_key("cd")])
        us = unions(left, right)
        assert len(us) == 3
        assert id_element(four_cycle) in us
        minimal = [z for z in us if not any(leq(w, z) and w != z for w in us)]
        # the two three-edge unions are incomparable: no least upper bound
        assert len(minimal) == 2

    def test_theta_four_self_unions(self, theta):
        x = region(theta, ["u", "v"], [theta.edge_key("g")])
        us = unions(x, x)
        assert len(us) == 4
        assert id_element(theta) in us

    def test_tree_at_most_one_union(self):
        host = underlying(make_linear(3))
        elems = enumerate_emb(host)
        for x in elems:
            for y in elems:
                us = unions(x, y)
                assert len(us) <= 1
                if us and overlap(x, y):
                    # the unique union is the subgraph union
                    (z,) = us
                    assert z.vertex_set == x.vertex_set | y.vertex_set

    def test_union_conditions(self, theta, loop_with_legs):
        for host in (theta, loop_with_legs):
            elems = enumerate_emb(host)
            for x in elems:
                for y in elems:
                    for z in unions(x, y):
                        assert leq(x, z) and leq(y, z)
                        assert z.vertex_set == x.vertex_set | y.vertex_set


    def test_region_on_unknown_vertex_is_rejected(self, theta):
        # the host index codes classes by vertex bits
        with pytest.raises(LooseEndsError) as ei:
            region(theta, ["u", "zz"], [])
        assert ei.value.code == "UnknownVertex"

    def test_common_vertices_spanning_no_class_are_rejected(self, four_cycle):
        # two paths around the square meet in the opposite corners a and c,
        # which no class spans: they are not subtrees of one tree
        k = four_cycle.edge_key
        x = region(four_cycle, "abc", [k("ab"), k("bc")])
        y = region(four_cycle, "acd", [k("cd"), k("da")])
        with pytest.raises(LooseEndsError) as ei:
            intersect_subtrees(x, y)
        assert ei.value.code == "NotTrees"

    def test_a_region_outside_emb_is_rejected(self, four_cycle):
        # the order and union tests read codes, which only classes have
        corners = EmbRegion(four_cycle, frozenset("ac"), frozenset())
        with pytest.raises(LooseEndsError) as ei:
            leq(corners, id_element(four_cycle))
        assert ei.value.code == "UnknownClass"


class TestVertexDisjoint:
    def test_edges_always(self, theta):
        e1 = edge_element(theta, theta.edge_key("e"))
        e2 = edge_element(theta, theta.edge_key("p"))
        assert vertex_disjoint(e1, e2)
        assert vertex_disjoint(e1, e1)

    def test_vertex_with_itself(self, theta):
        x = vertex_element(theta, "u")
        assert not vertex_disjoint(x, x)

    def test_two_stars_sharing_only_an_edge(self, theta):
        assert vertex_disjoint(vertex_element(theta, "u"), vertex_element(theta, "v"))


class TestBoundary:
    def test_example18_star_at_w(self, example18):
        x = vertex_element(example18, "w")
        assert set(boundary(x)) == {"4", "6*", "5", "5*"}
        assert boundary(x) == boundary_via_realize(x)

    def test_edge_boundary(self, theta):
        e = theta.edge_key("e")
        assert boundary(edge_element(theta, e)) == tuple(sorted(e))

    def test_loop_vertex_boundary_contains_both_arcs(self, loop_with_legs):
        x = vertex_element(loop_with_legs, "v")
        b = boundary(x)
        assert "l" in b and "l*" in b
        assert b == boundary_via_realize(x)

    def test_multiplicities_at_most_one(self, theta, four_cycle, loop_with_legs):
        for host in (theta, four_cycle, loop_with_legs):
            for x in enumerate_emb(host):
                b = boundary(x)
                assert len(b) == len(set(b))
                assert b == boundary_via_realize(x)

    def test_in_out_directed(self, diamond):
        x = vertex_element(diamond, "u")
        assert in_out(x) == (("e0",), ("e1", "e2"))
        assert in_out(x) == boundary_via_realize(x)
        cut = region(diamond, ["u", "v"], ["e1"])
        ins, outs = in_out(cut)
        assert ins == ("e0", "e2") and outs == ("e2", "e3")

    def test_boundary_of_union_of_subtrees(self):
        host = underlying(make_linear(3))
        elems = [x for x in enumerate_emb(host) if isinstance(x, EmbRegion)]
        for s in elems:
            for t in elems:
                common = intersect_subtrees(s, t)
                if not isinstance(common, EmbEdge):
                    continue
                (z,) = unions(s, t)
                a, adag = common.edge
                in_s = set(boundary(s))
                in_t = set(boundary(t))
                if a not in in_s:
                    a, adag = adag, a
                assert set(boundary(z)) == (in_s - {a}) | (in_t - {adag})


class TestStructured:
    def test_edges_and_stars(self, diamond):
        for x in enumerate_emb(diamond):
            if isinstance(x, EmbEdge) or len(x.vertices) == 1:
                assert is_structured(x)

    def test_simply_connected_all_structured(self):
        for g in (make_linear(2), make_star_dir(2, 1)):
            assert enumerate_ssb(g) == enumerate_emb(g)

    def test_diamond_cut_region_rejected(self, diamond):
        x = region(diamond, ["u", "v"], ["e1"])
        assert not is_structured(x)
        full = region(diamond, ["u", "v"], ["e1", "e2"])
        assert is_structured(full)

    def test_not_acyclic(self):
        g = validate_dgraph(
            "two_cycle", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
        )
        with pytest.raises(LooseEndsError) as ei:
            is_structured(vertex_element(g, "u"))
        assert ei.value.code == "NotAcyclic"

    def test_undirected_host_is_a_flavor_mismatch(self, theta):
        with pytest.raises(LooseEndsError) as ei:
            is_structured(vertex_element(theta, "u"))
        assert ei.value.code == "FlavorMismatch"

    def test_bypass_region_not_structured(self):
        # u -> v -> w plus a direct u -> w edge: {u, w} is not path-closed
        g = validate_dgraph(
            "bypass",
            ["a", "uv", "vw", "uw", "z"],
            [
                ("u", ["a"], ["uv", "uw"]),
                ("v", ["uv"], ["vw"]),
                ("w", ["vw", "uw"], ["z"]),
            ],
        )
        x = region(g, ["u", "w"], ["uw"])
        assert not is_structured(x)
        assert is_structured(region(g, ["u", "v", "w"], ["uv", "vw", "uw"]))


class TestPathLiftingOracle:
    def test_matches_is_structured(self, diamond):
        from looseends.graphs import enumerate_directed_paths

        g = validate_dgraph(
            "bypass",
            ["a", "uv", "vw", "uw", "z"],
            [
                ("u", ["a"], ["uv", "uw"]),
                ("v", ["uv"], ["vw"]),
                ("w", ["vw", "uw"], ["z"]),
            ],
        )
        for host in (diamond, g, make_linear(3)):
            for x in enumerate_emb(host):
                assert is_structured(x) == _lifting_oracle(host, x)


def _lifting_oracle(host, x):
    """Literal unique-lifting check over all directed paths of the host."""
    from looseends.graphs import enumerate_directed_paths

    h, m = realize(x)
    paths = enumerate_directed_paths(host)
    lifted_paths = enumerate_directed_paths(h)
    for p in paths:
        first, last = p[0], p[-1]
        firsts = [e for e in h.edges if m.component[e] == first]
        lasts = [e for e in h.edges if m.component[e] == last]
        for f0 in firsts:
            for l0 in lasts:
                lifts = [
                    q
                    for q in lifted_paths
                    if len(q) == len(p)
                    and q[0] == f0
                    and q[-1] == l0
                    and all(
                        (m.component[el] if i % 2 == 0 else m.vertex_map[el]) == p[i]
                        for i, el in enumerate(q)
                    )
                ]
                if len(lifts) != 1:
                    return False
    return True


class TestOracleBijection:
    @pytest.mark.parametrize("directed", [False, True])
    def test_small_hosts(self, directed):
        bounds = SiteBounds(max_vertices=2, max_edges=4, max_arity=3)
        hosts = (
            gen_connected_dgraphs(bounds) if directed else gen_connected_ugraphs(bounds)
        )
        for g in hosts:
            classes = oracle_embedding_classes(g)
            encoded = enumerate_emb(g)
            assert len(classes) == len(encoded)
            recovered = {class_of_embedding(m) for m in classes}
            assert recovered == set(encoded)


class TestPushforward:
    def test_matches_composition_classes(self, theta, loop_with_legs, diamond):
        hosts = [theta, loop_with_legs, diamond]
        hosts += gen_connected_dgraphs(SiteBounds(2, 4, 3))
        for host in hosts:
            for y in enumerate_emb(host):
                if isinstance(y, EmbEdge):
                    continue
                hy, my = realize(y)
                if not is_connected(hy):
                    continue
                for x in enumerate_emb(hy):
                    pushed = pushforward(my, x)
                    hx, mx = realize(x)
                    comp = {
                        a: my.component[b] for a, b in mx.component.items()
                    }
                    vmap = {v: my.vertex_map[w] for v, w in mx.vertex_map.items()}
                    from looseends.etale import EtaleMap

                    composite = EtaleMap(hx, host, comp, vmap)
                    assert class_of_embedding(composite) == pushed


class TestKernelAgainstSets:
    """The bitmask kernel against set-based definitions, on every host of
    A03's domain; the references read only the classes' fields and the
    host's edge ends."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_every_pair_of_every_host(self, directed):
        bounds = SiteBounds(3, 6, 3)
        hosts = gen_connected_dgraphs(bounds) if directed else gen_connected_ugraphs(bounds)
        assert len(hosts) == (538 if directed else 54)
        trees = 0
        for g in hosts:
            elems = enumerate_emb(g)
            on_vertices = {}
            for z in elems:
                if isinstance(z, EmbRegion):
                    on_vertices.setdefault(z.vertices, []).append(z)
            tree = shape(g).is_tree
            trees += tree
            for x in elems:
                for y in elems:
                    assert leq(x, y) == _leq_ref(x, y)
                    assert unions(x, y) == _unions_ref(x, y, on_vertices)
                    assert vertex_disjoint(x, y) == (not x.vertex_set & y.vertex_set)
                    assert overlap(x, y) == bool(
                        _covered_ref(x) & _covered_ref(y) or x.vertex_set & y.vertex_set
                    )
                    if tree:
                        assert intersect_subtrees(x, y) == _intersect_ref(x, y)
        assert trees == (239 if directed else 22)


class TestSplits:
    def test_a_tree_splits_each_subtree_off_its_first_leaf(self):
        """On a tree host, splits lists each region of two or more vertices
        once, in Emb order, as (x, x without its first leaf in host vertex
        order, that leaf's star): the peels a tree map is extended by."""
        trees = gen_trees_u(SiteBounds(4, 6, 3))
        for g in trees:
            want = []
            for x in enumerate_emb(g):
                if isinstance(x, EmbRegion) and len(x.vertices) > 1:
                    # in a tree a region glues all its internal edges
                    degree = {v: sum(v in _ends_ref(g, e) for e in x.glued) for v in x.vertices}
                    leaf = next(v for v in g.vertices if degree.get(v) == 1)
                    glued = [e for e in x.glued if leaf not in _ends_ref(g, e)]
                    want.append((x, region(g, x.vertices - {leaf}, glued), vertex_element(g, leaf)))
            assert index(g).splits == want
        assert len(trees) == 41


def _ends_ref(g, e):
    return {v for v in g.ends(e) if v is not None}


def _leq_ref(x, y):
    """An edge lies below the edges it is and below the regions with a
    vertex at one of its ends; a region below the regions whose vertices
    and uncut edges contain its own."""
    if isinstance(y, EmbEdge):
        return x == y
    if isinstance(x, EmbEdge):
        return bool(_ends_ref(x.host, x.edge) & y.vertices)
    return x.vertices <= y.vertices and x.glued <= y.glued


def _unions_ref(x, y, on_vertices):
    """The classes above x and y on the union of their vertex sets."""
    s = x.vertex_set | y.vertex_set
    if not s:
        return (x,) if x == y else ()
    return tuple(z for z in on_vertices.get(s, ()) if _leq_ref(x, z) and _leq_ref(y, z))


def _covered_ref(x):
    """The host edges over which x's realization has an arc or edge."""
    if isinstance(x, EmbEdge):
        return {x.edge}
    g = x.host
    return {e for e in g.edge_keys if _ends_ref(g, e) & x.vertices}


def _intersect_ref(x, y):
    g = x.host
    common_v = x.vertex_set & y.vertex_set
    if common_v:
        inside = {e for e in g.edge_keys if None not in g.ends(e) and set(g.ends(e)) <= common_v}
        return EmbRegion(g, common_v, frozenset(inside))
    common_e = _covered_ref(x) & _covered_ref(y)
    if not common_e:
        return None
    (e,) = common_e
    return EmbEdge(g, e)


def _internal_ref(g, vertices):
    """The edges with both ends attached inside vertices."""
    return {e for e in g.edge_keys if None not in g.ends(e) and set(g.ends(e)) <= vertices}


@settings(max_examples=50, deadline=None)
@given(connected_hosts())
def test_classes_past_the_exhaustive_bounds(g):
    """On every class of a random host with 4 or 5 vertices: the boundary
    against the realization's, region() and class_of_embedding() give the
    class back, its glued edges are internal, and on an acyclic directed
    host is_structured agrees with the path-lifting oracle.  On every pair
    of classes, the mask kernel against the set-based references of
    TestKernelAgainstSets."""
    lifting = g.directed and shape(g).is_acyclic
    elems, on_vertices = enumerate_emb(g), {}
    for x in elems:
        assert boundary_profile(x) == boundary_via_realize(x)
        assert class_of_embedding(realize(x)[1]) == x
        if isinstance(x, EmbRegion):
            assert region(g, x.vertices, x.glued) == x
            assert x.glued <= _internal_ref(g, x.vertices)
            on_vertices.setdefault(x.vertices, []).append(x)
        if lifting:
            assert is_structured(x) == _lifting_oracle(g, x)
    for x in elems:
        for y in elems:
            assert leq(x, y) == _leq_ref(x, y)
            assert unions(x, y) == _unions_ref(x, y, on_vertices)
            assert overlap(x, y) == bool(
                _covered_ref(x) & _covered_ref(y) or x.vertex_set & y.vertex_set
            )
