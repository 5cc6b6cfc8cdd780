import hashlib

import pytest

from looseends.errors import LooseEndsError
from looseends.etale import (
    EtaleMap,
    compose_etale,
    enumerate_etale,
    is_embedding,
    lift_embedding_directed,
    validate_etale,
)
from looseends.config import Budget, SiteBounds
from looseends.gen import gen_connected_dgraphs, gen_connected_ugraphs, gen_trees_u
from looseends.graphs import (
    DGraph,
    UGraph,
    isomorphic,
    make_edge,
    make_edge_dir,
    make_linear,
    make_star,
    make_star_dir,
    shape,
    underlying,
    validate_dgraph,
    validate_ugraph,
)


def identity_etale(g):
    comp = {s: s for s in g.slots}
    return EtaleMap(g, g, comp, {v: v for v in g.vertices}, check=False)


def boundary_mono(f):
    """Do the source's boundary arcs inject into the target's arcs?"""
    image = [f.component[a] for a in f.source.boundary]
    return len(image) == len(set(image))


@pytest.fixture
def parity_fold():
    """Two-vertex chain H folding onto a one-loop vertex pair G, parity
    preserving on middle edges: etale but not injective on vertices."""
    g = validate_dgraph(
        "g",
        ["t", "m1", "m2", "b"],
        [("p", ["t"], ["m1", "m2"]), ("q", ["m1", "m2"], ["b"])],
    )
    h = validate_dgraph(
        "h",
        ["t1", "a1", "a2", "b1", "b2", "c1", "c2", "u1"],
        [
            ("p1", ["t1"], ["a1", "a2"]),
            ("q1", ["a1", "a2"], ["b1", "b2"]),
            ("p2", ["b1", "b2"], ["c1", "c2"]),
            ("q2", ["c1", "c2"], ["u1"]),
        ],
    )
    comp = {
        "t1": "t", "u1": "b",
        "a1": "m1", "a2": "m2",
        "b1": "b", "b2": "b",
        "c1": "m1", "c2": "m2",
    }
    return h, g, comp


def test_parity_fold_is_etale_not_vertex_injective(parity_fold):
    h, g, comp = parity_fold
    # q1's outputs b1,b2 map to g's bottom edge twice: that breaks the
    # neighborhood bijection, so fix: b1,b2 should map to the middle pair
    comp = dict(comp)
    comp["b1"], comp["b2"] = "b", "b"
    with pytest.raises(LooseEndsError):
        validate_etale(h, g, comp, {"p1": "p", "q1": "q", "p2": "p", "q2": "q"})


def test_fold_two_layers():
    """Degree-preserving double cover of a directed 2-cycle by a 4-cycle."""
    g = validate_dgraph(
        "g2", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
    )
    h = validate_dgraph(
        "h4",
        ["e1", "f1", "e2", "f2"],
        [
            ("u1", ["e1"], ["f1"]),
            ("v1", ["f1"], ["e2"]),
            ("u2", ["e2"], ["f2"]),
            ("v2", ["f2"], ["e1"]),
        ],
    )
    m = validate_etale(
        h,
        g,
        {"e1": "e", "e2": "e", "f1": "f", "f2": "f"},
        {"u1": "u", "u2": "u", "v1": "v", "v2": "v"},
    )
    assert not m.vertex_injective
    assert not is_embedding(m)


def test_identity_is_etale(example18):
    m = identity_etale(example18)
    assert EtaleMap(example18, example18, m.component, m.vertex_map) == m


def test_star1_to_star2_rejected():
    s1, s2 = make_star(1), make_star(2)
    with pytest.raises(LooseEndsError) as ei:
        validate_etale(s1, s2, {"1": "1", "1*": "1*"}, {"v": "v"})
    assert ei.value.code == "NeighborhoodNotBijective"


def test_star_map_into_host(example18, theta):
    # iota_u : star_1 -> G at the univalent vertex u; example18 has a free
    # edge so it is disconnected and is_embedding refuses it
    s = make_star(1)
    m = validate_etale(s, example18, {"1": "1*", "1*": "1"}, {"v": "u"})
    assert m.vertex_injective
    with pytest.raises(LooseEndsError) as ei:
        is_embedding(m)
    assert ei.value.code == "NotConnected"
    s4 = make_star(4)
    maps = [m for m in enumerate_etale(s4, theta) if m.vertex_map["v"] == "u"]
    assert maps and is_embedding(maps[0])


def test_enumerate_etale_edge_counts(example18):
    assert len(enumerate_etale(make_edge(), example18)) == len(example18.arcs)
    d = make_linear(3)
    assert len(enumerate_etale(make_edge_dir(), d)) == len(d.edges)


def test_vertexless_sources_agree_across_flavors():
    """Two loose edges map into a star by any slot for each edge, in both
    flavors: 6 * 6 ways into star3, 3 * 3 ways into the (1, 2)-star."""
    loose = (None, None)
    two_u = UGraph.from_ends("two", {("a", "a*"): loose, ("b", "b*"): loose}, [])
    two_d = DGraph.from_ends("two", {"a": loose, "b": loose}, [])
    assert len(enumerate_etale(two_u, make_star(3))) == 36
    assert len(enumerate_etale(two_d, make_star_dir(1, 2))) == 9


def test_enumerate_etale_star_into_edge_empty():
    assert enumerate_etale(make_star(1), make_edge()) == []


def test_enumerate_star_classifies_vertices(example18):
    # etale maps from the 4-star hit exactly the degree-4 vertex w
    maps = enumerate_etale(make_star(4), example18)
    assert maps
    assert {m.vertex_map["v"] for m in maps} == {"w"}


def test_compose_identity_and_associativity(example18):
    maps = enumerate_etale(make_star(4), example18)
    f = maps[0]
    assert compose_etale(identity_etale(example18), f) == f
    assert compose_etale(f, identity_etale(f.source)) == f


def test_compose_mismatch():
    f = identity_etale(make_star(1))
    g = identity_etale(make_star(2))
    with pytest.raises(LooseEndsError) as ei:
        compose_etale(g, f)
    assert ei.value.code == "SourceTargetMismatch"


def test_vertex_injective_composes():
    s = make_star(2)
    host = validate_ugraph(
        "path2",
        [("a", "a*"), ("b", "b*"), ("c", "c*")],
        [("x", ["a*", "b"]), ("y", ["b*", "c"])],
    )
    inner = [m for m in enumerate_etale(s, host) if m.vertex_injective]
    for m in inner:
        assert is_embedding(compose_etale(identity_etale(host), m))


def test_etale_into_tree_has_tree_source():
    bounds = SiteBounds(max_vertices=3, max_edges=4, max_arity=3)
    trees = gen_trees_u(bounds)[:8]
    sources = gen_trees_u(SiteBounds(2, 3, 3)) + [make_star(2), make_edge()]
    for g in trees:
        for h in sources:
            for m in enumerate_etale(h, g):
                assert shape(m.source).is_tree


def test_etale_between_trees_is_embedding():
    trees = gen_trees_u(SiteBounds(4, 6, 3))
    checked = 0
    for h in trees:
        for g in trees:
            for m in enumerate_etale(h, g):
                assert m.vertex_injective
                assert boundary_mono(m)
                checked += 1
    assert checked > 500


def test_etale_into_acyclic_has_acyclic_source(diamond):
    for h in (make_edge_dir(), make_star_dir(1, 1), make_star_dir(1, 2)):
        for m in enumerate_etale(h, diamond):
            assert shape(m.source).is_acyclic or shape(m.source).is_edge


class TestLift:
    def test_identity_lift(self, diamond):
        u = underlying(diamond)
        f = identity_etale(u)
        lifted, f_dir = lift_embedding_directed(f, diamond)
        assert isomorphic(lifted, diamond)
        assert f_dir.target == diamond

    def test_edge_lift(self, diamond):
        u = underlying(diamond)
        e = make_edge()
        m = validate_etale(e, u, {"a": "e0+", "a*": "e0-"}, {})
        lifted, f_dir = lift_embedding_directed(m, diamond)
        assert isomorphic(lifted, make_edge_dir())

    def test_star_lift_matches_in_out_counts(self, diamond):
        u = underlying(diamond)
        for v in diamond.vertices:
            n = len(u.nbhd(v))
            s = make_star(n)
            maps = [
                m
                for m in enumerate_etale(s, u)
                if m.vertex_map.get("v") == v and m.vertex_injective
            ]
            assert maps
            lifted, _ = lift_embedding_directed(maps[0], diamond)
            assert isomorphic(
                lifted,
                make_star_dir(len(diamond.in_of(v)), len(diamond.out_of(v))),
            )

    def test_round_trip_through_underlying(self, diamond):
        u = underlying(diamond)
        s = make_star(3)
        maps = [m for m in enumerate_etale(s, u) if m.vertex_injective]
        for m in maps[:4]:
            lifted, f_dir = lift_embedding_directed(m, diamond)
            assert isomorphic(underlying(lifted), m.source)

    def test_not_embedding_rejected(self):
        g = validate_dgraph(
            "g2", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
        )
        h = validate_dgraph(
            "h4",
            ["e1", "f1", "e2", "f2"],
            [
                ("u1", ["e1"], ["f1"]),
                ("v1", ["f1"], ["e2"]),
                ("u2", ["e2"], ["f2"]),
                ("v2", ["f2"], ["e1"]),
            ],
        )
        uh, ug = underlying(h), underlying(g)
        folds = [
            m
            for m in enumerate_etale(uh, ug)
            if not m.vertex_injective
        ]
        assert folds
        with pytest.raises(LooseEndsError) as ei:
            lift_embedding_directed(folds[0], g)
        assert ei.value.code == "NotEmbedding"


class TestEmbeddingComposition:
    def test_clutching_composite_is_embedding(self, theta):
        """A subgraph-style embedding followed by a clutching one."""
        from looseends.emb import realize, region

        outer = region(theta, ["u", "v"], [theta.edge_key("e")])
        k, incl = realize(outer)  # clutches f and g
        values = list(incl.component.values())
        assert len(values) != len(set(values))  # genuinely non-injective
        inner_elt = region(k, ["u"], [])
        k2, incl2 = realize(inner_elt)
        composite = compose_etale(incl, incl2)
        assert is_embedding(composite)

    def test_composition_associative(self, theta):
        from looseends.emb import realize, region

        outer = region(theta, ["u", "v"], [theta.edge_key("e")])
        k, incl = realize(outer)
        mid_elt = region(k, ["u"], [])
        k2, incl2 = realize(mid_elt)
        for inner in enumerate_etale(make_edge(), k2):
            lhs = compose_etale(compose_etale(incl, incl2), inner)
            rhs = compose_etale(incl, compose_etale(incl2, inner))
            assert lhs == rhs


def test_search_budget_exceeded(theta):
    from looseends.config import Budget

    with pytest.raises(LooseEndsError) as ei:
        enumerate_etale(make_star(4), theta, budget=Budget(nodes=3))
    assert ei.value.code == "SearchBudgetExceeded"


def test_search_budget_message_names_the_search():
    from looseends.config import Budget

    # one node per arc of star3 that the edge's first arc can go to: six
    with pytest.raises(LooseEndsError) as ei:
        enumerate_etale(make_edge(), make_star(3), budget=Budget(nodes=5))
    assert ei.value.code == "SearchBudgetExceeded"
    assert str(ei.value) == "SearchBudgetExceeded: enumerate_etale edge -> star3: 6 nodes used"
    assert len(enumerate_etale(make_edge(), make_star(3), budget=Budget(nodes=6))) == 6


def _mutations(m):
    """Every map that differs from m in one entry, the current value
    included: one component entry, set alone and set with its partner, or
    one vertex image."""
    h, g = m.source, m.target
    for s in h.slots:
        for c in g.slots:
            comp = dict(m.component)
            comp[s] = c
            yield comp, m.vertex_map
            yield {**comp, h.partner(s): g.partner(c)}, m.vertex_map
    for v in h.vertices:
        for w in g.vertices:
            yield m.component, {**m.vertex_map, v: w}


def test_single_entry_mutations_pin_error_codes():
    """The code EtaleMap fails with on every single-entry mutation of every
    etale map between two SiteBounds(2, 3, 3) hosts of one flavor."""
    from collections import Counter

    bounds, codes, maps = SiteBounds(2, 3, 3), Counter(), 0
    for hosts in (gen_connected_ugraphs(bounds), gen_connected_dgraphs(bounds)):
        for m in (m for h in hosts for g in hosts for m in enumerate_etale(h, g)):
            maps += 1
            for comp, vmap in _mutations(m):
                try:
                    EtaleMap(m.source, m.target, comp, vmap)
                    codes[None] += 1
                except LooseEndsError as e:
                    codes[e.code] += 1
    assert maps == 548
    assert codes == {
        None: 4577,
        "NotInvolutive": 3732,
        "SquareNotCommuting": 3261,
        "NeighborhoodNotBijective": 2222,
    }


def _etale_digest(pool):
    """sha256 over the keys of enumerate_etale's maps, pair by pair in order."""
    digest, count = hashlib.sha256(), 0
    for h in pool:
        for g in pool:
            maps = enumerate_etale(h, g)
            count += len(maps)
            digest.update(repr([m._key for m in maps]).encode())
    return digest.hexdigest(), count


def test_etale_maps_are_pinned():
    """Every etale map between a lone edge or a SiteBounds(2, 4, 3) host and
    another, by flavor: 21 undirected and 72 directed graphs."""
    bounds = SiteBounds(2, 4, 3)
    undirected = [make_edge()] + gen_connected_ugraphs(bounds)
    directed = [make_edge_dir()] + gen_connected_dgraphs(bounds)
    assert (len(undirected), len(directed)) == (21, 72)
    assert _etale_digest(undirected) == (
        "31f1ec82f5abab8475a501890e40826adf0c837ffd17713fb0681a08d89ac24a",
        418,
    )
    assert _etale_digest(directed) == (
        "d10fe55f2425a8e7377fc67bda46e9ae5b5e11be473a62f12f5be2c7dec7c04d",
        881,
    )


def _directed_loop():
    """One vertex with a loop, an input leg a and an output leg b."""
    return validate_dgraph("dloop", ["l", "a", "b"], [("v", ["l", "a"], ["l", "b"])])


@pytest.mark.parametrize(
    "source, target, maps, nodes",
    [
        ("star4", "example18", 24, 52),
        ("star4", "loop_with_legs", 24, 49),
        ("theta", "theta", 12, 2322),
        ("star2", "theta", 0, 2),
        ("star1,2", "diamond", 2, 6),
        ("star2,2", "dloop", 4, 9),
        ("dloop", "dloop", 1, 6),
        ("dloop", "diamond", 0, 2),
    ],
)
def test_etale_search_nodes_are_pinned(request, source, target, maps, nodes):
    """The exact node count of enumerate_etale on a pair: Budget(nodes)
    is enough and Budget(nodes - 1) is not."""
    graphs = {
        "star2": make_star(2),
        "star4": make_star(4),
        "star1,2": make_star_dir(1, 2),
        "star2,2": make_star_dir(2, 2),
        "dloop": _directed_loop(),
    }

    def graph(name):
        return graphs[name] if name in graphs else request.getfixturevalue(name)

    h, g = graph(source), graph(target)
    assert len(enumerate_etale(h, g, budget=Budget(nodes))) == maps
    with pytest.raises(LooseEndsError) as ei:
        enumerate_etale(h, g, budget=Budget(nodes - 1))
    assert ei.value.code == "SearchBudgetExceeded"
    assert str(ei.value).endswith(f": {nodes} nodes used")
