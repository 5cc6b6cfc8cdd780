import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looseends.config import SiteBounds
from looseends.errors import LooseEndsError
from looseends.emb import index
from looseends.gen import _vertex_multisets, gen_connected_dgraphs, gen_connected_ugraphs
from looseends.graphs import (
    DGraph,
    UGraph,
    canonical_signature,
    ends_by_edge,
    ends_connected,
    enumerate_path_cycles,
    has_directed_cycle,
    has_directed_cycle_oracle,
    is_connected,
    iso,
    isomorphic,
    make_edge,
    make_edge_dir,
    make_linear,
    make_star,
    make_star_dir,
    relabel_dgraph,
    relabel_ugraph,
    shape,
    subgraph,
    subgraph_view,
    underlying,
    validate_dgraph,
    validate_ugraph,
)
from strategies import connected_hosts


def err_code(excinfo):
    return excinfo.value.code


class TestValidateUGraph:
    def test_example18_boundary(self, example18):
        assert set(example18.boundary) == {"1", "2", "2*", "3", "7*", "9*"}
        assert len(example18.arcs) == 18
        assert set(example18.vertices) == {"u", "v", "w", "x"}

    def test_single_pair_no_vertices_is_edge(self):
        g = validate_ugraph("e", [("a", "b")], [])
        assert shape(g).is_edge
        assert set(g.boundary) == {"a", "b"}

    def test_fixpoint_rejected(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_ugraph("bad", [("a", "a")], [])
        assert err_code(ei) == "FixpointInvolution"

    def test_arc_multiply_attached(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_ugraph("bad", [("a", "b")], [("u", ["a"]), ("v", ["a"])])
        assert err_code(ei) == "ArcMultiplyAttached"

    def test_unknown_arc(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_ugraph("bad", [("a", "b")], [("u", ["c"])])
        assert err_code(ei) == "UnknownArc"

    def test_boundary_partition(self, example18):
        assert set(example18.boundary) | example18.dangling == set(example18.arcs)
        assert not set(example18.boundary) & example18.dangling


class TestValidateDGraph:
    def test_linear4(self):
        g = make_linear(4)
        assert g.graph_inputs == ("0",)
        assert g.graph_outputs == ("4",)
        assert g.in_of("2") == {"1"}
        assert g.out_of("2") == {"2"}

    def test_lone_edge_in_and_out(self):
        g = make_edge_dir()
        assert g.graph_inputs == ("e",)
        assert g.graph_outputs == ("e",)

    def test_edge_input_reused(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_dgraph("bad", ["e"], [("u", ["e"], []), ("v", ["e"], [])])
        assert err_code(ei) == "EdgeInputReused"

    def test_edge_output_reused(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_dgraph("bad", ["e"], [("u", [], ["e"]), ("v", [], ["e"])])
        assert err_code(ei) == "EdgeOutputReused"

    def test_unknown_edge(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_dgraph("bad", ["e"], [("u", ["f"], [])])
        assert err_code(ei) == "UnknownEdge"


class TestConstructors:
    def test_star_dir_4_2(self):
        g = make_star_dir(4, 2)
        assert len(g.vertices) == 1
        assert len(g.in_of("v")) == 4
        assert len(g.out_of("v")) == 2

    def test_linear_0_is_lone_edge(self):
        g = make_linear(0)
        assert not g.vertices
        assert len(g.edges) == 1

    def test_star0(self):
        g = make_star(0)
        assert len(g.vertices) == 1
        assert not g.arcs
        assert shape(g).is_star

    def test_empty_rejected(self):
        with pytest.raises(LooseEndsError) as ei:
            validate_ugraph("nothing", [], [])
        assert err_code(ei) == "EmptyGraph"


class TestUnderlying:
    def test_edge(self):
        assert isomorphic(underlying(make_edge_dir()), make_edge())

    def test_star_nm(self):
        assert isomorphic(underlying(make_star_dir(2, 1)), make_star(3))
        assert isomorphic(underlying(make_star_dir(0, 3)), make_star(3))

    def test_linear1(self):
        u = underlying(make_linear(1))
        assert isomorphic(u, make_star(2))
        assert shape(u).is_linear

    def test_functorial_on_isos(self):
        d1 = make_star_dir(2, 2)
        emap = {e: f"x{e}" for e in d1.edges}
        vmap = {"v": "w"}
        d2 = relabel_dgraph(d1, emap, vmap, name="renamed")
        assert iso(d1, d2) is not None
        assert iso(underlying(d1), underlying(d2)) is not None


class TestShape:
    def test_example18_not_tree(self, example18):
        s = shape(example18)
        assert not s.is_tree
        assert not s.is_connected  # the free edge [2,2*] floats off

    def test_linear_graphs_are_trees(self):
        for n in range(5):
            s = shape(make_linear(n))
            assert s.is_tree and s.is_acyclic and s.is_linear

    def test_diamond(self, diamond):
        s = shape(diamond)
        assert s.is_acyclic
        assert s.is_connected
        assert not s.is_simply_connected

    def test_two_cycle_not_acyclic(self):
        g = validate_dgraph(
            "two_cycle", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
        )
        s = shape(g)
        assert s.is_connected and not s.is_acyclic

    def test_loop_not_acyclic(self):
        g = validate_dgraph("dloop", ["e"], [("v", ["e"], ["e"])])
        assert not shape(g).is_acyclic

    def test_theta_connected_not_simply(self, theta):
        s = shape(theta)
        assert s.is_connected and not s.is_simply_connected


class TestSubgraph:
    def test_w_with_three_edges(self, example18):
        e4 = example18.edge_key("4")
        e5 = example18.edge_key("5")
        e6 = example18.edge_key("6")
        s = subgraph(example18, [e4, e5, e6], ["w"])
        view = subgraph_view(s)
        assert not shape(view).is_star  # the loop is an internal edge

    def test_not_closed(self, example18):
        e4 = example18.edge_key("4")
        e6 = example18.edge_key("6")
        with pytest.raises(LooseEndsError) as ei:
            subgraph(example18, [e4, e6], ["w"])
        assert err_code(ei) == "NotClosed"

    def test_empty_rejected(self, example18):
        with pytest.raises(LooseEndsError) as ei:
            subgraph(example18, [], [])
        assert err_code(ei) == "EmptySubgraph"

    def test_foreign_arc_is_unknown(self, example18):
        with pytest.raises(LooseEndsError) as ei:
            subgraph(example18, [("x", "x*")], [])
        assert err_code(ei) == "UnknownArc"

    def test_directed_view(self, diamond):
        view = subgraph_view(subgraph(diamond, ["e0", "e1", "e2"], ["u"]))
        star = DGraph("diamond|sub", ["e0", "e1", "e2"], {"e0": "u"}, {"e1": "u", "e2": "u"}, ["u"])
        assert view == star
        assert shape(view).is_star
        edge = subgraph_view(subgraph(diamond, ["e1"], []), name="e1")
        assert edge == DGraph("e1", ["e1"], {}, {}, [])

    def test_directed_not_closed(self, diamond):
        with pytest.raises(LooseEndsError) as ei:
            subgraph(diamond, ["e0", "e1"], ["u"])
        assert err_code(ei) == "NotClosed"

    @pytest.mark.parametrize("edges, vertices", [(["f"], []), (["e0"], ["w"])])
    def test_directed_foreign_edge_or_vertex_is_unknown(self, diamond, edges, vertices):
        with pytest.raises(LooseEndsError) as ei:
            subgraph(diamond, edges, vertices)
        assert err_code(ei) == "UnknownEdge"


class TestIso:
    def test_identity(self, example18):
        w = iso(example18, example18)
        assert w is not None
        arc_map, vmap = w
        assert all(arc_map[a] == a for a in example18.arcs)

    def test_star2_vs_edge(self):
        assert iso(make_star(2), make_edge()) is None

    def test_signature_matches_iso_search(self, four_cycle, theta, loop_with_legs):
        graphs = [four_cycle, theta, loop_with_legs, make_star(3), make_edge()]
        for g in graphs:
            for h in graphs:
                same_sig = canonical_signature(g)[0] == canonical_signature(h)[0]
                assert same_sig == isomorphic(g, h)


def random_relabel_u(g, rng, tag):
    arcs = list(g.arcs)
    rng.shuffle(arcs)
    amap = {a: f"{tag}{i}" for i, a in enumerate(arcs)}
    verts = list(g.vertices)
    rng.shuffle(verts)
    vmap = {v: f"{tag}v{i}" for i, v in enumerate(verts)}
    return relabel_ugraph(g, amap, vmap, name=g.name)


def random_relabel_d(g, rng, tag):
    edges = list(g.edges)
    rng.shuffle(edges)
    emap = {e: f"{tag}{i}" for i, e in enumerate(edges)}
    verts = list(g.vertices)
    rng.shuffle(verts)
    vmap = {v: f"{tag}v{i}" for i, v in enumerate(verts)}
    return relabel_dgraph(g, emap, vmap, name=g.name)


def random_relabel(g, rng, tag):
    return (random_relabel_d if g.directed else random_relabel_u)(g, rng, tag)


class TestCanonicalStability:
    def test_100_random_relabelings(self, example18, four_cycle, theta, loop_with_legs):
        rng = random.Random(7)
        for g in (example18, four_cycle, theta, loop_with_legs):
            sig = canonical_signature(g)[0]
            for k in range(100):
                h = random_relabel_u(g, rng, f"r{k}_")
                assert canonical_signature(h)[0] == sig

    def test_100_random_directed_relabelings(self, diamond):
        rng = random.Random(7)
        loop = validate_dgraph("dloop", ["e", "f"], [("v", ["e", "f"], ["e"])])
        two_cycle = validate_dgraph(
            "two_cycle", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
        )
        for g in (diamond, make_linear(3), make_star_dir(2, 2), loop, two_cycle):
            sig = canonical_signature(g)[0]
            for k in range(100):
                h = random_relabel_d(g, rng, f"r{k}_")
                assert canonical_signature(h)[0] == sig
                assert isomorphic(g, h) and isomorphic(h, g)


def test_signatures_and_witnesses_are_pinned():
    """canonical_signature (value and witnessing vertex order) and the iso
    witnesses, in their insertion order, over A03's hosts of both flavors
    and a seeded relabeling of each: gen sorts by the signature, and the
    witnesses build Segal covers and extraction's maps."""
    bounds = SiteBounds(3, 6, 3)
    rng = random.Random(12)
    digest = hashlib.sha256()
    pool = gen_connected_ugraphs(bounds) + gen_connected_dgraphs(bounds)
    for g in pool:
        h = random_relabel(g, rng, "r")
        assert canonical_signature(h)[0] == canonical_signature(g)[0]
        digest.update(repr((g.name, canonical_signature(g), canonical_signature(h))).encode())
        for a, b in ((g, g), (g, h), (h, g)):
            slot_map, vertex_map = iso(a, b)
            digest.update(repr((list(slot_map.items()), list(vertex_map.items()))).encode())
    assert len(pool) == 592
    assert digest.hexdigest() == (
        "17e888523fbddbe2a661dbb6ef910d08f1d91dc5da8b1efda4b722c495b1f0db"
    )


def _mask_connected(h):
    """Connectivity by the host index's mask search, apart from the
    incidence count: a lone edge, or vertices that the internal edges join
    and no edge with both ends loose."""
    if not h.vertices:
        return len(h.edge_keys) == 1
    ix = index(h)
    full = ix.vertex_mask(h.vertices)
    loose = any(h.ends(e) == (None, None) for e in h.edge_keys)
    return not loose and ix.connected(full, ix.internal(full))


def test_ends_connected_agrees_with_is_connected():
    """On A03's hosts of both flavors, and on each of them less one edge,
    which may fall apart: connectivity read off the ends as vertex indices
    is is_connected of the graph built from the same ends, and the host
    index's mask search agrees."""
    bounds = SiteBounds(3, 6, 3)
    apart = 0
    for g in gen_connected_ugraphs(bounds) + gen_connected_dgraphs(bounds):
        node = {v: i for i, v in enumerate(g.vertices)}
        for drop in (None, *g.edge_keys):
            ends = {e: g.ends(e) for e in g.edge_keys if e != drop}
            if not ends and not g.vertices:
                continue  # the empty graph is rejected
            h = type(g).from_ends(g.name, ends, g.vertices)
            indexed = [tuple(map(node.get, pair)) for pair in ends.values()]
            connected = ends_connected(indexed, len(g.vertices))
            assert connected == is_connected(h) == _mask_connected(h), (g.name, drop)
            apart += not connected
    assert apart > 0


def _uncapped_multisets(k, max_mult, ordered):
    """Every multiset of at most max_mult vertex pairs, loops included, in
    the order of a search trying each pair 0, 1, 2, .. times in turn."""
    if ordered:
        slots = [(i, j) for i in range(k) for j in range(k)]
    else:
        slots = [(i, j) for i in range(k) for j in range(i, k)]
    out = []

    def rec(idx, current, total):
        if idx == len(slots):
            out.append(tuple(current))
            return
        rec(idx + 1, current, total)
        for mult in range(1, max_mult - total + 1):
            rec(idx + 1, current + [slots[idx]] * mult, total + mult)

    rec(0, [], 0)
    return out


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_degree_capped_bundles_match_the_filtered_list(k, ordered):
    """The bundles that stop at the degree cap are the uncapped list's
    bundles within the cap, in the same order, each with its degrees."""
    uncapped = _uncapped_multisets(k, 5, ordered)
    for cap in (1, 2, 3, 4):
        expected = []
        for bundle in uncapped:
            degree = [0] * k
            for i, j in bundle:
                degree[i] += 1
                degree[j] += 1
            if max(degree) <= cap:
                expected.append((bundle, tuple(degree)))
        assert _vertex_multisets(k, 5, cap, ordered) == expected


@st.composite
def small_ugraphs(draw):
    n_vertices = draw(st.integers(0, 3))
    if n_vertices == 0:
        return make_edge()
    n_internal = draw(st.integers(0, 3))
    pairs, incidence = [], {f"v{i}": [] for i in range(n_vertices)}
    for k in range(n_internal):
        a, b = f"i{k}", f"i{k}*"
        pairs.append((a, b))
        u = draw(st.integers(0, n_vertices - 1))
        v = draw(st.integers(0, n_vertices - 1))
        incidence[f"v{u}"].append(a)
        incidence[f"v{v}"].append(b)
    n_legs = draw(st.integers(0, 3))
    for k in range(n_legs):
        a, b = f"p{k}", f"p{k}*"
        pairs.append((a, b))
        u = draw(st.integers(0, n_vertices - 1))
        incidence[f"v{u}"].append(a)
    if not pairs:
        return make_star(0)
    return validate_ugraph("rand", pairs, sorted(incidence.items()))


class TestInvariants:
    @given(small_ugraphs())
    def test_involution_fixpoint_free(self, g):
        for a in g.arcs:
            assert g.dagger[g.dagger[a]] == a
            assert g.dagger[a] != a

    @given(small_ugraphs())
    def test_boundary_plus_dangling_is_arcs(self, g):
        assert set(g.boundary) | g.dangling == set(g.arcs)
        assert not set(g.boundary) & g.dangling

    @given(small_ugraphs())
    def test_tree_flag_matches_path_cycle_oracle(self, g):
        s = shape(g)
        cycles = enumerate_path_cycles(g)
        assert s.is_tree == (s.is_connected and not cycles)

    def test_path_cycle_oracle_on_fixtures(self, example18, four_cycle, theta, loop_with_legs):
        assert enumerate_path_cycles(example18)  # the loop at w
        assert enumerate_path_cycles(four_cycle)
        assert enumerate_path_cycles(theta)
        assert enumerate_path_cycles(loop_with_legs)
        assert not enumerate_path_cycles(underlying(make_linear(3)))
        assert not enumerate_path_cycles(make_star(3))

    def test_directed_cycle_oracle_agrees(self, diamond):
        cases = [
            diamond,
            make_linear(3),
            make_star_dir(2, 2),
            validate_dgraph("dloop", ["e"], [("v", ["e"], ["e"])]),
            validate_dgraph(
                "two_cycle", ["e", "f"], [("u", ["e"], ["f"]), ("v", ["f"], ["e"])]
            ),
        ]
        for g in cases:
            assert has_directed_cycle(g) == has_directed_cycle_oracle(g)


class TestShapeExhaustive:
    def test_undirected_flags_match_path_oracle(self):
        from looseends.config import SiteBounds
        from looseends.gen import gen_connected_ugraphs
        from looseends.graphs import shape

        for g in gen_connected_ugraphs(SiteBounds(4, 8, 3)):
            s = shape(g)
            cycles = enumerate_path_cycles(g)
            assert s.is_tree == (s.is_connected and not cycles)
            assert s.is_simply_connected == s.is_tree
            # flag consistency
            if s.is_edge:
                assert s.is_tree
            if s.is_tree:
                assert s.is_connected and s.is_simply_connected
            if s.is_linear:
                assert s.is_tree
            if s.is_star:
                assert s.is_tree

    def test_directed_flags_match_path_oracle(self):
        from looseends.config import SiteBounds
        from looseends.gen import gen_connected_dgraphs
        from looseends.graphs import shape

        for g in gen_connected_dgraphs(SiteBounds(3, 6, 3)):
            s = shape(g)
            assert s.is_acyclic == (s.is_connected and not has_directed_cycle_oracle(g))


class TestSlotInterface:
    @pytest.mark.parametrize("directed", [False, True])
    def test_members_agree_with_the_presentation(self, directed):
        from looseends.config import SiteBounds
        from looseends.gen import gen_connected_dgraphs, gen_connected_ugraphs

        gen = gen_connected_dgraphs if directed else gen_connected_ugraphs
        for g in gen(SiteBounds(2, 4, 3)):
            for s in g.slots:
                assert g.partner(g.partner(s)) == s
                assert g.edge_of(g.partner(s)) == g.edge_of(s)
            assert g.edge_keys == tuple(sorted({g.edge_of(s) for s in g.slots}))
            for e in g.edge_keys:
                assert g.edge_of(g.slot_of(e)) == e
                if directed:
                    assert g.ends(e) == (g.inputs.get(e), g.outputs.get(e))
                else:
                    assert g.ends(e) == tuple(g.t.get(a) for a in e)
            if directed:
                assert g.slots == g.edges == g.edge_keys
            else:
                assert g.slots == g.arcs and g.edges() is g.edge_keys


class TestFromEnds:
    @settings(max_examples=50, deadline=None)
    @given(connected_hosts())
    def test_rebuilds_a_random_host(self, g):
        assert type(g).from_ends(g.name, {e: g.ends(e) for e in g.edge_keys}, g.vertices) == g

    def test_rebuilds_the_fixtures(self, example18, theta, diamond):
        for g in (example18, theta, diamond, make_edge(), make_edge_dir(), make_star(0)):
            assert type(g).from_ends(g.name, ends_by_edge(g), g.vertices) == g

    def test_underlying_reads_the_ends(self, diamond):
        u = underlying(diamond)
        assert all(u.ends((f"{e}+", f"{e}-")) == diamond.ends(e) for e in diamond.edges)

    def test_constructor_checks_apply(self):
        with pytest.raises(LooseEndsError) as ei:
            UGraph.from_ends("bad", {("a", "a"): (None, None)}, [])
        assert err_code(ei) == "FixpointInvolution"
        with pytest.raises(LooseEndsError) as ei:
            DGraph.from_ends("bad", {"e": ("v", None)}, [])
        assert err_code(ei) == "UnknownEdge"
