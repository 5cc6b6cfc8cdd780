"""The record classes: reprs, equality, hashing, immutability, defaults."""

import copy
import pickle

import pytest

from looseends.config import DEFAULT_CAPS, Budget, OperadCaps, SiteBounds
from looseends.emb import EmbEdge, EmbRegion
from looseends.graphs import GraphShape, Subgraph, make_edge, make_star, shape, subgraph
from looseends.operads import (
    DecoratedGraph,
    OperadPresentation,
    Term,
    decorated,
    io_presentation,
    monoid_dioperad,
)

G = make_star(2)
E1, E2 = G.edge_keys


def _records():
    """(record, its field values, its repr) for each frozen record class."""
    return [
        (Budget(), (10**6,), "Budget(nodes=1000000)"),
        (SiteBounds(2, 4, 3), (2, 4, 3), "SiteBounds(max_vertices=2, max_edges=4, max_arity=3)"),
        (OperadCaps(), (4, 16), "OperadCaps(max_arity=4, max_ops_per_profile=16)"),
        (EmbEdge(G, E1), (G, E1), "[edge ('1', '1*')]"),
        (
            EmbRegion(G, frozenset("v"), frozenset()),
            (G, frozenset("v"), frozenset()),
            "[vertices v]",
        ),
        (
            EmbRegion(G, frozenset("v"), frozenset([E2])),
            (G, frozenset("v"), frozenset([E2])),
            "[vertices v; uncut ('2', '2*')]",
        ),
        (
            subgraph(G, [E1], []),
            (G, frozenset([E1]), frozenset()),
            "Subgraph(host=UGraph('star2', 4 arcs, 1 vertices),"
            " edge_set=frozenset({('1', '1*')}), vertex_set=frozenset())",
        ),
        (
            shape(make_edge()),
            (True, False, True, True, None, True, True),
            "GraphShape(is_edge=True, is_star=False, is_linear=True, is_tree=True,"
            " is_acyclic=None, is_connected=True, is_simply_connected=True)",
        ),
        (Term("p", ("a", "b")), ("p", ("a", "b")), "Term(op='p', ports=('a', 'b'))"),
        (
            decorated(G, {a: "c" for a in G.arcs}, {"v": "x"}),
            (G, tuple((a, "c") for a in G.arcs), (("v", "x"),)),
            "DecoratedGraph(host=UGraph('star2', 4 arcs, 1 vertices),"
            " coloring=(('1', 'c'), ('1*', 'c'), ('2', 'c'), ('2*', 'c')),"
            " decoration=(('v', 'x'),))",
        ),
    ]


RECORDS = _records()
IDS = [type(x).__name__ for x, _, _ in RECORDS]


@pytest.mark.parametrize("x, values, text", RECORDS, ids=IDS)
def test_repr(x, values, text):
    assert repr(x) == text


@pytest.mark.parametrize("x, values, text", RECORDS, ids=IDS)
def test_equal_records_compare_and_hash_equal(x, values, text):
    y = type(x)(*values)
    assert y is not x
    assert x == y and not x != y
    assert hash(x) == hash(y)


@pytest.mark.parametrize("x, values, text", RECORDS, ids=IDS)
def test_a_tuple_of_the_same_values_is_not_equal(x, values, text):
    assert x.__eq__(values) is NotImplemented
    assert x != values and not x == values


@pytest.mark.parametrize(
    "x, y",
    [
        (EmbEdge(G, E1), Term(G, E1)),
        (OperadCaps(4, 16), Term(4, 16)),
        (SiteBounds(2, 3, 3), Subgraph(2, 3, 3)),
        (EmbRegion(G, frozenset("v"), frozenset()), Subgraph(G, frozenset("v"), frozenset())),
        (DecoratedGraph(G, (), ()), Subgraph(G, (), ())),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_of_different_classes_are_not_equal(x, y):
    assert x.__eq__(y) is NotImplemented and y.__eq__(x) is NotImplemented
    assert x != y and not x == y


@pytest.mark.parametrize("x, values, text", RECORDS, ids=IDS)
def test_values_differing_in_one_field_compare_unequal(x, values, text):
    for k in range(len(values)):
        other = list(values)
        # a host stays a graph: the records over a host hash its key_hash
        other[k] = make_star(3) if values[k] is G else ("changed",)
        assert x != type(x)(*other)


@pytest.mark.parametrize("x, values, text", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(x, values, text):
    name = {
        Budget: "nodes",
        SiteBounds: "max_arity",
        OperadCaps: "max_arity",
        EmbEdge: "edge",
        EmbRegion: "glued",
        Subgraph: "edge_set",
        GraphShape: "is_tree",
        Term: "op",
        DecoratedGraph: "coloring",
    }[type(x)]
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, 0)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) == before
    assert repr(x) == text


@pytest.mark.parametrize("x, values, text", RECORDS, ids=IDS)
def test_records_survive_pickle_and_copy(x, values, text):
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and hash(y) == hash(x) and repr(y) == text


def test_defaults_and_keyword_forms():
    assert Budget().nodes == 10**6
    assert Budget(nodes=7) == Budget(7)
    assert SiteBounds() == SiteBounds(3, 6, 3)
    assert SiteBounds(max_vertices=2, max_edges=4, max_arity=3) == SiteBounds(2, 4, 3)
    assert OperadCaps() == OperadCaps(4, 16) == DEFAULT_CAPS
    assert OperadCaps(max_arity=5, max_ops_per_profile=64) == OperadCaps(5, 64)
    assert DecoratedGraph(host=G, coloring=(), decoration=()) == DecoratedGraph(G, (), ())
    assert Term(op="p", ports=()) == Term("p", ())
    assert EmbEdge(host=G, edge=E1) == EmbEdge(G, E1)
    assert EmbRegion(host=G, vertices=frozenset("v"), glued=frozenset()) == (
        EmbRegion(G, frozenset("v"), frozenset())
    )


def _presentation(**kw):
    P = io_presentation()
    fields = dict(
        name=P.name,
        flavor=P.flavor,
        colors=P.colors,
        dagger=P.dagger,
        ops=P.ops,
        op_profile=P.op_profile,
        compositions=P.compositions,
        contractions=P.contractions,
        actions=P.actions,
        identities=P.identities,
        caps=P.caps,
    )
    fields.update(kw)
    return OperadPresentation(**fields)


def test_operad_presentation_is_mutable_and_unhashable():
    P = _presentation()
    assert repr(P) == "OperadPresentation('IO', augCyclic, 31 ops)"
    assert P == _presentation() and not P != _presentation()
    assert P != _presentation(name="other")
    assert P != _presentation(caps=OperadCaps(5, 16))
    assert P.__eq__(("IO",)) is NotImplemented and P != ("IO",)
    with pytest.raises(TypeError):
        hash(P)
    assert P.directed is False
    P.flavor = "dioperad"
    assert P.directed is True and P.flavor == "dioperad"
    P.flavor = "modular"
    assert P.directed is False
    P.name = "renamed"
    assert repr(P) == "OperadPresentation('renamed', modular, 31 ops)"


def test_operad_presentation_defaults_to_the_default_caps():
    P = io_presentation()
    Q = OperadPresentation(
        P.name, P.flavor, P.colors, P.dagger, P.ops, P.op_profile,
        P.compositions, P.contractions, P.actions, P.identities,
    )
    assert Q.caps is DEFAULT_CAPS
    assert Q.directed is False


def test_operad_presentation_survives_pickle_and_copy():
    P = monoid_dioperad()
    for Q in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
        assert Q == P and Q.directed is True and repr(Q) == repr(P)
