import hashlib

import pytest

from looseends.config import OperadCaps, SiteBounds
from looseends.errors import LooseEndsError
from looseends.extraction import presentation_from_segal
from looseends.operads import (
    free_cyclic,
    io_presentation,
    terminal_presentation,
    validate_presentation,
)
from looseends.presheaves import is_segal, nerve_presheaf
from looseends.sites import build_site


@pytest.fixture(scope="module")
def u_site():
    return build_site("U", SiteBounds(2, 4, 3))


@pytest.fixture(scope="module")
def u0_site():
    return build_site("U0", SiteBounds(2, 4, 3))


def _extract(X, flavor):
    Q = presentation_from_segal(X, flavor)
    validate_presentation(Q)
    return Q


class TestExtraction:
    def test_modular_terminal_round_trip(self, u_site):
        P = terminal_presentation("modular", caps=OperadCaps(6, 16))
        X = nerve_presheaf(P, u_site)
        assert is_segal(X)[0]
        Q = _extract(X, "modular")
        # value counts per star profile agree with the original tables
        for prof, names in Q.ops.items():
            assert len(names) == len(P.ops.get(tuple("c" for _ in prof), ()))
        assert Q.compositions and Q.contractions

    def test_free_cyclic_tables_recovered(self, u0_site):
        tree = u0_site.objects[-1]
        C = free_cyclic(tree, caps=OperadCaps(6, 24))
        X = nerve_presheaf(C, u0_site)
        assert is_segal(X)[0]
        Q = _extract(X, "augCyclic")
        # ops of Q biject with decorations of stars = tree maps star -> tree,
        # graded by arity; spot-check the total count
        total = sum(
            len(X.value(i))
            for i, g in enumerate(u0_site.objects)
            if len(g.vertices) == 1
            and not any(g.is_internal_edge(e) for e in g.edges())
        )
        assert len(Q.op_profile) == total

    def test_extraction_nerve_matches_where_computable(self, u_site):
        P = terminal_presentation("modular", caps=OperadCaps(6, 16))
        X = nerve_presheaf(P, u_site)
        Q = _extract(X, "modular")
        from looseends.operads import enumerate_decorations

        compared = 0
        for i, g in enumerate(u_site.objects):
            assert len(enumerate_decorations(Q, g)) == len(X.value(i))
            compared += 1
        assert compared == len(u_site.objects)

    def test_extraction_needs_undirected_site(self, u0_site):
        from looseends.sites import build_elements_site
        from looseends.presheaves import terminal_presheaf

        els = build_elements_site(u0_site)
        T = terminal_presheaf(els.directed)
        with pytest.raises(LooseEndsError) as ei:
            presentation_from_segal(T, "dioperad")
        assert ei.value.code == "FlavorMismatch"


TABLES = ("dagger", "ops", "op_profile", "actions", "identities", "compositions", "contractions")

# sha256 (first 16 hex digits) of the repr of every table's items, sorted by
# repr: the colors are nerve values (DecoratedGraphs), which the text format
# cannot write, so the tables are pinned by digest
PINNED = {
    "modular/U": "fc208aa637d4428b",
    "modular2swap/U3": "de9dad3f68e03026",
    "modular2id/U3": "e6d0fd36857daa9f",
    "freeCyclic2v/U0": "31c99e55071c9644",
    "io/U0": "2ca0181d97d9f1d5",
    "augCyclic/U0": "01f9f7c7e235539a",
    "freeCyclic/U0": "c73f2f78b6a2580d",
    "cyclic/Ucyc": "404b4c92be6c3f6e",
}


def _tables_digest(Q):
    text = repr([(t, sorted(getattr(Q, t).items(), key=repr)) for t in TABLES])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_extracted_tables_are_pinned(u_site, u0_site):
    """Every table read off the nerves of eight presentations, including
    the two the benchmark's nerve-kan workload extracts."""
    u3 = build_site("U", SiteBounds(2, 3, 3))
    ucyc = build_site("Ucyc", SiteBounds(2, 4, 3))
    caps = OperadCaps(6, 16)
    swapped = {"a": "b", "b": "a"}
    two_vertex_tree = next(
        g for g in u0_site.objects if len(g.vertices) == 2 and len(g.boundary) == 2
    )
    cyclic = free_cyclic(next(g for g in ucyc.objects if g.vertices), caps=OperadCaps(6, 24))
    cyclic.flavor = "cyclic"
    cases = {
        "modular/U": (terminal_presentation("modular", caps=caps), u_site),
        "modular2swap/U3": (
            terminal_presentation("modular", colors=("a", "b"), dagger=swapped, caps=caps),
            u3,
        ),
        "modular2id/U3": (terminal_presentation("modular", colors=("a", "b"), caps=caps), u3),
        "freeCyclic2v/U0": (free_cyclic(two_vertex_tree, caps=OperadCaps(6, 24)), u0_site),
        "io/U0": (io_presentation(caps=OperadCaps(4, 16)), u0_site),
        "augCyclic/U0": (terminal_presentation("augCyclic", caps=caps), u0_site),
        "freeCyclic/U0": (free_cyclic(u0_site.objects[-1], caps=OperadCaps(6, 24)), u0_site),
        "cyclic/Ucyc": (cyclic, ucyc),
    }
    got = {
        label: _tables_digest(presentation_from_segal(nerve_presheaf(P, site), P.flavor))
        for label, (P, site) in cases.items()
    }
    assert got == PINNED


def test_extraction_reads_the_flavor_of_every_object():
    """A site with no objects has an empty nerve and no edge object, so
    extraction fails SiteTooSmall; a directed object fails FlavorMismatch
    wherever it stands, not only first."""
    from looseends.graphs import make_edge, make_edge_dir
    from looseends.presheaves import terminal_presheaf
    from looseends.sites import Site

    X = nerve_presheaf(terminal_presentation("modular", caps=OperadCaps(4, 16)), Site("U", [], {}))
    assert X.values == {}
    with pytest.raises(LooseEndsError) as ei:
        presentation_from_segal(X, "modular")
    assert ei.value.code == "SiteTooSmall"
    mixed = terminal_presheaf(Site("U", [make_edge(), make_edge_dir()], {}))
    with pytest.raises(LooseEndsError) as ei:
        presentation_from_segal(mixed, "modular")
    assert ei.value.code == "FlavorMismatch"
