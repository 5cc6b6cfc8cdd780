import collections
import itertools
import random

import pytest

from looseends.config import OperadCaps
from looseends.emb import boundary, enumerate_emb, id_element, unions, vertex_element
from looseends.errors import LooseEndsError
from looseends.gen import gen_trees_u
from looseends.gmaps import enumerate_graph_maps, identity_map
from looseends.graphs import (
    joined,
    make_edge,
    make_linear,
    make_star,
    sides,
    underlying,
    validate_ugraph,
)
from looseends.operads import (
    OperadPresentation,
    act_to,
    decorated,
    decoration_valid,
    enumerate_decorations,
    evaluate,
    free_cyclic,
    hom_to_tree_map,
    io_presentation,
    monoid_dioperad,
    nerve_action,
    operad_homs,
    star_boundary_order,
    subtree_of_op,
    terminal_presentation,
    validate_presentation,
    validate_presentation_reference,
)
from looseends.config import SiteBounds


def evaluate_normalized(P, d):
    """Evaluate and relist ports canonically (sorted) for comparisons."""
    t = evaluate(P, d)
    return act_to(P, t, joined(P, map(tuple, map(sorted, sides(P, t.ports)))))


def generator_op(h, v):
    """The canonical generator op of free_cyclic(h) at vertex v."""
    return "<" + ",".join(star_boundary_order(h, v)) + ">"


@pytest.fixture(scope="module")
def caps():
    return OperadCaps(max_arity=4, max_ops_per_profile=24)


@pytest.fixture(scope="module")
def path2():
    return validate_ugraph(
        "path2",
        [("a", "a*"), ("b", "b*"), ("c", "c*")],
        [("x", ["a*", "b"]), ("y", ["b*", "c"])],
    )


class TestValidate:
    def test_terminal_flavors(self, caps):
        for flavor in ("augCyclic", "cyclic", "modular", "dioperad", "wheeledProperad"):
            validate_presentation(terminal_presentation(flavor, caps=caps))

    def test_free_cyclic_validates(self, path2, caps):
        validate_presentation(free_cyclic(path2, caps=caps))

    def test_broken_associativity_caught(self, caps):
        P = terminal_presentation("modular", caps=OperadCaps(3, 16))
        # swap one composition result to a wrong-profile op
        key = next(
            k
            for k, r in P.compositions.items()
            if P.arity(r) >= 1
        )
        wrong = next(
            p for p in P.op_profile if P.op_profile[p] != P.op_profile[P.compositions[key]]
        )
        P.compositions[key] = wrong
        with pytest.raises(LooseEndsError) as ei:
            validate_presentation(P)
        assert ei.value.code in {"AssociativityViolated", "TableIncomplete"}

    def test_broken_identity_caught(self):
        P = monoid_dioperad()
        P.compositions[("s", 0, 0, "1")] = "1"  # s . id should stay s
        with pytest.raises(LooseEndsError) as ei:
            validate_presentation(P)
        assert ei.value.code == "IdentityLawViolated"

    def test_cyclic_forbids_empty_profile(self, caps):
        P = terminal_presentation("augCyclic", caps=OperadCaps(2, 16))
        P.flavor = "cyclic"
        with pytest.raises(LooseEndsError) as ei:
            validate_presentation(P)
        assert ei.value.code == "FlavorMismatch"

    def test_io_presentation(self):
        P = io_presentation(caps=OperadCaps(3, 16))
        validate_presentation(P)
        assert P.dagger == {"i": "o", "o": "i"}


class TestFreeCyclic:
    def test_edge_has_two_identities(self):
        C = free_cyclic(make_edge())
        assert len(C.op_profile) == 2
        assert set(C.identities.values()) == set(C.op_profile)

    def test_star2_count(self):
        C = free_cyclic(make_star(2))
        assert len(C.op_profile) == 6

    def test_two_vertex_tree_count(self, path2, caps):
        C = free_cyclic(path2, caps=caps)
        expected = 0
        for t in enumerate_emb(path2):
            b = len(boundary(t))
            if b <= caps.max_arity:
                fact = 1
                for k in range(2, b + 1):
                    fact *= k
                expected += fact
        assert len(C.op_profile) == expected

    def test_augmentation_iff_closed_boundary(self, caps):
        closed = validate_ugraph(
            "closed2", [("e", "e*")], [("u", ["e"]), ("v", ["e*"])]
        )
        C = free_cyclic(closed, caps=caps)
        assert () in C.ops and C.ops[()]
        C2 = free_cyclic(make_star(2), caps=caps)
        assert not C2.ops.get((), ())

    def test_distinct_subtrees_distinct_ops(self, path2, caps):
        C = free_cyclic(path2, caps=caps)
        seen = {}
        for p in C.op_profile:
            t = subtree_of_op(C, path2, p)
            seen.setdefault(t, set()).add(p)
        # each subtree contributes |boundary|! distinct operations
        for t, names in seen.items():
            b = len(boundary(t))
            fact = 1
            for k in range(2, b + 1):
                fact *= k
            assert len(names) == fact

    def test_composition_is_union(self, path2, caps):
        C = free_cyclic(path2, caps=caps)
        for (p, i, j, q), r in C.compositions.items():
            s, t = subtree_of_op(C, path2, p), subtree_of_op(C, path2, q)
            (z,) = unions(s, t)
            assert subtree_of_op(C, path2, r) == z

    def test_not_a_tree(self, theta):
        with pytest.raises(LooseEndsError) as ei:
            free_cyclic(theta)
        assert ei.value.code == "NotATree"


def _terminal_decoration(P, g):
    ds = enumerate_decorations(P, g)
    assert ds
    return ds[0]


class TestEvaluate:
    def test_single_star_returns_decoration(self):
        P = terminal_presentation("modular", caps=OperadCaps(3, 16))
        g = make_star(2)
        d = _terminal_decoration(P, g)
        t = evaluate(P, d)
        assert t.op == dict(d.decoration)["v"]

    def test_two_star_tree_union_in_free_operad(self, path2, caps):
        C = free_cyclic(path2, caps=caps)
        # decorate path2 by its own generators; evaluation is the identity op
        col = {a: a for a in path2.arcs}
        dec = {v: generator_op(path2, v) for v in path2.vertices}
        d = decorated(path2, col, dec)
        assert decoration_valid(C, d)
        t = evaluate(C, d)
        assert subtree_of_op(C, path2, t.op) == id_element(path2)

    def test_loop_contraction_modular(self, loop_with_legs):
        P = terminal_presentation("modular", caps=OperadCaps(4, 16))
        d = _terminal_decoration(P, loop_with_legs)
        t = evaluate(P, d)
        assert P.arity(t.op) == 2

    def test_loop_needs_contraction(self, loop_with_legs):
        P = terminal_presentation("augCyclic", caps=OperadCaps(4, 16))
        d = _terminal_decoration(P, loop_with_legs)
        with pytest.raises(LooseEndsError) as ei:
            evaluate(P, d)
        assert ei.value.code == "FlavorLacksContraction"

    def test_wheeled_parallel_edges(self, diamond):
        P = terminal_presentation("wheeledProperad", caps=OperadCaps(4, 16))
        d = _terminal_decoration(P, diamond)
        t = evaluate(P, d)
        assert P.arity(t.op) == 2

    def test_dioperad_rejects_parallel_edges(self, diamond):
        P = terminal_presentation("dioperad", caps=OperadCaps(4, 16))
        d = _terminal_decoration(P, diamond)
        with pytest.raises(LooseEndsError) as ei:
            evaluate(P, d)
        assert ei.value.code == "FlavorLacksContraction"

    def test_arity_cap_exceeded(self, theta, caps):
        # joining theta's two 4-valent vertices needs an intermediate
        # profile of size six, beyond the cap
        P = terminal_presentation("modular", caps=caps)
        d = _terminal_decoration(P, theta)
        with pytest.raises(LooseEndsError) as ei:
            evaluate(P, d)
        assert ei.value.code == "ArityCapExceeded"

    def test_order_independence(self, path2, theta, loop_with_legs, caps):
        P6 = terminal_presentation("modular", caps=OperadCaps(6, 16))
        two = terminal_presentation(
            "modular", colors=("c", "d"), caps=OperadCaps(6, 16)
        )
        C = free_cyclic(path2, caps=caps)
        cases = []
        for host in (path2, theta, loop_with_legs):
            cases.append((P6, _terminal_decoration(P6, host)))
            cases.append((two, enumerate_decorations(two, host)[3]))
        col = {a: a for a in path2.arcs}
        dec = {v: generator_op(path2, v) for v in path2.vertices}
        cases.append((C, decorated(path2, col, dec)))
        for P, d in cases:
            base = evaluate_normalized(P, d)
            for seed in range(8):
                rng = random.Random(seed)
                t = evaluate(P, d, rng=rng)
                if P.directed:
                    new = (tuple(sorted(t.ports[0])), tuple(sorted(t.ports[1])))
                else:
                    new = tuple(sorted(t.ports))
                assert act_to(P, t, new) == base


class TestFreeEvaluationAgainstEmb:
    def test_subtree_decorations_evaluate_to_unions(self, path2, caps):
        C = free_cyclic(path2, caps=caps)
        col = {a: a for a in path2.arcs}
        # decorate x by a subtree containing x, y by one containing y,
        # overlapping on the middle edge: evaluation = union
        sx = vertex_element(path2, "x")
        sy = vertex_element(path2, "y")
        px = "<" + ",".join(boundary(sx)) + ">"
        py = "<" + ",".join(boundary(sy)) + ">"
        d = decorated(path2, col, {"x": px, "y": py})
        t = evaluate(C, d)
        (z,) = unions(sx, sy)
        assert subtree_of_op(C, path2, t.op) == z


class TestOperadHoms:
    def test_identity_present(self, path2, caps):
        C = free_cyclic(path2, caps=caps)
        homs = operad_homs(C, path2, C, path2)
        ids = [
            (f0, im)
            for f0, im in homs
            if all(f0[a] == a for a in path2.arcs)
            and all(im[v] == generator_op(path2, v) for v in path2.vertices)
        ]
        assert len(ids) == 1

    def test_count_matches_tree_maps(self, caps):
        trees = gen_trees_u(SiteBounds(max_vertices=2, max_edges=4, max_arity=3))
        pres = {t: free_cyclic(t, caps=caps) for t in trees}
        for h in trees:
            for g in trees:
                homs = operad_homs(pres[h], h, pres[g], g)
                maps = enumerate_graph_maps(h, g)
                assert len(homs) == len(maps)
                witnesses = {hom_to_tree_map(hom, h, g, pres[g]) for hom in homs}
                assert witnesses == set(maps)

    def test_homs_out_of_edge_operad(self, path2, caps):
        e = make_edge()
        CE = free_cyclic(e)
        CG = free_cyclic(path2, caps=caps)
        homs = operad_homs(CE, e, CG, path2)
        assert len(homs) == len(path2.arcs)


class TestNerveAction:
    def test_identity_action(self, path2, caps):
        P = free_cyclic(path2, caps=caps)
        m = identity_map(path2)
        for d in enumerate_decorations(P, path2)[:10]:
            assert nerve_action(P, m, d) == d

    def test_functoriality_on_small_maps(self, path2, caps):
        from looseends.gmaps import compose

        P = terminal_presentation("modular", caps=caps)
        s2 = make_star(2)
        fs = enumerate_graph_maps(s2, path2)
        gs = enumerate_graph_maps(path2, path2)
        for f in fs[:4]:
            for g in gs[:4]:
                gf = compose(g, f)
                for d in enumerate_decorations(P, path2):
                    lhs = nerve_action(P, gf, d)
                    rhs = nerve_action(P, f, nerve_action(P, g, d))
                    assert lhs == rhs

    def test_representability(self, path2, caps):
        # decorations of H in C(G) match tree maps H -> G
        C = free_cyclic(path2, caps=caps)
        for h in (make_star(2), underlying(make_linear(1)), path2):
            ds = enumerate_decorations(C, h)
            maps = enumerate_graph_maps(h, path2)
            assert len(ds) == len(maps)

    def test_terminal_nerve_singleton(self, path2, theta, caps):
        P = terminal_presentation("modular", caps=caps)
        for host in (path2, theta, make_star(2), make_edge()):
            assert len(enumerate_decorations(P, host)) == 1


class TestAssociativityLaw:
    def test_same_profile_corruption_caught(self):
        # a three-element cyclic-group table with one entry corrupted
        table = {
            ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
            ("a", "1"): "a", ("a", "a"): "b", ("a", "b"): "1",
            ("b", "1"): "b", ("b", "a"): "1", ("b", "b"): "a",
        }
        P = monoid_dioperad(name="z3", elements=("1", "a", "b"), table=table)
        validate_presentation(P)
        bad = dict(table)
        bad[("b", "b")] = "b"
        Q = monoid_dioperad(name="z3bad", elements=("1", "a", "b"), table=bad)
        with pytest.raises(LooseEndsError) as ei:
            validate_presentation(Q)
        assert ei.value.code == "AssociativityViolated"


def _graded(P):
    """P times Z/2: two operations over each operation of P, grades adding
    under composition and kept by actions and contractions.  Every profile
    then holds two operations, so a swap within a profile passes the shape
    checks and has to be caught by a law."""

    def nm(p, g):
        return f"{p}^{g}"

    G = (0, 1)
    return OperadPresentation(
        P.name + "xZ2",
        P.flavor,
        P.colors,
        P.dagger,
        {prof: tuple(nm(p, g) for p in names for g in G) for prof, names in P.ops.items()},
        {nm(p, g): prof for p, prof in P.op_profile.items() for g in G},
        {
            (nm(p, g), i, j, nm(q, h)): nm(r, (g + h) % 2)
            for (p, i, j, q), r in P.compositions.items()
            for g in G
            for h in G
        },
        {(nm(p, g), i, j): nm(r, g) for (p, i, j), r in P.contractions.items() for g in G},
        {(nm(p, g), perm): nm(q, g) for (p, perm), q in P.actions.items() for g in G},
        {c: nm(p, 0) for c, p in P.identities.items()},
        P.caps,
    )


_REMOVE = object()
_TABLES = ("identities", "actions", "compositions", "contractions")


def _mutations(P, table):
    """Every single-entry mutation of one table: each entry replaced by
    another op of the same profile, by an op of another profile, and
    removed."""
    for key, cur in getattr(P, table).items():
        others = [q for q in P.op_profile if q != cur]
        same = [q for q in others if P.op_profile[q] == P.op_profile[cur]]
        moved = [q for q in others if P.op_profile[q] != P.op_profile[cur]]
        for alt in same[:1] + moved[:1] + [_REMOVE]:
            entries = dict(getattr(P, table))
            if alt is _REMOVE:
                del entries[key]
            else:
                entries[key] = alt
            tables = {t: getattr(P, t) for t in _TABLES}
            tables[table] = entries
            yield OperadPresentation(
                P.name, P.flavor, P.colors, P.dagger, P.ops, P.op_profile, caps=P.caps, **tables
            )


def _validation_error(validate, P):
    """The error code and message validate raises on P, or None when it
    accepts P."""
    try:
        validate(P)
    except LooseEndsError as e:
        return e.code, str(e)
    return None


def _mutation_codes(P, table):
    """validate_presentation's error code (None: accepted) for every
    single-entry mutation of one table, counted."""
    errors = (_validation_error(validate_presentation, Q) for Q in _mutations(P, table))
    return dict(collections.Counter(error and error[0] for error in errors))


def _sweep_presentations():
    path2 = validate_ugraph(
        "path2",
        [("a", "a*"), ("b", "b*"), ("c", "c*")],
        [("x", ["a*", "b"]), ("y", ["b*", "c"])],
    )
    z3 = {
        ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
        ("a", "1"): "a", ("a", "a"): "b", ("a", "b"): "1",
        ("b", "1"): "b", ("b", "a"): "1", ("b", "b"): "a",
    }
    c2, c3 = OperadCaps(2, 16), OperadCaps(3, 16)
    return {
        "flip": monoid_dioperad(),
        "z3": monoid_dioperad(name="z3", elements=("1", "a", "b"), table=z3),
        "free_cyclic": free_cyclic(path2, caps=c3),
        "modular": terminal_presentation("modular", caps=c3),
        "dioperad": terminal_presentation("dioperad", caps=c3),
        "wheeledProperad": terminal_presentation("wheeledProperad", caps=c3),
        "modularxZ2": _graded(terminal_presentation("modular", caps=c3)),
        "wheeledProperadxZ2": _graded(terminal_presentation("wheeledProperad", caps=c2)),
    }


# Error codes of the mutation sweep, per presentation and table.
MUTATION_CODES = {
    "flip": {
        "identities": {"IdentityLawViolated": 2},
        "actions": {"ActionLawViolated": 4},
        "compositions": {"IdentityLawViolated": 3, "TableIncomplete": 4, None: 1},
        "contractions": {},
    },
    "z3": {
        "identities": {"IdentityLawViolated": 2},
        "actions": {"ActionLawViolated": 6},
        "compositions": {
            "AssociativityViolated": 4,
            "IdentityLawViolated": 5,
            "TableIncomplete": 9,
        },
        "contractions": {},
    },
    "free_cyclic": {
        "identities": {"IdentityLawViolated": 12},
        "actions": {"ActionLawViolated": 48},
        "compositions": {"AssociativityViolated": 80, "TableIncomplete": 80},
        "contractions": {},
    },
    "modular": {
        "identities": {"IdentityLawViolated": 2},
        "actions": {"ActionLawViolated": 20},
        "compositions": {"AssociativityViolated": 27, "TableIncomplete": 27},
        "contractions": {"EquivarianceViolated": 4, "TableIncomplete": 4},
    },
    "dioperad": {
        "identities": {"IdentityLawViolated": 2},
        "actions": {"ActionLawViolated": 48},
        "compositions": {"AssociativityViolated": 64, "TableIncomplete": 64},
        "contractions": {},
    },
    "wheeledProperad": {
        "identities": {"IdentityLawViolated": 2},
        "actions": {"ActionLawViolated": 48},
        "compositions": {"AssociativityViolated": 64, "TableIncomplete": 64},
        "contractions": {"EquivarianceViolated": 5, "TableIncomplete": 5},
    },
    "modularxZ2": {
        "identities": {"IdentityLawViolated": 3},
        "actions": {"ActionLawViolated": 60},
        "compositions": {
            "AssociativityViolated": 112,
            "EquivarianceViolated": 81,
            "IdentityLawViolated": 23,
            "TableIncomplete": 108,
        },
        "contractions": {"EquivarianceViolated": 16, "TableIncomplete": 8},
    },
    "wheeledProperadxZ2": {
        "identities": {"IdentityLawViolated": 3},
        "actions": {"ActionLawViolated": 48},
        "compositions": {
            "AssociativityViolated": 73,
            "EquivarianceViolated": 40,
            "IdentityLawViolated": 15,
            "TableIncomplete": 64,
        },
        "contractions": {"EquivarianceViolated": 2, "TableIncomplete": 2, None: 2},
    },
}


def test_mutation_sweep_pins_error_codes():
    """Every corruption of a valid table is caught with the pinned code:
    a guard on the law checks themselves, over both flavors."""
    presentations = _sweep_presentations()
    for P in presentations.values():
        validate_presentation(P)
    got = {
        name: {
            table: _mutation_codes(P, table)
            for table in ("identities", "actions", "compositions", "contractions")
        }
        for name, P in presentations.items()
    }
    assert got == MUTATION_CODES


def test_generator_law_checks_match_the_full_laws():
    """The laws as validate_presentation checks them (the action law and
    equivariance on adjacent transpositions, associativity by plans) answer
    every presentation of the sweep, and every single-entry mutation of it,
    with the error of the checks as first written.  Only an equivariance
    message may name another key: the generator check meets the break one
    transposition away."""
    checked = 0
    for name, P in _sweep_presentations().items():
        for table in ("identities", "actions", "compositions", "contractions"):
            for Q in itertools.chain([P], _mutations(P, table)):
                want = _validation_error(validate_presentation_reference, Q)
                got = _validation_error(validate_presentation, Q)
                if want and want[0] == "EquivarianceViolated":
                    got, want = got and got[0], want[0]
                assert got == want, (name, table)
                checked += 1
    mutations = sum(sum(c.values()) for by_table in MUTATION_CODES.values() for c in by_table.values())
    assert checked == 4 * len(MUTATION_CODES) + mutations
