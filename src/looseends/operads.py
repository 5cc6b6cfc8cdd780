"""Finitely tabulated colored generalized operads and their nerves.

Profiles are ordered tuples of colors (pairs of tuples in the directed
flavors) with explicit symmetric action tables.  Laws are verified through a
small term calculus: profile positions carry port labels, composition and
contraction act on ports, and two terms are equal when an action table entry
aligns their ports.  Equivariance, associativity, interchange and identity
laws each reduce to building both sides and comparing terms.

The flavors share one code path.  A profile, a port tuple or a permutation
is read through ``sides``: one side when undirected, the inputs and the
outputs when directed.  Entries pair through ``dual``: the color involution,
or equality.  A composition key (p, i, j, q) joins entry i of p's first side
to entry j of q's last side, and a contraction key (p, i, j) closes entry i
of the first side against entry j of the last (i < j on a single side).
Only splicing a composite and dropping a contracted pair are spelled out
per flavor.
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_CAPS
from .emb import boundary, enumerate_emb, realize, unions, vertex_element
from .errors import fail
from .gmaps import extend_tree_map
from .graphs import (
    by_side,
    complete_slot_maps,
    extend_slot_map,
    is_connected,
    joined,
    port_table,
    shape,
    sides,
)
from .records import Record, setfield

UNDIRECTED_FLAVORS = ("augCyclic", "cyclic", "modular")
DIRECTED_FLAVORS = ("dioperad", "wheeledProperad")
FLAVORS = UNDIRECTED_FLAVORS + DIRECTED_FLAVORS


def flavor_has_contraction(flavor):
    return flavor in ("modular", "wheeledProperad")


def flavor_allows_empty_profile(flavor):
    return flavor != "cyclic"


class OperadPresentation(Record):
    """A mutable record: the tables are filled in place, so it has no hash."""

    # dagger: color -> color, the involution (undirected flavors; identity
    # allowed); ops: profile -> tuple of op names; op_profile: op -> profile;
    # compositions: (p, i, j, q) -> r; contractions: (p, i, j) -> r;
    # actions: (p, perm) -> q (perm tuple; pair of tuples directed);
    # identities: color -> op
    __slots__ = (
        "name", "flavor", "colors", "dagger", "ops", "op_profile", "compositions",
        "contractions", "actions", "identities", "caps", "directed",
    )
    __hash__ = None
    __delattr__ = object.__delattr__
    __reduce__ = object.__reduce__  # directed is a field but no __init__ argument

    def __init__(
        self, name, flavor, colors, dagger, ops, op_profile,
        compositions, contractions, actions, identities, caps=DEFAULT_CAPS,
    ):
        self.name, self.flavor, self.colors, self.dagger = name, flavor, colors, dagger
        self.ops, self.op_profile = ops, op_profile
        self.compositions, self.contractions = compositions, contractions
        self.actions, self.identities, self.caps = actions, identities, caps

    def __setattr__(self, name, value):
        # directed is read on every profile and port access: kept in step
        # with the flavor rather than recomputed
        setfield(self, name, value)
        if name == "flavor":
            setfield(self, "directed", value in DIRECTED_FLAVORS)

    def dual(self, c):
        """The color an entry of color c pairs with."""
        return c if self.directed else self.dagger.get(c)

    def arity(self, p):
        return self.profile_size(self.op_profile[p])

    def profile_size(self, prof):
        return sum(map(len, sides(self, prof)))

    def __repr__(self):
        return (
            f"OperadPresentation({self.name!r}, {self.flavor},"
            f" {len(self.op_profile)} ops)"
        )


# ---------------------------------------------------------------------------
# the flavors: sides, splicing and dropping


def _relabel(obj, x, f):
    return joined(obj, (tuple(map(f, part)) for part in sides(obj, x)))


def _identity_profile(P, c):
    return joined(P, ((P.dual(c),), (c,)))


def _splice(P, x, i, y, j):
    """Entry i of x joined to entry j of y, for profiles and port tuples."""
    if P.directed:
        (xi, xo), (yi, yo) = x, y
        return xi[:i] + yi + xi[i + 1 :], yo[:j] + xo + yo[j + 1 :]
    return x[:i] + y[j + 1 :] + y[:j] + x[i + 1 :]


def _drop(P, x, i, j):
    """x without entry i of its first side and entry j of its last side."""
    parts = [list(part) for part in sides(P, x)]
    del parts[-1][j]
    del parts[0][i]
    return joined(P, map(tuple, parts))


def _matching_pairs(P, p, q):
    """Entries (i, j) of p's first side and q's last side that compose."""
    first, last = sides(P, P.op_profile[p])[0], sides(P, P.op_profile[q])[-1]
    want = [P.dual(c) for c in last]
    return [(i, j) for i, c in enumerate(first) for j, d in enumerate(want) if c == d]


def _contraction_pairs(P, prof):
    """Entries (i, j) of prof's first and last side that a contraction closes."""
    first, last = sides(P, prof)[0], sides(P, prof)[-1]
    return [
        (i, j)
        for i in range(len(first))
        for j in range(len(last))
        if (P.directed or i < j) and first[i] == P.dual(last[j])
    ]


def _admissible_compositions(P):
    """(p, i, j, q, composite profile) for every composition within the caps."""
    for p in P.op_profile:
        for q in P.op_profile:
            for i, j in _matching_pairs(P, p, q):
                prof = _splice(P, P.op_profile[p], i, P.op_profile[q], j)
                size = P.profile_size(prof)
                if size > P.caps.max_arity:
                    continue
                if size == 0 and not flavor_allows_empty_profile(P.flavor):
                    continue
                yield p, i, j, q, prof


def _perms_for(P, p):
    """The permutations of p's entries, side by side: the action's keys."""
    ranges = (itertools.permutations(range(len(s))) for s in sides(P, P.op_profile[p]))
    return [joined(P, perm) for perm in itertools.product(*ranges)]


def _act_profile(P, x, perm):
    """x (a profile or port tuple) relisted by perm."""
    return joined(
        P, (tuple(s[k] for k in ps) for s, ps in zip(sides(P, x), sides(P, perm)))
    )


# ---------------------------------------------------------------------------
# term calculus: operations with named ports


class Term(Record):
    __slots__ = ("op", "ports")  # ports: labels; directed: (in labels, out labels)

    def __init__(self, op, ports):
        setfield(self, "op", op)
        setfield(self, "ports", ports)

    def __eq__(self, other):
        if other.__class__ is not Term:
            return NotImplemented
        return self.op == other.op and self.ports == other.ports

    def __hash__(self):
        return hash((self.op, self.ports))


def op_term(P, p, tag):
    letters = ("i", "o") if P.directed else ("e",)
    parts = zip(letters, sides(P, P.op_profile[p]))
    return Term(p, joined(P, (tuple((tag, x, k) for k in range(len(s))) for x, s in parts)))


def _relisting(P, ports, new_ports):
    """The permutation, side by side, that lists ports as new_ports; None if
    they hold different ports."""
    perm = []
    for a, b in zip(sides(P, ports), sides(P, new_ports)):
        if sorted(a) != sorted(b):
            return None
        perm.append(tuple(map(a.index, b)))
    return joined(P, perm)


def act_to(P, t: Term, new_ports):
    """The same abstract operation with ports listed in a different order."""
    q = P.actions.get((t.op, _relisting(P, t.ports, new_ports)))
    if q is None:
        return None
    return Term(q, new_ports)


def _relistings(P, t: Term):
    """t under every permutation of its ports, side by side."""
    orders = itertools.product(*map(itertools.permutations, sides(P, t.ports)))
    return [act_to(P, t, joined(P, order)) for order in orders]


def _adjacent_swaps(P, t: Term):
    """t under each adjacent transposition within one side: the generators
    of its relistings."""
    parts = sides(P, t.ports)
    out = []
    for n, part in enumerate(parts):
        for k in range(len(part) - 1):
            swapped = part[:k] + (part[k + 1], part[k]) + part[k + 2 :]
            out.append(act_to(P, t, joined(P, parts[:n] + (swapped,) + parts[n + 1 :])))
    return out


def term_eq(P, t1: Term, t2: Term) -> bool:
    moved = act_to(P, t1, t2.ports)
    return moved is not None and moved.op == t2.op


def compose_terms(P, t1: Term, i, t2: Term, j):
    """t1 with its entry i composed against entry j of t2; None if the table
    lacks the entry (out of caps) or the colors do not match."""
    r = P.compositions.get((t1.op, i, j, t2.op))
    if r is None:
        return None
    return Term(r, _splice(P, t1.ports, i, t2.ports, j))


def contract_term(P, t: Term, i, j):
    r = P.contractions.get((t.op, i, j))
    if r is None:
        return None
    return Term(r, _drop(P, t.ports, i, j))


def port_index(P, t: Term, port):
    """(side, index) of the port in t; side is 0/1 directed, 0 undirected."""
    parts = sides(P, t.ports)
    for side, part in enumerate(parts):
        if port in part:
            return side, part.index(port)
    return len(parts) - 1, parts[-1].index(port)


def _port(P, t: Term, side, k):
    return sides(P, t.ports)[side][k]


def _joint(P, t1: Term, port1, t2: Term, port2):
    """The arguments (ta, i, tb, j) of compose_terms that join port1 of t1
    to port2 of t2: the term whose port lies on its first side comes first.
    None if the ports do not compose."""
    (s1, i), (s2, j) = port_index(P, t1, port1), port_index(P, t2, port2)
    last = len(sides(P, t1.ports)) - 1
    if s1 == 0 and s2 == last:
        return t1, i, t2, j
    if s2 == 0 and s1 == last:
        return t2, j, t1, i
    return None


def compose_at(P, t1: Term, port1, t2: Term, port2):
    """t1 and t2 composed along port1 of t1 and port2 of t2; None if the
    ports do not compose or the table lacks the entry."""
    joint = _joint(P, t1, port1, t2, port2)
    return None if joint is None else compose_terms(P, *joint)


def contract_at(P, t: Term, port1, port2):
    """t with the ports port1 and port2 contracted against each other; None
    if they cannot be or the table lacks the entry."""
    (s1, i), (s2, j) = sorted((port_index(P, t, port1), port_index(P, t, port2)))
    if s1 != 0 or s2 != len(sides(P, t.ports)) - 1:
        return None
    return contract_term(P, t, i, j)


# ---------------------------------------------------------------------------
# validation


def validate_presentation(P: OperadPresentation):
    """P, if its tables are total and satisfy the laws of its flavor; fails
    with the code of the first violation found otherwise.  The group-action
    law and equivariance are checked on generators (adjacent
    transpositions), as ``_check_actions`` and ``_check_equivariance``
    argue."""
    return _validate(P, _adjacent_swaps, _check_associativity)


def validate_presentation_reference(P: OperadPresentation):
    """validate_presentation with the laws checked as first written: the
    group-action law on every pair of relistings, equivariance of
    composition and contraction on every relisting, and associativity term
    by term at every attachment.  A reference for differential tests: it
    must answer every presentation with the same error code."""
    return _validate(P, _relistings, _check_associativity_by_terms)


def _validate(P, relist, check_associativity):
    """The checks in order; relist(P, t) lists the relistings of a term t
    that the action law and both equivariance laws are checked against."""
    if P.flavor not in FLAVORS:
        fail("FlavorMismatch", f"unknown flavor {P.flavor!r}")
    _check_shapes(P)
    _check_actions(P, relist)
    _check_identity_shapes(P)
    _check_composition_totality(P)
    if P.contractions and not flavor_has_contraction(P.flavor):
        fail("FlavorLacksContraction", f"{P.flavor} has no contraction")
    if flavor_has_contraction(P.flavor):
        _check_contraction_totality(P)
    _check_identity_laws(P)
    _check_equivariance(P, relist)
    check_associativity(P)
    if flavor_has_contraction(P.flavor):
        _check_contraction_laws(P, relist)
    return P


def _check_shapes(P):
    named = set(P.identities.values())
    for table in (P.actions, P.compositions, P.contractions):
        named.update(table.values(), (key[0] for key in table))
    named.update(key[3] for key in P.compositions)
    unknown = named - P.op_profile.keys()
    if unknown:
        fail("TableIncomplete", f"tables name unknown ops {sorted(unknown)!r}")
    for prof, names in P.ops.items():
        if len(names) > P.caps.max_ops_per_profile:
            fail("TableIncomplete", f"profile {prof!r} exceeds the op cap")
        for p in names:
            if P.op_profile.get(p) != prof:
                fail("TableIncomplete", f"op {p!r} disagrees with its profile")
    for p, prof in P.op_profile.items():
        if p not in P.ops.get(prof, ()):
            fail("TableIncomplete", f"op {p!r} missing from its profile set")
        if any(c not in P.colors for part in sides(P, prof) for c in part):
            fail("FlavorMismatch", f"profile {prof!r} uses unknown colors")
    for c in P.colors:
        if P.dual(P.dual(c)) != c:
            fail("FlavorMismatch", "color involution is not self-inverse")
    if P.flavor == "cyclic" and P.ops.get((), ()):
        fail("FlavorMismatch", "cyclic flavor forbids the empty profile")


def _check_actions(P, relist):
    """The action table is total, keeps profiles, fixes every op under the
    identity, and is a group action: a(a(p, s), t) = a(p, st).

    Checking the last law for every relisting s and every t in relist(P,
    -) suffices when relist gives the adjacent transpositions of one side.
    Any t is a word t' u in them, and by induction on its length
    a(a(p, s), t' u) = a(a(a(p, s), t'), u) = a(a(p, st'), u) = a(p, st' u),
    where the outer steps are the law at the ops a(p, s) and p, which are
    checked too.  So n!(n - 1) pairs replace (n!)^2."""
    for p in P.op_profile:
        for perm in _perms_for(P, p):
            q = P.actions.get((p, perm))
            if q is None:
                fail("ActionLawViolated", f"action missing at {(p, perm)!r}")
            if P.op_profile[q] != _act_profile(P, P.op_profile[p], perm):
                fail("ActionLawViolated", f"wrong profile at {(p, perm)!r}")
    for p in P.op_profile:
        t = op_term(P, p, "a")
        if act_to(P, t, t.ports).op != p:
            fail("ActionLawViolated", f"identity permutation moves {p!r}")
        # group action: two successive relistings equal one relisting
        for t1 in _relistings(P, t):
            for t2 in relist(P, t1):
                if t2.op != act_to(P, t, t2.ports).op:
                    fail("ActionLawViolated", f"not a group action at {p!r}")


def _check_identity_shapes(P):
    for c, p in P.identities.items():
        if P.op_profile.get(p) != _identity_profile(P, c):
            fail("IdentityLawViolated", f"identity of {c!r} has wrong profile")
    for c in P.colors:
        if c not in P.identities:
            fail("IdentityLawViolated", f"color {c!r} lacks an identity")


def _check_composition_totality(P):
    for p, i, j, q, prof in _admissible_compositions(P):
        r = P.compositions.get((p, i, j, q))
        if r is None:
            fail("TableIncomplete", f"composition missing at {(p, i, j, q)!r}")
        if P.op_profile[r] != prof:
            fail(
                "AssociativityViolated",
                f"composite at {(p, i, j, q)!r} has wrong profile",
            )


def _check_contraction_totality(P):
    for (p, i, j), r in P.contractions.items():
        prof = P.op_profile[p]
        if (i, j) not in _contraction_pairs(P, prof):
            fail("FlavorLacksContraction", f"invalid contraction key {(p, i, j)!r}")
        if P.op_profile[r] != _drop(P, prof, i, j):
            fail("EquivarianceViolated", f"contraction at {(p, i, j)!r} wrong profile")
    for p, prof in P.op_profile.items():
        for i, j in _contraction_pairs(P, prof):
            if (p, i, j) not in P.contractions:
                fail("TableIncomplete", f"contraction missing at {(p, i, j)!r}")


def _check_identity_laws(P):
    """An identity composed at a port of p gives p back, the port renamed to
    the identity's far port.  Each port meets an identity on its right and
    one on its left; in the directed flavors only one of the two composes."""
    for p, prof in P.op_profile.items():
        tp = op_term(P, p, "p")
        for side, (ports, colors) in enumerate(zip(sides(P, tp.ports), sides(P, prof))):
            for k, (x, color) in enumerate(zip(ports, colors)):
                # an identity's ports, flattened, carry (dual color, color)
                tid = op_term(P, P.identities[color], "id")
                near, far = sum(sides(P, tid.ports), ())
                tid2 = op_term(P, P.identities[P.dual(color)], "id2")
                far2, near2 = sum(sides(P, tid2.ports), ())
                for got, y, label in (
                    (compose_at(P, tp, x, tid, near), far, ""),
                    (compose_at(P, tid2, near2, tp, x), far2, " (left)"),
                ):
                    want = Term(p, _relabel(P, tp.ports, lambda z: y if z == x else z))
                    if got is not None and not term_eq(P, got, want):
                        fail("IdentityLawViolated", f"{p!r} entry {(side, k)!r}{label}")


def _check_equivariance(P, relist):
    """Composing along the same two ports gives the same term, however p and
    q list them: compose(p.s, q) = compose(p, q) for each s in relist(P, p),
    and likewise for q.

    Adjacent transpositions suffice once the action law holds.  Write a
    relisting as a word s1 ... sk in them; then p.(s1 ... sk) is the term
    (p.(s1 ... sk-1)).sk, and the check at that term's key gives
    compose(p.(s1 ... sk), q) = compose(p.(s1 ... sk-1), q) = ... =
    compose(p, q).  Each step is an equality of terms up to relisting,
    which the group action makes transitive.  Every key such a word passes
    through is in the table: a missing one is a generator's step away from
    a present key, whose check reports the gap."""
    for p, i, j, q in P.compositions:
        tp, tq = op_term(P, p, "p"), op_term(P, q, "q")
        base = compose_terms(P, tp, i, tq, j)
        x, y = _port(P, tp, 0, i), _port(P, tq, -1, j)
        for label, others in (
            ("p", (compose_at(P, tp2, x, tq, y) for tp2 in relist(P, tp))),
            ("q", (compose_at(P, tp, x, tq2, y) for tq2 in relist(P, tq))),
        ):
            for other in others:
                if other is None:
                    fail("TableIncomplete", f"equivariance gap at {(p, i, j, q)!r}")
                if not term_eq(P, base, other):
                    fail("EquivarianceViolated", f"{label}-action at {(p, i, j, q)!r}")


def _recompose(P, tp, tq, x, y, inner, owner):
    """tp and tq composed along x and y again, with the term owning a port
    that was used first replaced by inner."""
    if inner is None:
        return None
    return compose_at(P, tp, x, inner, y) if owner is tq else compose_at(P, inner, x, tq, y)


def _attachments(P):
    """Per op m: the (s, k, l) with (m, k, l, s) in the composition table
    and (k, l) among the matching pairs of m and s, ordered by s as in
    op_profile, then by k and l."""
    rank = {s: n for n, s in enumerate(P.op_profile)}
    pairs = {}
    out = {}
    for m, k, l, s in P.compositions:
        if m not in rank or s not in rank:
            continue
        if (m, s) not in pairs:
            pairs[m, s] = set(_matching_pairs(P, m, s))
        if (k, l) in pairs[m, s]:
            out.setdefault(m, []).append((s, k, l))
    for attach in out.values():
        attach.sort(key=lambda skl: (rank[skl[0]], skl[1], skl[2]))
    return out


def _check_associativity(P):
    """Composing p and q, then attaching s, equals attaching s to whichever
    of p and q owns the port first.  Only attachments present in the table
    are visited, in the order of s, then of the port pair.  Which entries
    the right-hand side is built from, and how it relists the left-hand
    side, depends only on the side lengths of p, q and s and on the four
    entries; _associativity_plan works it out once per such shape."""
    attachments = _attachments(P)
    shapes = {p: tuple(map(len, sides(P, prof))) for p, prof in P.op_profile.items()}
    # each op's term once per role, the op name replaced by the role
    roles = {p: {r: Term(r, op_term(P, p, r).ports) for r in "pqs"} for p in P.op_profile}
    comp, act = P.compositions, P.actions
    plans = {}
    for (p, i, j, q), mid in comp.items():
        for s, k, l in attachments.get(mid, ()):
            key = (shapes[p], shapes[q], shapes[s], i, j, k, l)
            if key not in plans:
                tp, tq, ts = roles[p]["p"], roles[q]["q"], roles[s]["s"]
                plans[key] = _associativity_plan(P, tp, tq, ts, i, j, k, l)
            if plans[key] is None:
                continue
            (a1, i1, j1, b1), (a2, i2, j2, b2), perm = plans[key]
            ops = {"p": p, "q": q, "s": s}
            ops["r"] = comp.get((ops[a1], i1, j1, ops[b1]))
            rhs = None if ops["r"] is None else comp.get((ops[a2], i2, j2, ops[b2]))
            if rhs is not None and act.get((comp[mid, k, l, s], perm)) != rhs:
                fail(
                    "AssociativityViolated",
                    f"{(p, i, j, q)!r} then attach {s!r} at {(k, l)!r}",
                )


def _associativity_plan(P, tp, tq, ts, i, j, k, l):
    """The right-hand side of associativity for terms shaped like tp, tq
    and ts, whose ops are their roles "p", "q" and "s": the keys of its
    inner and outer composition, with "r" for the inner composite, and the
    relisting that turns the left-hand side's ports into its ports.  None
    if it does not compose."""
    mid = Term("mid", _splice(P, tp.ports, i, tq.ports, j))
    x, y = _port(P, tp, 0, i), _port(P, tq, -1, j)
    z, w = _port(P, mid, 0, k), _port(P, ts, -1, l)
    owner = tq if z[0] == "q" else tp
    inner = _joint(P, owner, z, ts, w)
    if inner is None:
        return None
    ta, i1, tb, j1 = inner
    tr = Term("r", _splice(P, ta.ports, i1, tb.ports, j1))
    outer = _joint(P, tp, x, tr, y) if owner is tq else _joint(P, tr, x, tq, y)
    if outer is None:
        return None
    tc, i2, td, j2 = outer
    lhs = _splice(P, mid.ports, k, ts.ports, l)
    rhs = _splice(P, tc.ports, i2, td.ports, j2)
    return (ta.op, i1, j1, tb.op), (tc.op, i2, j2, td.op), _relisting(P, lhs, rhs)


def _check_associativity_by_terms(P):
    """_check_associativity as first written, for the reference: every
    attachment of every op, composed term by term."""
    pairs = {(p, q): _matching_pairs(P, p, q) for p in P.op_profile for q in P.op_profile}
    terms = {s: op_term(P, s, "s") for s in P.op_profile}
    for p, i, j, q in P.compositions:
        tp, tq = op_term(P, p, "p"), op_term(P, q, "q")
        mid = compose_terms(P, tp, i, tq, j)
        x, y = _port(P, tp, 0, i), _port(P, tq, -1, j)
        for s, ts in terms.items():
            for k, l in pairs[mid.op, s]:
                lhs = compose_terms(P, mid, k, ts, l)
                if lhs is None:
                    continue
                z, w = _port(P, mid, 0, k), _port(P, ts, -1, l)
                owner = tq if z[0] == "q" else tp
                rhs = _recompose(P, tp, tq, x, y, compose_at(P, owner, z, ts, w), owner)
                if rhs is not None and not term_eq(P, lhs, rhs):
                    fail(
                        "AssociativityViolated",
                        f"{(p, i, j, q)!r} then attach {s!r} at {(k, l)!r}",
                    )


def _check_contraction_laws(P, relist):
    """Contractions commute among themselves, are equivariant (checked
    against relist(P, p), as in _check_equivariance), and interchange with
    composition."""
    # contractions commute among themselves
    for p, i, j in P.contractions:
        tp = op_term(P, p, "p")
        first = contract_term(P, tp, i, j)
        x, y = _port(P, tp, 0, i), _port(P, tp, -1, j)
        for k, l in _contraction_pairs(P, P.op_profile[first.op]):
            lhs = contract_term(P, first, k, l)
            if lhs is None:
                continue
            other = contract_at(P, tp, _port(P, first, 0, k), _port(P, first, -1, l))
            rhs = None if other is None else contract_at(P, other, x, y)
            if rhs is not None and not term_eq(P, lhs, rhs):
                fail("EquivarianceViolated", f"contractions at {(p, i, j)!r} do not commute")
    # contraction equivariance
    for p, i, j in P.contractions:
        tp = op_term(P, p, "p")
        base = contract_term(P, tp, i, j)
        x, y = _port(P, tp, 0, i), _port(P, tp, -1, j)
        for tp2 in relist(P, tp):
            other = contract_at(P, tp2, x, y)
            if other is None:
                fail("TableIncomplete", f"contraction gap at {(p, i, j)!r}")
            if not term_eq(P, base, other):
                fail("EquivarianceViolated", f"contraction action at {(p, i, j)!r}")
    # interchange with composition
    for p, i, j, q in P.compositions:
        tp, tq = op_term(P, p, "p"), op_term(P, q, "q")
        mid = compose_terms(P, tp, i, tq, j)
        x, y = _port(P, tp, 0, i), _port(P, tq, -1, j)
        for k, l in _contraction_pairs(P, P.op_profile[mid.op]):
            lhs = contract_term(P, mid, k, l)
            if lhs is None:
                continue
            z, w = _port(P, mid, 0, k), _port(P, mid, -1, l)
            tz, tw = (tq if z[0] == "q" else tp), (tq if w[0] == "q" else tp)
            if tz is tw:
                rhs = _recompose(P, tp, tq, x, y, contract_at(P, tz, z, w), tz)
            else:
                # parallel pair: compose along it, then contract the original
                joint = compose_at(P, tz, z, tw, w)
                rhs = None if joint is None else contract_at(P, joint, x, y)
            if rhs is not None and not term_eq(P, lhs, rhs):
                fail(
                    "EquivarianceViolated",
                    f"contraction/composition interchange at {(p, i, j, q)!r}",
                )


# ---------------------------------------------------------------------------
# presentation builders


def _close_tables(P: OperadPresentation, compose_rule, contract_rule=None):
    """Fill composition/action/contraction tables from semantic rules.

    compose_rule(p, i, j, q) and contract_rule(p, i, j) return the result op
    (must exist in the op set); actions must already be present.
    """
    for p, i, j, q, _ in _admissible_compositions(P):
        P.compositions[(p, i, j, q)] = compose_rule(p, i, j, q)
    if contract_rule is not None:
        for p, prof in P.op_profile.items():
            for i, j in _contraction_pairs(P, prof):
                P.contractions[(p, i, j)] = contract_rule(p, i, j)
    return P


def _name_actions_and_identities(P, op_name):
    """The action and identity tables of a presentation whose ops are named
    by their profiles through op_name."""
    for p, prof in P.op_profile.items():
        for perm in _perms_for(P, p):
            P.actions[(p, perm)] = op_name(_act_profile(P, prof, perm))
    P.identities.update({c: op_name(_identity_profile(P, c)) for c in P.colors})


def terminal_presentation(flavor, colors=("c",), dagger=None, caps=DEFAULT_CAPS, name=None):
    """One operation in every admissible profile."""
    colors = tuple(colors)
    if dagger is None:
        dagger = {c: c for c in colors}
    P = OperadPresentation(
        name or f"terminal-{flavor}", flavor, colors, dagger, {}, {}, {}, {}, {}, {}, caps
    )

    def op_name(prof):
        return "t(" + ";".join(",".join(part) for part in sides(P, prof)) + ")"

    arity = range(caps.max_arity + 1)
    for lengths in itertools.product(arity, repeat=2 if P.directed else 1):
        if sum(lengths) > caps.max_arity:
            continue
        if sum(lengths) == 0 and not flavor_allows_empty_profile(flavor):
            continue
        choices = (itertools.product(colors, repeat=n) for n in lengths)
        for parts in itertools.product(*choices):
            prof = joined(P, parts)
            P.ops[prof] = (op_name(prof),)
            P.op_profile[op_name(prof)] = prof
    _name_actions_and_identities(P, op_name)
    _close_tables(
        P,
        lambda p, i, j, q: op_name(_splice(P, P.op_profile[p], i, P.op_profile[q], j)),
        (
            (lambda p, i, j: op_name(_drop(P, P.op_profile[p], i, j)))
            if flavor_has_contraction(flavor)
            else None
        ),
    )
    return P


def io_presentation(caps=DEFAULT_CAPS):
    """The two-color terminal augmented cyclic operad with swapped involution;
    its nerve is the orientation presheaf."""
    return terminal_presentation(
        "augCyclic", colors=("i", "o"), dagger={"i": "o", "o": "i"}, caps=caps, name="IO"
    )


def monoid_dioperad(name="flip", elements=("1", "s"), table=None, caps=DEFAULT_CAPS):
    """A one-color dioperad with only (1,1)-ary operations: a monoid.

    Default is Z/2 = {1, s} with s.s = 1.
    """
    if table is None:
        table = {
            ("1", "1"): "1",
            ("1", "s"): "s",
            ("s", "1"): "s",
            ("s", "s"): "1",
        }
    colors = ("c",)
    prof = (("c",), ("c",))
    ops = {prof: tuple(elements)}
    op_profile = {e: prof for e in elements}
    P = OperadPresentation(
        name, "dioperad", colors, {}, ops, op_profile, {}, {}, {}, {"c": "1"}, caps
    )
    for e in elements:
        P.actions[(e, ((0,), (0,)))] = e
    for p in elements:
        for q in elements:
            # input of p fed by output of q: p after q
            P.compositions[(p, 0, 0, q)] = table[(p, q)]
    return P


# ---------------------------------------------------------------------------
# free cyclic operads on trees


def free_cyclic(g, caps=DEFAULT_CAPS):
    """The free augmented cyclic operad on an undirected tree.

    Colors are the arcs; operations are subtrees with an ordering of their
    boundary; composition is union of subtrees.  Profiles beyond the arity
    cap are omitted (and compositions landing there).
    """
    if g.directed or not shape(g).is_tree:
        fail("NotATree", g.name)

    def op_name(prof):
        return "<" + ",".join(prof) + ">"

    P = OperadPresentation(
        f"C({g.name})", "augCyclic", g.arcs, dict(g.dagger), {}, {}, {}, {}, {}, {}, caps
    )
    op_of = {}
    for t in enumerate_emb(g):
        bd = boundary(t)
        if len(bd) > caps.max_arity:
            continue
        for ordering in itertools.permutations(bd):
            p = op_name(ordering)
            P.ops[ordering] = P.ops.get(ordering, ()) + (p,)
            P.op_profile[p] = ordering
            op_of[p] = t
    _name_actions_and_identities(P, op_name)

    def compose_rule(p, i, j, q):
        zs = unions(op_of[p], op_of[q])
        if len(zs) != 1:
            fail("NotATree", "subtree union not unique")
        target = op_name(_splice(P, P.op_profile[p], i, P.op_profile[q], j))
        if target not in P.op_profile:
            fail("TableIncomplete", "composite outside tabulated profiles")
        if op_of[target] != zs[0]:
            fail("AssociativityViolated", "union disagrees with profile bookkeeping")
        return target

    _close_tables(P, compose_rule)
    return P


def subtree_of_op(P, g, p):
    """Recover the subtree class of an op of free_cyclic(g) from its profile."""
    want = frozenset(P.op_profile[p])
    for t in enumerate_emb(g):
        if frozenset(boundary(t)) == want:
            return t
    fail("UnknownArc", f"op {p!r} has no subtree")


# ---------------------------------------------------------------------------
# decorated graphs and evaluation


class DecoratedGraph(Record):
    """A coloring of the host's arcs/edges plus an operation per vertex.

    coloring: arc -> color (involutive) or edge -> color.
    decoration: vertex -> op whose profile matches the coloring of the star
    boundary listed in canonical (sorted) order.  Nerve values key every
    presheaf action table, so the hash is kept, as Emb classes keep theirs.
    """

    __slots__ = ("host", "coloring", "decoration", "_hash")  # sorted items

    def __init__(self, host, coloring, decoration):
        setfield(self, "host", host)
        setfield(self, "coloring", coloring)
        setfield(self, "decoration", decoration)
        setfield(self, "_hash", hash((host, coloring, decoration)))

    def __eq__(self, other):
        if other.__class__ is not DecoratedGraph:
            return NotImplemented
        return (self.host, self.coloring, self.decoration) == (
            other.host, other.coloring, other.decoration
        )

    def __hash__(self):
        return self._hash

    def color(self, key):
        return dict(self.coloring)[key]


def star_boundary_order(g, v):
    """Canonical listing of the star boundary at v: the sorted ports at v."""
    return by_side(g, port_table(g)[v])


def _label(g, side, s):
    """The port of a star term at slot s: the arc itself, or the edge tagged
    by the side it lies on."""
    return (("in", "out")[side], s) if g.directed else s


def _slot(g, port):
    return port[1] if g.directed else port


def _ports(g, x, f=lambda s: s):
    """Port labels for x, a side-shaped tuple whose entries f maps to slots."""
    return joined(
        g, (tuple(_label(g, k, f(e)) for e in part) for k, part in enumerate(sides(g, x)))
    )


def _end_ports(g, e):
    """The star-term labels of g.end_ports(e), in the order of g.ends(e)."""
    return tuple(_label(g, side, s) for side, s in g.end_ports(e))


def decorated(host, coloring, decoration):
    return DecoratedGraph(
        host, tuple(sorted(coloring.items())), tuple(sorted(decoration.items()))
    )


def decoration_valid(P, d: DecoratedGraph) -> bool:
    g = d.host
    col = dict(d.coloring)
    dec = dict(d.decoration)
    if g.directed != P.directed:
        return False
    for s in g.slots:
        if col.get(s) not in P.colors or col[g.partner(s)] != P.dual(col[s]):
            return False
    for v in g.vertices:
        p = dec.get(v)
        want = _relabel(g, star_boundary_order(g, v), col.__getitem__)
        if p not in P.op_profile or P.op_profile[p] != want:
            return False
    return True


def enumerate_decorations(P, g):
    """All valid decorated graphs on g; the nerve's value set."""
    out = []
    stars = [star_boundary_order(g, v) for v in g.vertices]
    for picks in itertools.product(P.colors, repeat=len(g.edge_keys)):
        col = {}
        for e, c in zip(g.edge_keys, picks):
            col[g.slot_of(e)] = c
            col[g.partner(g.slot_of(e))] = P.dual(c)
        pools = [P.ops.get(_relabel(g, star, col.__getitem__), ()) for star in stars]
        for ops in itertools.product(*pools):
            out.append(decorated(g, col, dict(zip(g.vertices, ops))))
    return out


def evaluate(P, d: DecoratedGraph, rng=None):
    """Collapse all internal edges of a connected decorated graph.

    Returns a Term whose ports are host arcs (directed: host edges tagged by
    side), total over the class boundary.  rng, when given, shuffles the
    collapse order; order independence is a property the tests check, not an
    assumption here.
    """
    g = d.host
    if not is_connected(g):
        fail("NotClosed", "evaluate needs a connected host")
    if not decoration_valid(P, d):
        fail("FlavorMismatch", "decoration does not match the presentation")
    dec = dict(d.decoration)

    if not g.vertices:
        # a bare edge evaluates to the identity on its color
        (e,) = g.edge_keys
        x, y = _end_ports(g, e) if g.directed else e
        return Term(P.identities[d.color(_slot(g, y))], joined(P, ((x,), (y,))))

    def star_term(v):
        return Term(dec[v], _ports(g, star_boundary_order(g, v)))

    def agenda():
        items = sorted(pending.items())
        if rng is not None:
            rng.shuffle(items)
        return items

    verts = sorted(g.vertices)
    if rng is not None:
        rng.shuffle(verts)
    done = {verts[0]}
    current = star_term(verts[0])
    pending = {e: _end_ports(g, e) for e in g.edge_keys if g.is_internal_edge(e)}
    while True:
        have = set(itertools.chain(*sides(P, current.ports)))
        # contract an edge with both ends already inside the current term
        e = next((e for e, ends in agenda() if have.issuperset(ends)), None)
        if e is not None:
            current = contract_at(P, current, *pending.pop(e))
            if current is None:
                if not flavor_has_contraction(P.flavor):
                    fail("FlavorLacksContraction", f"{P.flavor} cannot close this edge")
                fail("ArityCapExceeded", "contraction outside the tabulated range")
            continue
        # otherwise graft a new vertex along one internal edge
        graft = next(
            (
                (e, x, w, y)
                for e, ends in agenda()
                for x, w, y in zip(ends, reversed(g.ends(e)), reversed(ends))
                if x in have and w not in done
            ),
            None,
        )
        if graft is None:
            break
        e, x, w, y = graft
        star = star_term(w)
        grown = compose_at(P, current, x, star, y)
        if grown is None:
            size = P.arity(current.op) + P.arity(star.op) - 2
            if size > P.caps.max_arity:
                fail("ArityCapExceeded", f"profile of size {size} not tabulated")
            fail("TableIncomplete", f"no composition joining {current.op!r} and {star.op!r}")
        current = grown
        done.add(w)
        del pending[e]
    if pending or len(done) != len(g.vertices):
        fail("NotClosed", "evaluation did not exhaust the internal edges")
    return current


# ---------------------------------------------------------------------------
# transporting decorations and the nerve action


def pull_decoration(P, incl, d: DecoratedGraph) -> DecoratedGraph:
    """Restrict a decoration along an embedding (e.g. a realization)."""
    g, h = incl.target, incl.source
    col_g = dict(d.coloring)
    dec_g = dict(d.decoration)
    col_h = {x: col_g[incl.component[x]] for x in h.slots}
    dec_h = {}
    for v in h.vertices:
        w = incl.vertex_map[v]
        parts = zip(sides(h, star_boundary_order(h, v)), sides(g, star_boundary_order(g, w)))
        sigma = joined(h, (tuple(pg.index(incl.component[x]) for x in ph) for ph, pg in parts))
        dec_h[v] = P.actions[(dec_g[w], sigma)]
    return decorated(h, col_h, dec_h)


def evaluate_region(P, d: DecoratedGraph, x):
    """Evaluate the sub-decoration carried by an embedding class x of the
    host; the resulting term's ports are host arcs (edges, directed)."""
    k, incl = realize(x)
    t = evaluate(P, pull_decoration(P, incl, d))
    return Term(t.op, _ports(k, t.ports, lambda port: incl.component[_slot(k, port)]))


def nerve_action(P, m, d: DecoratedGraph, regions=None) -> DecoratedGraph:
    """Contravariant action of a graph map on decorations: color through
    phi0 and decorate each source vertex by evaluating its image region.

    regions, when given, is a dict that keeps the term of each evaluated
    (decoration, class) pair for the next call; whoever passes it sets how
    long it lives."""
    g = m.source
    col_t = dict(d.coloring)
    col = {s: col_t[m.phi0[s]] for s in g.slots}
    dec = {}
    for v in g.vertices:
        x = m.phi_hat[vertex_element(g, v)]
        if regions is None:
            t = evaluate_region(P, d, x)
        else:
            t = regions.get((d, x))
            if t is None:
                t = regions[d, x] = evaluate_region(P, d, x)
        moved = act_to(P, t, _ports(g, star_boundary_order(g, v), m.phi0.__getitem__))
        if moved is None:
            fail("FlavorMismatch", f"region term does not match star of {v!r}")
        dec[v] = moved.op
    return decorated(g, col, dec)


# ---------------------------------------------------------------------------
# homs between free cyclic operads


def operad_homs(PH, h, PG, g):
    """All morphisms C(h) -> C(g): an involutive color map plus a
    color-compatible image operation per generator."""
    verts = sorted(h.vertices)
    out = []

    def assign(i, f0, images):
        if i == len(verts):
            # extend f0 over edges not touching a vertex (lone edge sources)
            out.extend((full, dict(images)) for full in complete_slot_maps(f0, h, g))
            return
        v = verts[i]
        order = star_boundary_order(h, v)
        for q, prof in PG.op_profile.items():
            if len(prof) != len(order):
                continue
            new = extend_slot_map(f0, zip(order, prof), h, g)
            if new is None:
                continue
            f0.update(new)
            images[v] = q
            assign(i + 1, f0, images)
            del images[v]
            for k in new:
                del f0[k]

    assign(0, {}, {})
    out.sort(key=lambda fw: (tuple(sorted(fw[0].items())), tuple(sorted(fw[1].items()))))
    return out


def hom_to_tree_map(hom, h, g, PG):
    """The tree map witnessing an operad hom: phi0 is the color map and each
    vertex goes to the subtree underlying its image operation."""
    f0, images = hom
    phi1 = {v: subtree_of_op(PG, g, q) for v, q in images.items()}
    return extend_tree_map(h, g, f0, phi1)
