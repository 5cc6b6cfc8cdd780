"""Finitely tabulated colored generalized operads and their nerves.

Profiles are ordered tuples of colors (pairs of tuples in the directed
flavors) with explicit symmetric action tables.  Laws are verified through a
small term calculus: profile positions carry port labels, composition and
contraction act on ports, and two terms are equal when an action table entry
aligns their ports.  Equivariance, associativity, interchange and identity
laws each reduce to building both sides and comparing terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, OperadCaps
from .errors import fail

UNDIRECTED_FLAVORS = ("augCyclic", "cyclic", "modular")
DIRECTED_FLAVORS = ("dioperad", "wheeledProperad")
FLAVORS = UNDIRECTED_FLAVORS + DIRECTED_FLAVORS


def flavor_has_contraction(flavor):
    return flavor in ("modular", "wheeledProperad")


def flavor_allows_empty_profile(flavor):
    return flavor != "cyclic"


@dataclass
class OperadPresentation:
    name: str
    flavor: str
    colors: tuple
    dagger: dict  # color involution (undirected flavors; identity allowed)
    ops: dict  # profile -> tuple of op names
    op_profile: dict  # op -> profile
    compositions: dict  # (p, i, j, q) -> r
    contractions: dict  # (p, i, j) -> r
    actions: dict  # (p, perm) -> q  (perm tuple; pair of tuples directed)
    identities: dict  # color -> op
    caps: OperadCaps = field(default_factory=lambda: DEFAULT_CAPS)

    @property
    def directed(self):
        return self.flavor in DIRECTED_FLAVORS

    def arity(self, p):
        prof = self.op_profile[p]
        return len(prof[0]) + len(prof[1]) if self.directed else len(prof)

    def profile_size(self, prof):
        return len(prof[0]) + len(prof[1]) if self.directed else len(prof)

    def __repr__(self):
        return (
            f"OperadPresentation({self.name!r}, {self.flavor},"
            f" {len(self.op_profile)} ops)"
        )


# ---------------------------------------------------------------------------
# term calculus: operations with named ports


@dataclass(frozen=True)
class Term:
    op: str
    ports: tuple  # tuple of labels; directed: (in labels, out labels)


def op_term(P, p, tag):
    prof = P.op_profile[p]
    if P.directed:
        ins = tuple((tag, "i", k) for k in range(len(prof[0])))
        outs = tuple((tag, "o", k) for k in range(len(prof[1])))
        return Term(p, (ins, outs))
    return Term(p, tuple((tag, "e", k) for k in range(len(prof))))


def act_to(P, t: Term, new_ports):
    """The same abstract operation with ports listed in a different order."""
    if P.directed:
        ins, outs = t.ports
        ni, no = new_ports
        if sorted(ins) != sorted(ni) or sorted(outs) != sorted(no):
            return None
        perm = (
            tuple(ins.index(x) for x in ni),
            tuple(outs.index(x) for x in no),
        )
    else:
        if sorted(t.ports) != sorted(new_ports):
            return None
        perm = tuple(t.ports.index(x) for x in new_ports)
    q = P.actions.get((t.op, perm))
    if q is None:
        return None
    return Term(q, new_ports)


def term_eq(P, t1: Term, t2: Term) -> bool:
    moved = act_to(P, t1, t2.ports)
    return moved is not None and moved.op == t2.op


def compose_terms(P, t1: Term, i, t2: Term, j):
    """t1 with its entry i composed against entry j of t2; None if the table
    lacks the entry (out of caps) or the colors do not match."""
    key = (t1.op, i, j, t2.op)
    r = P.compositions.get(key)
    if r is None:
        return None
    if P.directed:
        (i1, o1), (i2, o2) = t1.ports, t2.ports
        ports = (
            i1[:i] + i2 + i1[i + 1 :],
            o2[:j] + o1 + o2[j + 1 :],
        )
    else:
        p1, p2 = t1.ports, t2.ports
        ports = p1[:i] + p2[j + 1 :] + p2[:j] + p1[i + 1 :]
    return Term(r, ports)


def contract_term(P, t: Term, i, j):
    r = P.contractions.get((t.op, i, j))
    if r is None:
        return None
    if P.directed:
        ins, outs = t.ports
        return Term(r, (ins[:i] + ins[i + 1 :], outs[:j] + outs[j + 1 :]))
    return Term(r, tuple(x for k, x in enumerate(t.ports) if k not in (i, j)))


def port_index(P, t: Term, port):
    """(side, index) of the port in t; side is 0/1 directed, 0 undirected."""
    if P.directed:
        ins, outs = t.ports
        if port in ins:
            return 0, ins.index(port)
        return 1, outs.index(port)
    return 0, t.ports.index(port)


# ---------------------------------------------------------------------------
# validation


def validate_presentation(P: OperadPresentation):
    if P.flavor not in FLAVORS:
        fail("FlavorMismatch", f"unknown flavor {P.flavor!r}")
    _check_shapes(P)
    _check_actions(P)
    _check_identity_shapes(P)
    _check_composition_totality(P)
    if P.contractions and not flavor_has_contraction(P.flavor):
        fail("FlavorLacksContraction", f"{P.flavor} has no contraction")
    if flavor_has_contraction(P.flavor):
        _check_contraction_totality(P)
    _check_identity_laws(P)
    _check_equivariance(P)
    _check_associativity(P)
    if flavor_has_contraction(P.flavor):
        _check_contraction_laws(P)
    return P


def _check_shapes(P):
    for prof, names in P.ops.items():
        if len(names) > P.caps.max_ops_per_profile:
            fail("TableIncomplete", f"profile {prof!r} exceeds the op cap")
        for p in names:
            if P.op_profile.get(p) != prof:
                fail("TableIncomplete", f"op {p!r} disagrees with its profile")
    for p, prof in P.op_profile.items():
        if p not in P.ops.get(prof, ()):
            fail("TableIncomplete", f"op {p!r} missing from its profile set")
        if P.directed:
            if any(c not in P.colors for c in prof[0] + prof[1]):
                fail("FlavorMismatch", f"profile {prof!r} uses unknown colors")
        elif any(c not in P.colors for c in prof):
            fail("FlavorMismatch", f"profile {prof!r} uses unknown colors")
    if not P.directed:
        for c in P.colors:
            if P.dagger.get(P.dagger.get(c)) != c:
                fail("FlavorMismatch", "color involution is not self-inverse")
        if P.flavor == "cyclic" and P.ops.get((), ()):
            fail("FlavorMismatch", "cyclic flavor forbids the empty profile")


def _perms_for(P, p):
    if P.directed:
        ins, outs = P.op_profile[p]
        return [
            (pi, po)
            for pi in itertools.permutations(range(len(ins)))
            for po in itertools.permutations(range(len(outs)))
        ]
    return list(itertools.permutations(range(len(P.op_profile[p]))))


def _act_profile(P, prof, perm):
    if P.directed:
        (ins, outs), (pi, po) = prof, perm
        return tuple(ins[k] for k in pi), tuple(outs[k] for k in po)
    return tuple(prof[k] for k in perm)


def _check_actions(P):
    for p in P.op_profile:
        for perm in _perms_for(P, p):
            q = P.actions.get((p, perm))
            if q is None:
                fail("ActionLawViolated", f"action missing at {(p, perm)!r}")
            if P.op_profile[q] != _act_profile(P, P.op_profile[p], perm):
                fail("ActionLawViolated", f"wrong profile at {(p, perm)!r}")
    for p in P.op_profile:
        t = op_term(P, p, "a")
        if P.directed:
            idp = (t.ports[0], t.ports[1])
        else:
            idp = t.ports
        if act_to(P, t, idp).op != p:
            fail("ActionLawViolated", f"identity permutation moves {p!r}")
        # group action: two successive relistings equal one relisting
        for new1 in _port_orders(P, t):
            t1 = act_to(P, t, new1)
            for new2 in _port_orders(P, t1):
                if act_to(P, t1, new2).op != act_to(P, t, new2).op:
                    fail("ActionLawViolated", f"not a group action at {p!r}")


def _port_orders(P, t):
    if P.directed:
        ins, outs = t.ports
        return [
            (pi, po)
            for pi in itertools.permutations(ins)
            for po in itertools.permutations(outs)
        ]
    return list(itertools.permutations(t.ports))


def _check_identity_shapes(P):
    for c, p in P.identities.items():
        want = ((c,), (c,)) if P.directed else (P.dagger[c], c)
        if P.op_profile.get(p) != want:
            fail("IdentityLawViolated", f"identity of {c!r} has wrong profile")
    for c in P.colors:
        if c not in P.identities:
            fail("IdentityLawViolated", f"color {c!r} lacks an identity")


def _matching_pairs(P, p, q):
    if P.directed:
        (p_in, _), (_, q_out) = P.op_profile[p], P.op_profile[q]
        for i in range(len(p_in)):
            for j in range(len(q_out)):
                if p_in[i] == q_out[j]:
                    yield i, j
    else:
        pp, qq = P.op_profile[p], P.op_profile[q]
        for i in range(len(pp)):
            for j in range(len(qq)):
                if pp[i] == P.dagger[qq[j]]:
                    yield i, j


def _check_composition_totality(P):
    for p in P.op_profile:
        for q in P.op_profile:
            for i, j in _matching_pairs(P, p, q):
                prof = _composed_profile(P, p, i, q, j)
                if P.profile_size(prof) > P.caps.max_arity:
                    continue
                if (
                    not P.directed
                    and not prof
                    and not flavor_allows_empty_profile(P.flavor)
                ):
                    continue
                r = P.compositions.get((p, i, j, q))
                if r is None:
                    fail("TableIncomplete", f"composition missing at {(p, i, j, q)!r}")
                if P.op_profile[r] != prof:
                    fail(
                        "AssociativityViolated",
                        f"composite at {(p, i, j, q)!r} has wrong profile",
                    )


def _composed_profile(P, p, i, q, j):
    pp, qq = P.op_profile[p], P.op_profile[q]
    if P.directed:
        (i1, o1), (i2, o2) = pp, qq
        return (i1[:i] + i2 + i1[i + 1 :], o2[:j] + o1 + o2[j + 1 :])
    return pp[:i] + qq[j + 1 :] + qq[:j] + pp[i + 1 :]


def _check_contraction_totality(P):
    for (p, i, j), r in P.contractions.items():
        prof = P.op_profile[p]
        if P.directed:
            ins, outs = prof
            ok = i < len(ins) and j < len(outs) and ins[i] == outs[j]
            want = (ins[:i] + ins[i + 1 :], outs[:j] + outs[j + 1 :])
        else:
            ok = i < j < len(prof) and prof[i] == P.dagger[prof[j]]
            want = tuple(x for k, x in enumerate(prof) if k not in (i, j))
        if not ok:
            fail("FlavorLacksContraction", f"invalid contraction key {(p, i, j)!r}")
        if P.op_profile[r] != want:
            fail("EquivarianceViolated", f"contraction at {(p, i, j)!r} wrong profile")
    for p in P.op_profile:
        prof = P.op_profile[p]
        if P.directed:
            ins, outs = prof
            pairs = [
                (i, j)
                for i in range(len(ins))
                for j in range(len(outs))
                if ins[i] == outs[j]
            ]
        else:
            pairs = [
                (i, j)
                for i in range(len(prof))
                for j in range(i + 1, len(prof))
                if prof[i] == P.dagger[prof[j]]
            ]
        for i, j in pairs:
            if (p, i, j) not in P.contractions:
                fail("TableIncomplete", f"contraction missing at {(p, i, j)!r}")


def _check_identity_laws(P):
    ids = set(P.identities.values())
    for p in P.op_profile:
        tp = op_term(P, p, "p")
        prof = P.op_profile[p]
        entries = (
            [(0, k) for k in range(len(prof[0]))] + [(1, k) for k in range(len(prof[1]))]
            if P.directed
            else [(0, k) for k in range(len(prof))]
        )
        for side, k in entries:
            color = prof[side][k] if P.directed else prof[k]
            tid = op_term(P, P.identities[color], "id")
            if P.directed:
                if side == 0:
                    got = compose_terms(P, tp, k, tid, 0)
                    if got is None:
                        continue
                    ins, outs = tp.ports
                    want = Term(p, (ins[:k] + (tid.ports[0][0],) + ins[k + 1 :], outs))
                else:
                    got = compose_terms(P, tid, 0, tp, k)
                    if got is None:
                        continue
                    ins, outs = tp.ports
                    want = Term(p, (ins, outs[:k] + (tid.ports[1][0],) + outs[k + 1 :]))
                if not term_eq(P, got, want):
                    fail("IdentityLawViolated", f"{p!r} entry {(side, k)!r}")
            else:
                # p composed with an identity at a matching entry
                got = compose_terms(P, tp, k, tid, 0)
                if got is not None:
                    want = Term(
                        p, tp.ports[:k] + (tid.ports[1],) + tp.ports[k + 1 :]
                    )
                    if not term_eq(P, got, want):
                        fail("IdentityLawViolated", f"{p!r} entry {k}")
                # the identity composed with p
                tid2 = op_term(P, P.identities[P.dagger[color]], "id2")
                got = compose_terms(P, tid2, 1, tp, k)
                if got is not None:
                    want = Term(
                        p, tp.ports[:k] + (tid2.ports[0],) + tp.ports[k + 1 :]
                    )
                    if not term_eq(P, got, want):
                        fail("IdentityLawViolated", f"{p!r} entry {k} (left)")


def _check_equivariance(P):
    for (p, i, j, q), r in P.compositions.items():
        tp = op_term(P, p, "p")
        tq = op_term(P, q, "q")
        base = compose_terms(P, tp, i, tq, j)
        if base is None:
            continue
        port_i = tp.ports[0][i] if P.directed else tp.ports[i]
        port_j = tq.ports[1][j] if P.directed else tq.ports[j]
        for new in _port_orders(P, tp):
            tp2 = act_to(P, tp, new)
            side, i2 = port_index(P, tp2, port_i)
            other = compose_terms(P, tp2, i2, tq, j)
            if other is None:
                fail("TableIncomplete", f"equivariance gap at {(p, i, j, q)!r}")
            if not term_eq(P, base, other):
                fail("EquivarianceViolated", f"p-action at {(p, i, j, q)!r}")
        for new in _port_orders(P, tq):
            tq2 = act_to(P, tq, new)
            side, j2 = port_index(P, tq2, port_j)
            other = compose_terms(P, tp, i, tq2, j2)
            if other is None:
                fail("TableIncomplete", f"equivariance gap at {(p, i, j, q)!r}")
            if not term_eq(P, base, other):
                fail("EquivarianceViolated", f"q-action at {(p, i, j, q)!r}")


def _check_associativity(P):
    for (p, i, j, q), r in P.compositions.items():
        tp = op_term(P, p, "p")
        tq = op_term(P, q, "q")
        mid = compose_terms(P, tp, i, tq, j)
        if mid is None:
            continue
        for s in P.op_profile:
            ts = op_term(P, s, "s")
            for k, l in _matching_pairs(P, mid.op, s):
                lhs = compose_terms(P, mid, k, ts, l)
                if lhs is None:
                    continue
                port = mid.ports[0][k] if P.directed else mid.ports[k]
                owner = port[0]
                if owner == "q":
                    sideq, kq = port_index(P, tq, port)
                    inner = compose_terms(P, tq, kq, ts, l)
                    if inner is None:
                        continue
                    sj, j2 = port_index(P, inner, tq.ports[1][j] if P.directed else tq.ports[j])
                    rhs = compose_terms(P, tp, i, inner, j2)
                else:
                    sidep, kp = port_index(P, tp, port)
                    inner = compose_terms(P, tp, kp, ts, l)
                    if inner is None:
                        continue
                    si, i2 = port_index(P, inner, tp.ports[0][i] if P.directed else tp.ports[i])
                    rhs = compose_terms(P, inner, i2, tq, j)
                if rhs is None:
                    continue
                if not term_eq(P, lhs, rhs):
                    fail(
                        "AssociativityViolated",
                        f"{(p, i, j, q)!r} then attach {s!r} at {(k, l)!r}",
                    )


def _contraction_pairs_of_term(P, t):
    prof = P.op_profile[t.op]
    if P.directed:
        ins, outs = prof
        return [
            (i, j)
            for i in range(len(ins))
            for j in range(len(outs))
            if ins[i] == outs[j]
        ]
    return [
        (i, j)
        for i in range(len(prof))
        for j in range(i + 1, len(prof))
        if prof[i] == P.dagger[prof[j]]
    ]


def _check_contraction_laws(P):
    # contractions commute among themselves
    for (p, i, j), r in P.contractions.items():
        tp = op_term(P, p, "p")
        first = contract_term(P, tp, i, j)
        if first is None:
            continue
        for k, l in _contraction_pairs_of_term(P, first):
            lhs = contract_term(P, first, k, l)
            if lhs is None:
                continue
            pk = first.ports[0][k] if P.directed else first.ports[k]
            pl = first.ports[1][l] if P.directed else first.ports[l]
            s1, a = port_index(P, tp, pk)
            s2, b = port_index(P, tp, pl)
            if P.directed:
                other = contract_term(P, tp, a, b)
            else:
                other = contract_term(P, tp, min(a, b), max(a, b))
            if other is None:
                continue
            pi_ = tp.ports[0][i] if P.directed else tp.ports[i]
            pj_ = tp.ports[1][j] if P.directed else tp.ports[j]
            s3, a2 = port_index(P, other, pi_)
            s4, b2 = port_index(P, other, pj_)
            if P.directed:
                rhs = contract_term(P, other, a2, b2)
            else:
                rhs = contract_term(P, other, min(a2, b2), max(a2, b2))
            if rhs is None:
                continue
            if not term_eq(P, lhs, rhs):
                fail("EquivarianceViolated", f"contractions at {(p, i, j)!r} do not commute")
    # contraction equivariance
    for (p, i, j), r in P.contractions.items():
        tp = op_term(P, p, "p")
        base = contract_term(P, tp, i, j)
        pi_ = tp.ports[0][i] if P.directed else tp.ports[i]
        pj_ = tp.ports[1][j] if P.directed else tp.ports[j]
        for new in _port_orders(P, tp):
            tp2 = act_to(P, tp, new)
            _, a = port_index(P, tp2, pi_)
            _, b = port_index(P, tp2, pj_)
            if P.directed:
                other = contract_term(P, tp2, a, b)
            else:
                other = contract_term(P, tp2, min(a, b), max(a, b))
            if other is None:
                fail("TableIncomplete", f"contraction gap at {(p, i, j)!r}")
            if not term_eq(P, base, other):
                fail("EquivarianceViolated", f"contraction action at {(p, i, j)!r}")
    # interchange with composition
    for (p, i, j, q), r in P.compositions.items():
        tp = op_term(P, p, "p")
        tq = op_term(P, q, "q")
        mid = compose_terms(P, tp, i, tq, j)
        if mid is None:
            continue
        for k, l in _contraction_pairs_of_term(P, mid):
            lhs = contract_term(P, mid, k, l)
            if lhs is None:
                continue
            pk = mid.ports[0][k] if P.directed else mid.ports[k]
            pl = mid.ports[1][l] if P.directed else mid.ports[l]
            own_k, own_l = pk[0], pl[0]
            if own_k == own_l:
                t0 = tp if own_k == "p" else tq
                _, a = port_index(P, t0, pk)
                _, b = port_index(P, t0, pl)
                if P.directed:
                    inner = contract_term(P, t0, a, b)
                else:
                    inner = contract_term(P, t0, min(a, b), max(a, b))
                if inner is None:
                    continue
                if own_k == "p":
                    _, i2 = port_index(P, inner, tp.ports[0][i] if P.directed else tp.ports[i])
                    rhs = compose_terms(P, inner, i2, tq, j)
                else:
                    _, j2 = port_index(P, inner, tq.ports[1][j] if P.directed else tq.ports[j])
                    rhs = compose_terms(P, tp, i, inner, j2)
            else:
                # parallel pair: compose along it, then contract the original
                if P.directed:
                    if own_k == "p":  # input from p, output from q
                        _, a = port_index(P, tp, pk)
                        _, b = port_index(P, tq, pl)
                        r2 = compose_terms(P, tp, a, tq, b)
                    else:  # input from q, output from p: compose the other way
                        _, a = port_index(P, tq, pk)
                        _, b = port_index(P, tp, pl)
                        r2 = compose_terms(P, tq, a, tp, b)
                    if r2 is None:
                        continue
                    porti = tp.ports[0][i]
                    portj = tq.ports[1][j]
                    _, a2 = port_index(P, r2, porti)
                    _, b2 = port_index(P, r2, portj)
                    rhs = contract_term(P, r2, a2, b2)
                else:
                    tk = tp if own_k == "p" else tq
                    tl = tp if own_l == "p" else tq
                    _, a = port_index(P, tk, pk)
                    _, b = port_index(P, tl, pl)
                    r2 = compose_terms(P, tk, a, tl, b)
                    if r2 is None:
                        continue
                    porti = tp.ports[i]
                    portj = tq.ports[j]
                    _, a2 = port_index(P, r2, porti)
                    _, b2 = port_index(P, r2, portj)
                    rhs = contract_term(P, r2, min(a2, b2), max(a2, b2))
            if rhs is None:
                continue
            if not term_eq(P, lhs, rhs):
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
    for p in P.op_profile:
        for q in P.op_profile:
            for i, j in _matching_pairs(P, p, q):
                prof = _composed_profile(P, p, i, q, j)
                if P.profile_size(prof) > P.caps.max_arity:
                    continue
                if (
                    not P.directed
                    and not prof
                    and not flavor_allows_empty_profile(P.flavor)
                ):
                    continue
                P.compositions[(p, i, j, q)] = compose_rule(p, i, j, q)
    if contract_rule is not None:
        for p in P.op_profile:
            prof = P.op_profile[p]
            if P.directed:
                ins, outs = prof
                pairs = [
                    (i, j)
                    for i in range(len(ins))
                    for j in range(len(outs))
                    if ins[i] == outs[j]
                ]
            else:
                pairs = [
                    (i, j)
                    for i in range(len(prof))
                    for j in range(i + 1, len(prof))
                    if prof[i] == P.dagger[prof[j]]
                ]
            for i, j in pairs:
                P.contractions[(p, i, j)] = contract_rule(p, i, j)
    return P


def terminal_presentation(flavor, colors=("c",), dagger=None, caps=DEFAULT_CAPS, name=None):
    """One operation in every admissible profile."""
    directed = flavor in DIRECTED_FLAVORS
    colors = tuple(colors)
    if dagger is None:
        dagger = {c: c for c in colors}
    ops, op_profile = {}, {}

    def op_name(prof):
        if directed:
            return "t(" + ",".join(prof[0]) + ";" + ",".join(prof[1]) + ")"
        return "t(" + ",".join(prof) + ")"

    profiles = []
    if directed:
        for n in range(caps.max_arity + 1):
            for m in range(caps.max_arity + 1 - n):
                for ins in itertools.product(colors, repeat=n):
                    for outs in itertools.product(colors, repeat=m):
                        profiles.append((ins, outs))
    else:
        for n in range(caps.max_arity + 1):
            if n == 0 and not flavor_allows_empty_profile(flavor):
                continue
            profiles.extend(itertools.product(colors, repeat=n))
    for prof in profiles:
        p = op_name(prof)
        ops[prof] = (p,)
        op_profile[p] = prof
    P = OperadPresentation(
        name or f"terminal-{flavor}",
        flavor,
        colors,
        dagger,
        ops,
        op_profile,
        {},
        {},
        {},
        {},
        caps,
    )
    for p, prof in op_profile.items():
        for perm in _perms_for(P, p):
            P.actions[(p, perm)] = op_name(_act_profile(P, prof, perm))
    if directed:
        P.identities.update({c: op_name(((c,), (c,))) for c in colors})
    else:
        P.identities.update({c: op_name((dagger[c], c)) for c in colors})
    _close_tables(
        P,
        lambda p, i, j, q: op_name(_composed_profile(P, p, i, q, j)),
        (
            (lambda p, i, j: op_name(_contracted_profile(P, p, i, j)))
            if flavor_has_contraction(flavor)
            else None
        ),
    )
    return P


def _contracted_profile(P, p, i, j):
    prof = P.op_profile[p]
    if P.directed:
        ins, outs = prof
        return (ins[:i] + ins[i + 1 :], outs[:j] + outs[j + 1 :])
    return tuple(x for k, x in enumerate(prof) if k not in (i, j))


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
    from .emb import EmbEdge, boundary, enumerate_emb, unions
    from .graphs import UGraph, shape

    if not isinstance(g, UGraph) or not shape(g).is_tree:
        fail("NotATree", g.name)
    colors = tuple(g.arcs)
    dagger = dict(g.dagger)
    subtrees = list(enumerate_emb(g))
    by_boundary = {}
    ops, op_profile = {}, {}
    op_of = {}
    for t in subtrees:
        bd = boundary(t)
        by_boundary[frozenset(bd)] = t
        if len(bd) > caps.max_arity:
            continue
        for ordering in itertools.permutations(bd):
            p = "<" + ",".join(ordering) + ">"
            ops.setdefault(ordering, ())
            ops[ordering] = ops[ordering] + (p,)
            op_profile[p] = ordering
            op_of[p] = t
    P = OperadPresentation(
        f"C({g.name})",
        "augCyclic",
        colors,
        dagger,
        ops,
        op_profile,
        {},
        {},
        {},
        {},
        caps,
    )
    for p, prof in op_profile.items():
        for perm in _perms_for(P, p):
            P.actions[(p, perm)] = "<" + ",".join(prof[k] for k in perm) + ">"
    for a in g.arcs:
        P.identities[a] = "<" + ",".join((dagger[a], a)) + ">"

    def compose_rule(p, i, j, q):
        s, t = op_of[p], op_of[q]
        zs = unions(s, t)
        if len(zs) != 1:
            fail("NotATree", "subtree union not unique")
        prof = _composed_profile(P, p, i, q, j)
        target = "<" + ",".join(prof) + ">"
        if target not in op_profile:
            fail("TableIncomplete", "composite outside tabulated profiles")
        if op_of[target] != zs[0]:
            fail("AssociativityViolated", "union disagrees with profile bookkeeping")
        return target

    _close_tables(P, compose_rule)
    return P


def subtree_of_op(P, g, p):
    """Recover the subtree class of an op of free_cyclic(g) from its profile."""
    from .emb import boundary, enumerate_emb

    want = frozenset(P.op_profile[p])
    for t in enumerate_emb(g):
        if frozenset(boundary(t)) == want:
            return t
    fail("UnknownArc", f"op {p!r} has no subtree")


# ---------------------------------------------------------------------------
# decorated graphs and evaluation


@dataclass(frozen=True)
class DecoratedGraph:
    """A coloring of the host's arcs/edges plus an operation per vertex.

    coloring: arc -> color (involutive) or edge -> color.
    decoration: vertex -> op whose profile matches the coloring of the star
    boundary listed in canonical (sorted) order.
    """

    host: object
    coloring: tuple  # sorted items
    decoration: tuple  # sorted items

    def color(self, key):
        return dict(self.coloring)[key]

    def op_at(self, v):
        return dict(self.decoration)[v]


def star_boundary_order(g, v):
    """Canonical listing of the star boundary at v (arcs; directed: pair)."""
    from .graphs import UGraph

    if isinstance(g, UGraph):
        return tuple(sorted(g.dagger[a] for a in g.nbhd(v)))
    return tuple(sorted(g.in_of(v))), tuple(sorted(g.out_of(v)))


def decorated(host, coloring, decoration):
    return DecoratedGraph(
        host, tuple(sorted(coloring.items())), tuple(sorted(decoration.items()))
    )


def decoration_valid(P, d: DecoratedGraph) -> bool:
    from .graphs import UGraph

    g = d.host
    col = dict(d.coloring)
    dec = dict(d.decoration)
    if isinstance(g, UGraph) == P.directed:
        return False
    if isinstance(g, UGraph):
        for a in g.arcs:
            if col.get(a) not in P.colors:
                return False
            if col[g.dagger[a]] != P.dagger[col[a]]:
                return False
    else:
        for e in g.edges:
            if col.get(e) not in P.colors:
                return False
    for v in g.vertices:
        p = dec.get(v)
        if p not in P.op_profile:
            return False
        order = star_boundary_order(g, v)
        if isinstance(g, UGraph):
            want = tuple(col[a] for a in order)
        else:
            want = (
                tuple(col[e] for e in order[0]),
                tuple(col[e] for e in order[1]),
            )
        if P.op_profile[p] != want:
            return False
    return True


def enumerate_decorations(P, g):
    """All valid decorated graphs on g; the nerve's value set."""
    from .graphs import UGraph

    out = []
    if isinstance(g, UGraph):
        orbits = sorted({g.edge_key(a) for a in g.arcs})
        choices = []
        for a, b in orbits:
            choices.append([(a, c) for c in P.colors])
        for picks in itertools.product(*choices):
            col = {}
            for (a, c) in picks:
                col[a] = c
                col[g.dagger[a]] = P.dagger[c]
            _extend_decorations(P, g, col, out)
    else:
        for assignment in itertools.product(P.colors, repeat=len(g.edges)):
            col = dict(zip(g.edges, assignment))
            _extend_decorations(P, g, col, out)
    return out


def _extend_decorations(P, g, col, out):
    from .graphs import UGraph

    pools = []
    for v in g.vertices:
        order = star_boundary_order(g, v)
        if isinstance(g, UGraph):
            want = tuple(col[a] for a in order)
        else:
            want = (
                tuple(col[e] for e in order[0]),
                tuple(col[e] for e in order[1]),
            )
        pool = P.ops.get(want, ())
        if not pool:
            return
        pools.append(pool)
    for picks in itertools.product(*pools):
        out.append(decorated(g, col, dict(zip(g.vertices, picks))))


def evaluate(P, d: DecoratedGraph, rng=None):
    """Collapse all internal edges of a connected decorated graph.

    Returns a Term whose ports are host arcs (directed: host edges tagged by
    side), total over the class boundary.  rng, when given, shuffles the
    collapse order; order independence is a property the tests check, not an
    assumption here.
    """
    from .graphs import UGraph, is_connected

    g = d.host
    if not is_connected(g):
        fail("NotClosed", "evaluate needs a connected host")
    if not decoration_valid(P, d):
        fail("FlavorMismatch", "decoration does not match the presentation")
    undirected = isinstance(g, UGraph)
    dec = dict(d.decoration)

    if not g.vertices:
        # a bare edge evaluates to the identity on its color
        if undirected:
            (e,) = [g.edge_key(a) for a in g.arcs[:1]]
            a, b = e
            c = d.color(b)
            t = Term(P.identities[c], (a, b))
            return t
        (e,) = g.edges
        c = d.color(e)
        return Term(P.identities[c], ((("in", e),), (("out", e),)))

    def star_term(v):
        order = star_boundary_order(g, v)
        if undirected:
            return Term(dec[v], order)
        ins, outs = order
        return Term(
            dec[v],
            (tuple(("in", e) for e in ins), tuple(("out", e) for e in outs)),
        )

    verts = sorted(g.vertices)
    if rng is not None:
        verts = list(verts)
        rng.shuffle(verts)
    done = {verts[0]}
    current = star_term(verts[0])
    internal = _internal_edge_list(g, undirected)

    def ports_of(t):
        if undirected:
            return set(t.ports)
        return set(t.ports[0]) | set(t.ports[1])

    def agenda():
        items = sorted(pending.items())
        if rng is not None:
            rng.shuffle(items)
        return items

    pending = dict(internal)
    while True:
        progress = False
        # contract edges with both ends already inside the current term
        for e, (pa, pb) in agenda():
            have = ports_of(current)
            if pa in have and pb in have:
                current = _absorb_internal(P, current, pa, pb, undirected)
                del pending[e]
                progress = True
                break
        if progress:
            continue
        # otherwise graft a new vertex along one internal edge
        for e, (pa, pb) in agenda():
            have = ports_of(current)
            va, vb = g.ends(e)
            if pa in have and vb not in done:
                current = _graft(P, current, pa, star_term(vb), pb, undirected)
                done.add(vb)
                del pending[e]
                progress = True
                break
            if pb in have and va not in done:
                current = _graft(P, current, pb, star_term(va), pa, undirected)
                done.add(va)
                del pending[e]
                progress = True
                break
        if not progress:
            break
    if pending or len(done) != len(g.vertices):
        fail("NotClosed", "evaluation did not exhaust the internal edges")
    return current


def _internal_edge_list(g, undirected):
    """internal edge -> (port at one end, port at the other end), in the
    order of g.ends.  Ports of undirected star terms are boundary arcs: the
    star at t(a) carries port dagger(a).  Directed ports are tagged edges."""

    def ports(e):
        if undirected:
            a, b = e
            return b, a
        return ("in", e), ("out", e)

    return {e: ports(e) for e in g.edge_keys if g.is_internal_edge(e)}


def _graft(P, t1, port1, t2, port2, undirected):
    if undirected:
        i = t1.ports.index(port1)
        j = t2.ports.index(port2)
        res = compose_terms(P, t1, i, t2, j)
    else:
        s1, i = port_index(P, t1, port1)
        s2, j = port_index(P, t2, port2)
        if s1 == 0 and s2 == 1:
            res = compose_terms(P, t1, i, t2, j)
        elif s1 == 1 and s2 == 0:
            res = compose_terms(P, t2, j, t1, i)
        else:
            res = None
    if res is None:
        _explain_missing(P, t1, port1, t2, port2)
    return res


def _absorb_internal(P, t, pa, pb, undirected):
    if undirected:
        i, j = t.ports.index(pa), t.ports.index(pb)
        res = contract_term(P, t, min(i, j), max(i, j))
    else:
        sa, i = port_index(P, t, pa)
        sb, j = port_index(P, t, pb)
        if sa == sb:
            res = None
        else:
            if sa == 1:
                i, j = j, i
            res = contract_term(P, t, i, j)
    if res is None:
        if not flavor_has_contraction(P.flavor):
            fail("FlavorLacksContraction", f"{P.flavor} cannot close this edge")
        fail("ArityCapExceeded", "contraction outside the tabulated range")
    return res


def _explain_missing(P, t1, port1, t2, port2):
    size = P.arity(t1.op) + P.arity(t2.op) - 2
    if size > P.caps.max_arity:
        fail("ArityCapExceeded", f"profile of size {size} not tabulated")
    fail("TableIncomplete", f"no composition joining {t1.op!r} and {t2.op!r}")


def evaluate_normalized(P, d: DecoratedGraph):
    """Evaluate and relist ports canonically (sorted) for comparisons."""
    t = evaluate(P, d)
    if P.directed:
        new = (tuple(sorted(t.ports[0])), tuple(sorted(t.ports[1])))
    else:
        new = tuple(sorted(t.ports))
    return act_to(P, t, new)


# ---------------------------------------------------------------------------
# transporting decorations and the nerve action


def pull_decoration(P, incl, d: DecoratedGraph) -> DecoratedGraph:
    """Restrict a decoration along an embedding (e.g. a realization)."""
    from .graphs import UGraph

    g, h = incl.target, incl.source
    col_g = dict(d.coloring)
    dec_g = dict(d.decoration)
    undirected = isinstance(g, UGraph)
    if undirected:
        col_h = {x: col_g[incl.component[x]] for x in h.arcs}
    else:
        col_h = {x: col_g[incl.component[x]] for x in h.edges}
    dec_h = {}
    for v in h.vertices:
        w = incl.vertex_map[v]
        order_h = star_boundary_order(h, v)
        order_g = star_boundary_order(g, w)
        if undirected:
            sigma = tuple(order_g.index(incl.component[x]) for x in order_h)
        else:
            (ins_h, outs_h), (ins_g, outs_g) = order_h, order_g
            sigma = (
                tuple(ins_g.index(incl.component[e]) for e in ins_h),
                tuple(outs_g.index(incl.component[e]) for e in outs_h),
            )
        dec_h[v] = P.actions[(dec_g[w], sigma)]
    return decorated(h, col_h, dec_h)


def evaluate_region(P, d: DecoratedGraph, x):
    """Evaluate the sub-decoration carried by an embedding class x of the
    host; the resulting term's ports are host arcs (edges, directed)."""
    from .emb import realize

    k, incl = realize(x)
    dk = pull_decoration(P, incl, d)
    t = evaluate(P, dk)
    if P.directed:
        ins = tuple(("in", incl.component[e]) for (_, e) in t.ports[0])
        outs = tuple(("out", incl.component[e]) for (_, e) in t.ports[1])
        return Term(t.op, (ins, outs))
    ports = tuple(incl.component[a] for a in t.ports)
    return Term(t.op, ports)


def nerve_action(P, m, d: DecoratedGraph) -> DecoratedGraph:
    """Contravariant action of a graph map on decorations: color through
    phi0 and decorate each source vertex by evaluating its image region."""
    from .emb import vertex_element
    from .graphs import UGraph

    g = m.source
    col_t = dict(d.coloring)
    undirected = isinstance(g, UGraph)
    if undirected:
        col = {a: col_t[m.phi0[a]] for a in g.arcs}
    else:
        col = {e: col_t[m.phi0[e]] for e in g.edges}
    dec = {}
    for v in g.vertices:
        y = m.phi_hat[vertex_element(g, v)]
        t = evaluate_region(P, d, y)
        order = star_boundary_order(g, v)
        if undirected:
            new_ports = tuple(m.phi0[b] for b in order)
        else:
            ins, outs = order
            new_ports = (
                tuple(("in", m.phi0[e]) for e in ins),
                tuple(("out", m.phi0[e]) for e in outs),
            )
        moved = act_to(P, t, new_ports)
        if moved is None:
            fail("FlavorMismatch", f"region term does not match star of {v!r}")
        dec[v] = moved.op
    return decorated(g, col, dec)


# ---------------------------------------------------------------------------
# homs between free cyclic operads


def generator_op(P, h, v):
    """The canonical generator op of free_cyclic(h) at vertex v."""
    order = star_boundary_order(h, v)
    return "<" + ",".join(order) + ">"


def operad_homs(PH, h, PG, g):
    """All morphisms C(h) -> C(g): an involutive color map plus a
    color-compatible image operation per generator."""
    from .graphs import complete_slot_maps, extend_slot_map

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
    from .gmaps import extend_tree_map

    f0, images = hom
    phi1 = {v: subtree_of_op(PG, g, q) for v, q in images.items()}
    return extend_tree_map(h, g, f0, phi1)
