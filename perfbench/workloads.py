"""The four benchmark workloads, driven through the public API of ``looseends``.

Each workload class is built with ``(seed, batch, tick)``; the constructor
is the set-up (input generation, prebuilt sites), which calls ``tick()``
between its steps, and ``run(rec)`` is the measured
phase, which hands every checked item to ``rec.check`` under a label that
names the item.  Every batch of a run checks the same items, which depend
on the seed alone; the batch index draws only names and order.  Expected
answers come from the repository's independent oracles or from the
acceptance texts, never from the fast path that is being timed.  README.md
says why each workload exists.
"""

from __future__ import annotations

import random

from looseends import emb as E
from looseends import gmaps as GM
from looseends.config import OperadCaps, SiteBounds
from looseends.extraction import presentation_from_segal
from looseends.gen import gen_connected_dgraphs, gen_connected_ugraphs, gen_trees_u
from looseends.graphs import UGraph, relabel_dgraph, relabel_ugraph
from looseends.operads import (
    enumerate_decorations,
    free_cyclic,
    io_presentation,
    monoid_dioperad,
    validate_presentation,
)
from looseends.presheaves import (
    doubled_value_fixture,
    is_segal,
    kan_formula_matches_oracle,
    left_kan_formula,
    limit_families_bruteforce,
    nerve_presheaf,
    orientation_presheaf,
    representable,
    restrict_presheaf,
    segal_map,
    terminal_presheaf,
)
from looseends.sites import build_elements_site, build_site

A04_BOUNDS = SiteBounds(4, 6, 3)
# A03's host domain.  At A04's bounds the oracle takes 10-16 s on each
# undirected 4-vertex host with 6 edges, and over 40 s on the closed ones.
A03_BOUNDS = SiteBounds(3, 6, 3)

# A05's sites.  Object and map counts of U and elsU are the acceptance
# figures; the others were recorded from the library when this benchmark
# was written.
SITES = {
    "U": ("U", SiteBounds(2, 3, 3)),
    "U0": ("U0", SiteBounds(2, 4, 3)),
    "Ucyc": ("Ucyc", SiteBounds(2, 4, 3)),
    "Delta": ("Delta", SiteBounds(4, 5, 2)),
    "G": ("G", SiteBounds(2, 3, 3)),
}
ELEMENTS = {"elsU": ("U", False), "elsU0": ("U0", False), "elsOmega": ("Ucyc", True)}
SITE_COUNTS = {
    "U": (20, 881),
    "U0": (10, 233),
    "Ucyc": (8, 219),
    "Delta": (5, 456),
    "G": (32, 491),
    "elsU": (133, 7489),
    "elsU0": (55, 1979),
    "elsOmega": (16, 493),
}
# the category each site's factorization middles must lie in (A05)
MIDDLE_CLASS = {
    "U": "U", "U0": "U0", "Ucyc": "Ucyc", "Delta": "Delta", "G": "G",
    "elsU": "O", "elsU0": "O0", "elsOmega": "Omega",
}
TREES_U = 41
HOSTS = 592


def _rng(name, seed, *salt):
    return random.Random(":".join(map(str, (name, seed) + salt)))


def _spaced(items, k):
    """k items at evenly spaced positions of a list (all if k is larger)."""
    k = min(k, len(items))
    return [items[int((j + 0.5) * len(items) / k)] for j in range(k)]


def _strata_sample(keyed, size):
    """Systematic stratified sample of about ``size`` items from
    (stratum, order, item) triples.  Each stratum gives a share proportional
    to its size, at least one item, taken at evenly spaced positions along
    ``order`` so that the sample spans the stratum's range."""
    strata = {}
    for key, order, item in keyed:
        strata.setdefault(key, []).append((order, item))
    out = []
    for key in sorted(strata):
        items = [item for _, item in sorted(strata[key])]
        out.extend(_spaced(items, max(1, round(size * len(items) / len(keyed)))))
    return out


def _size(g):
    """Vertex, edge and boundary counts: the order within a stratum."""
    if isinstance(g, UGraph):
        return len(g.vertices), len(g.edges()), len(g.boundary)
    return len(g.vertices), len(g.edges), len(g.graph_inputs) + len(g.graph_outputs)


def _relabel(g, rng):
    """An isomorphic copy of g whose arc (or edge) and vertex names carry a
    seeded prefix.  The names keep their relative order, so searches that
    go by sorted names visit candidates in the same order for every seed."""
    prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4)) + "_"
    arcs = g.arcs if isinstance(g, UGraph) else g.edges
    arc_map = {a: prefix + a for a in arcs}
    vertex_map = {v: prefix + v for v in g.vertices}
    if isinstance(g, UGraph):
        return relabel_ugraph(g, arc_map, vertex_map)
    return relabel_dgraph(g, arc_map, vertex_map)


def _has_pinned_counts(site, key):
    return (len(site.objects), sum(len(v) for v in site.homs.values())) == SITE_COUNTS[key]


class TreeMaps:
    """Ordered pairs of the 41 trees of A04; item = one pair.

    The pairs are a fixed systematic stratified selection (see README.md
    for why the seed does not choose them); the seed and batch index draw
    the names of every tree and the order in which the pairs are checked."""

    def __init__(self, seed, batch, tick=lambda: None, pairs=30):
        trees = gen_trees_u(A04_BOUNDS)
        tick()
        if len(trees) != TREES_U:
            raise RuntimeError(f"expected {TREES_U} trees, got {len(trees)}")
        keyed = [
            ((len(h.vertices), len(g.vertices)), (_size(h), _size(g)), (a, b))
            for a, h in enumerate(trees)
            for b, g in enumerate(trees)
        ]
        self.pairs = _strata_sample(keyed, pairs)
        rng = _rng("tree-maps", seed, batch)
        rng.shuffle(self.pairs)
        self.trees = [_relabel(g, rng) for g in trees]
        # the hosts' Emb posets are shared by all pairs: fill them in set-up
        # so that no item pays for them depending on the order
        for g in self.trees:
            E.enumerate_emb(g)
            tick()

    def run(self, rec):
        for a, b in self.pairs:
            rec.check(f"pair {a}->{b}", self.check_pair, self.trees[a], self.trees[b])

    @staticmethod
    def check_pair(h, g):
        """A04: restriction then extension is the identity on maps, the
        restrictions are distinct, and maps preserve subtree intersections."""
        h_elems = E.enumerate_emb(h)
        overlapping = [(s, t) for s in h_elems for t in h_elems if E.overlap(s, t)]
        maps = GM.enumerate_graph_maps(h, g)
        data = set()
        for m in maps:
            phi0, phi1 = GM.restrict_tree_map(m)
            if GM.extend_tree_map(h, g, phi0, phi1) != m:
                return False
            data.add((tuple(sorted(phi0.items())), tuple(sorted(phi1.items(), key=repr))))
            for s, t in overlapping:
                image = E.intersect_subtrees(m.phi_hat[s], m.phi_hat[t])
                if image is None or m.phi_hat[E.intersect_subtrees(s, t)] != image:
                    return False
        return len(data) == len(maps)


class EmbOracle:
    """Connected hosts of both flavors; item = one host.

    The hosts are a fixed systematic stratified selection of A03's domain,
    and the seed and batch index draw names and order, as in ``TreeMaps``.
    Each batch is a fresh interpreter, so every host is new to it."""

    def __init__(self, seed, batch, tick=lambda: None, hosts=60):
        pool = gen_connected_ugraphs(A03_BOUNDS)
        tick()
        pool += gen_connected_dgraphs(A03_BOUNDS)
        tick()
        if len(pool) != HOSTS:
            raise RuntimeError(f"expected {HOSTS} hosts, got {len(pool)}")
        keyed = [
            ((type(g).__name__, len(g.vertices)), (_size(g), i), i)
            for i, g in enumerate(pool)
        ]
        self.sample = _strata_sample(keyed, hosts)
        rng = _rng("emb-oracle", seed, batch)
        rng.shuffle(self.sample)
        self.hosts = {i: _relabel(pool[i], rng) for i in self.sample}

    def run(self, rec):
        for i in self.sample:
            rec.check(f"host {i}", self.check_host, self.hosts[i])

    @staticmethod
    def check_host(g):
        """A03's bijection against the brute-force oracle, plus the order
        laws: every union of x and y lies above both, and the whole graph
        lies above every class."""
        elems = E.enumerate_emb(g)
        top = E.id_element(g)
        for x in elems:
            if not E.leq(x, top):
                return False
            for y in elems:
                E.leq(x, y)
                for z in E.unions(x, y):
                    if not (E.leq(x, z) and E.leq(y, z)):
                        return False
        classes = E.oracle_embedding_classes(g)
        recovered = {E.class_of_embedding(m) for m in classes}
        return len(classes) == len(elems) and recovered == set(elems)


def _build_sites(keys, tick):
    """A05's sites by key; an elements site's base must come before it."""
    sites = {}
    for key in keys:
        if key in SITES:
            sites[key] = build_site(*SITES[key])
        else:
            base, rooted = ELEMENTS[key]
            sites[key] = build_elements_site(sites[base], rooted_only=rooted)
        tick()
    return sites


class SiteFactorize:
    """A05's sites, prebuilt in set-up; then their pinned counts, and
    factorize at evenly spaced places in each site's list of morphisms, in
    seeded order; item = one morphism (or one site's counts).  README.md
    says why the site builds belong to set-up."""

    KEYS = ("U", "U0", "Ucyc", "Delta", "G", "elsU", "elsU0", "elsOmega")

    def __init__(self, seed, batch, tick=lambda: None, per_site=60):
        self.sites = _build_sites(self.KEYS, tick)
        self.rng = _rng("site-factorize", seed)
        self.per_site = per_site

    def run(self, rec):
        todo = []
        for key in self.KEYS:
            # an elements site's morphisms are those of its directed part
            site = self.sites[key].directed if key in ELEMENTS else self.sites[key]
            rec.check(f"site {key}", _has_pinned_counts, site, key)
            todo += [(key, site, ref) for ref in _spaced(list(site.all_refs()), self.per_site)]
        self.rng.shuffle(todo)
        for key, site, ref in todo:
            rec.check(f"{key} {ref}", self.check_morphism, site.morph(ref), MIDDLE_CLASS[key])

    @staticmethod
    def check_morphism(m, tag):
        """A05: iota . alpha recomposes to m, alpha is active, iota inert,
        and the middle object lies in the site's category."""
        alpha, iota = GM.factorize(m)
        return (
            GM.compose(iota, alpha, check=True) == m
            and GM.is_active(alpha)
            and GM.is_inert(iota)
            and GM.object_in_category(alpha.target, tag)
        )


def _battery(sites):
    """A07's presentation battery on the small sites, as (label,
    presentation, site) triples.  README.md says why ``modular/U``,
    ``wheeled/elsU`` and ``flip/Delta`` are left out."""
    cyc_tree = next(g for g in sites["Ucyc"].objects if g.vertices)
    cyclic = free_cyclic(cyc_tree, caps=OperadCaps(6, 24))
    cyclic.flavor = "cyclic"
    return [
        ("io/U0", io_presentation(caps=OperadCaps(4, 16)), sites["U0"]),
        ("flip/elsU0", monoid_dioperad(), sites["elsU0"].directed),
        ("freeCyclic/U0", free_cyclic(sites["U0"].objects[-1], caps=OperadCaps(6, 24)), sites["U0"]),
        ("cyclic/Ucyc", cyclic, sites["Ucyc"]),
    ]


class NerveKan:
    """Nerves, Segal maps, Kan extension and extraction on prebuilt sites;
    item = one (presheaf, object) check.  The Kan formula is checked at base
    objects evenly spaced in order of size; the seed draws the order of
    those checks."""

    KEYS = ("U0", "Ucyc", "elsU0", "elsOmega")
    # (elements site, battery label of its nerve or None for a fresh flip
    # nerve, whether the site is rooted-only), as A08
    KAN = (
        ("elsU0", "flip/elsU0", False),
        ("elsOmega", None, True),
    )
    # undirected nerves for the extraction round trip
    EXTRACT = ("freeCyclic/U0", "cyclic/Ucyc")

    def __init__(self, seed, batch, tick=lambda: None, kan_objects=5, battery=None):
        self.sites = _build_sites(self.KEYS, tick)
        self.rng = _rng("nerve-kan", seed)
        self.kan_objects = kan_objects
        self.only = battery

    def run(self, rec):
        sites = self.sites
        nerves = {}
        for label, P, site in _battery(sites):
            if self.only is not None and label not in self.only:
                continue
            rec.check(f"validate {label}", validate_presentation, P)
            X = nerve_presheaf(P, site)
            nerves[label] = (X, P.flavor)
            for i in range(len(site.objects)):
                rec.check(f"segal {label} @{i}", self.check_segal, X, i)
        for key, nerve_label, rooted in self.KAN:
            els = sites[key]
            battery = [terminal_presheaf(els.directed), representable(els.directed, 0)]
            if nerve_label in nerves:
                battery.append(nerves[nerve_label][0])
            elif nerve_label is None:
                battery.append(nerve_presheaf(monoid_dioperad(), els.directed))
            objs = els.base.objects
            by_size = sorted(range(len(objs)), key=lambda i: (_size(objs[i]), i))
            kan = [(Z, i) for Z in battery for i in _spaced(by_size, self.kan_objects)]
            self.rng.shuffle(kan)
            for Z, i in kan:
                rec.check(f"kan {key} {Z.name} @{i}", kan_formula_matches_oracle, els, Z, i)
            for Z in battery:
                rec.check(f"kan transfer {key} {Z.name}", self.check_transfer, els, Z)
            rec.check(f"restrict {key}", self.check_restrict, els, rooted)
        for label in self.EXTRACT:
            if label in nerves:
                rec.check(f"extract {label}", self.check_extract, *nerves[label])

    @staticmethod
    def check_segal(X, i):
        """A07: every nerve in the battery is Segal; the Segal map's image is
        the limit as the brute-force product filter computes it."""
        mapping, bijective = segal_map(X, i)
        return bijective and set(mapping.values()) == set(limit_families_bruteforce(X, i))

    @staticmethod
    def check_transfer(els, Z):
        """A08: left Kan extension along the forgetful functor keeps Segal."""
        return not is_segal(Z)[0] or is_segal(left_kan_formula(els, Z))[0]

    @staticmethod
    def check_restrict(els, rooted):
        """A08: restriction keeps the orientation presheaf Segal and the
        doubled-value fixture non-Segal; f_!1 counts orientations, or
        rootings (boundary arcs) on a rooted-only site."""
        o = orientation_presheaf(els.base)
        bad, _ = doubled_value_fixture(els.base)
        f1 = left_kan_formula(els, terminal_presheaf(els.directed))
        counts = all(
            len(f1.value(i)) == (len(g.boundary) if rooted else len(o.value(i)))
            for i, g in enumerate(els.base.objects)
        )
        return (
            counts
            and is_segal(o)[0]
            and is_segal(restrict_presheaf(els, o))[0]
            and not is_segal(bad)[0]
            and not is_segal(restrict_presheaf(els, bad))[0]
        )

    @staticmethod
    def check_extract(X, flavor):
        """Extraction round trip: the presentation read off a Segal nerve has
        as many decorations of every site object as the nerve has values."""
        Q = presentation_from_segal(X, flavor)
        return all(
            len(enumerate_decorations(Q, g)) == len(X.value(i))
            for i, g in enumerate(X.site.objects)
        )


WORKLOADS = {
    "tree-maps": TreeMaps,
    "site-factorize": SiteFactorize,
    "nerve-kan": NerveKan,
    "emb-oracle": EmbOracle,
}
