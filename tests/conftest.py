import random

import hypothesis
import pytest

from looseends.config import SiteBounds
from looseends.graphs import UGraph, validate_dgraph, validate_ugraph
from looseends.sites import build_site

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


def star_pairs(n):
    return [(str(i), f"{i}*") for i in range(1, n + 1)]


@pytest.fixture
def example18() -> UGraph:
    """Four vertices u,v,w,x; nine edges; a loop at w and one free edge."""
    pairs = [(str(i), f"{i}*") for i in range(1, 10)]
    incidence = [
        ("u", ["1*"]),
        ("v", ["3*", "4", "6*", "8", "7"]),
        ("w", ["4*", "5", "5*", "6"]),
        ("x", ["8*", "9"]),
    ]
    return validate_ugraph("example18", pairs, incidence)


@pytest.fixture
def four_cycle():
    """Square: vertices a,b,c,d in a cycle, no loose ends."""
    pairs = [(e, f"{e}*") for e in ("ab", "bc", "cd", "da")]
    incidence = [
        ("a", ["ab", "da*"]),
        ("b", ["ab*", "bc"]),
        ("c", ["bc*", "cd"]),
        ("d", ["cd*", "da"]),
    ]
    return validate_ugraph("four_cycle", pairs, incidence)


@pytest.fixture
def theta():
    """Two vertices joined by three parallel edges, one leg at each vertex."""
    pairs = [(x, f"{x}*") for x in ("e", "f", "g", "p", "q")]
    incidence = [
        ("u", ["e", "f", "g", "p*"]),
        ("v", ["e*", "f*", "g*", "q*"]),
    ]
    return validate_ugraph("theta", pairs, incidence)


@pytest.fixture
def loop_with_legs():
    """One vertex with a loop and two legs."""
    pairs = [("l", "l*"), ("p", "p*"), ("q", "q*")]
    incidence = [("v", ["l", "l*", "p*", "q*"])]
    return validate_ugraph("loop_with_legs", pairs, incidence)


@pytest.fixture
def diamond():
    """u -> v by two parallel edges, a global input at u and output at v."""
    return validate_dgraph(
        "diamond",
        ["e0", "e1", "e2", "e3"],
        [("u", ["e0"], ["e1", "e2"]), ("v", ["e1", "e2"], ["e3"])],
    )


# The sites whose hom-sets are checked against the reference search, with
# how many of their pairs of objects to check (None: all): the five base
# sites of acceptance criterion A05, O and Omega, whose closures add
# objects, and a seeded sample of the pairs of U past desk scale.
DIFFERENTIAL_SITES = {
    "U": ("U", SiteBounds(2, 3, 3), None),
    "U0": ("U0", SiteBounds(2, 4, 3), None),
    "Ucyc": ("Ucyc", SiteBounds(2, 4, 3), None),
    "Delta": ("Delta", SiteBounds(4, 5, 2), None),
    "G": ("G", SiteBounds(2, 3, 3), None),
    "O": ("O", SiteBounds(2, 3, 3), None),
    "Omega": ("Omega", SiteBounds(3, 4, 3), None),
    "U(3,4,3)": ("U", SiteBounds(3, 4, 3), 300),
}


@pytest.fixture(scope="session", params=list(DIFFERENTIAL_SITES))
def differential_site(request):
    """(tag, site, pairs (i, j) of object indices to check), built once
    per session for the tests of test_gmaps and test_sites that share it."""
    tag, bounds, sample = DIFFERENTIAL_SITES[request.param]
    site = build_site(tag, bounds)
    n = len(site.objects)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if sample is not None:
        pairs = sorted(random.Random(request.param).sample(pairs, sample))
    return tag, site, pairs
