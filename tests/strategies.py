"""Hypothesis strategies shared by the test modules."""

import functools

from hypothesis import strategies as st

from looseends.gen import _build, _vertex_multisets
from looseends.graphs import DGraph, UGraph, ends_connected


@functools.cache
def bundles(k, directed, arity=3, internal=5):
    """The connected bundles of at most `internal` internal edges on k
    vertices, no vertex meeting more than arity of them, with each
    vertex's degree."""
    return [
        (bundle, degree)
        for bundle, degree in _vertex_multisets(k, internal, arity, directed)
        if ends_connected(bundle, k)
    ]


@st.composite
def connected_hosts(draw, arity=3):
    """A connected host of either flavor on 4 or 5 vertices, past A03's
    three, built as gen builds its graphs: a bundle of internal edges, then
    loose legs (inputs and outputs when directed) up to the arity."""
    directed, k = draw(st.booleans()), draw(st.integers(4, 5))
    bundle, degree = draw(st.sampled_from(bundles(k, directed)))
    if not directed:
        return _build(UGraph, k, bundle, [draw(st.integers(0, arity - d)) for d in degree])
    pend = []
    for d in degree:
        pi = draw(st.integers(0, arity - d))
        pend.append((pi, draw(st.integers(0, arity - d - pi))))
    return _build(DGraph, k, bundle, pend)
