"""The exhaustive generators: their output pinned byte for byte, and equal
to that of the generator that lists every candidate."""

import hashlib

import pytest

from looseends import gen
from looseends.config import SiteBounds
from looseends.gen import gen_connected_dgraphs, gen_connected_ugraphs, gen_trees_u
from looseends.graphs import (
    canonical_signature,
    ends_connected,
    ends_signature,
    make_edge,
    make_edge_dir,
    shape,
)
from looseends.textio import graph_to_text

GENERATORS = {
    "ugraphs": gen_connected_ugraphs,
    "dgraphs": gen_connected_dgraphs,
    "trees": gen_trees_u,
}

PINNED_BOUNDS = [
    (0, 2, 3),
    (1, 0, 3),
    (1, 3, 3),
    (2, 4, 3),
    (2, 5, 4),
    (3, 4, 2),
    (3, 6, 3),
    (4, 5, 2),
    (4, 6, 3),
]

# (count, sha256 of the (name, text) of each graph in order) per generator
# and bounds
PINS = {
    "dgraphs": {
        (0, 2, 3): (1, "e8867459e7393e79944a94d3319c3ea9ad1c0c1f5184b8918e0a0db1bd0e89ee"),
        (1, 0, 3): (1, "4b79c223812993c487f098cb090da5d6b7fe8861f002294e483c79b2551fd777"),
        (1, 3, 3): (14, "6fb79c3d7a83b18c38c56851753c8c7c0c854dec80683e52760e5bd5d97357ba"),
        (2, 4, 3): (71, "a3c34474e016d158a8de4e14f7a3e08347d355b00176d176425eec23c4214170"),
        (2, 5, 4): (219, "0e69be1782780d9aa0a75b7971be2bdc839ef2aded8b2a483fc48e474d097f12"),
        (3, 4, 2): (42, "26c336cb0d94258b4abad09e3cf375a4b8e104b5027f308933c4c44976867922"),
        (3, 6, 3): (538, "2be09bfe01dc75d84ac1ac2bb00ed711bc7b005fac59819ce99eb8849907b364"),
        (4, 5, 2): (82, "361f31b0cfcea6c2cfa1672df87be38e7acb380171be2322a519a29ea6176c56"),
        (4, 6, 3): (2346, "94f31c21001569ceec85dd87584c4836f8b9041f8a3230f63e8feca32d9ef68b"),
    },
    "trees": {
        (0, 2, 3): (1, "d244ae160e5ffc0677ebb130d62ae8d64124407ebde17e0f9b2ca7dc359e53ba"),
        (1, 0, 3): (1, "86717a667f2eeca251cac970e0431c307f8c286a04ad17068a8ad00ef0393052"),
        (1, 3, 3): (5, "0258ca471379ec341c5946b407f825b9dcec43ea1ce2ee51c175bf780294ad44"),
        (2, 4, 3): (10, "78c2e4da56925706543989a8290e250948adf7b74a7337bd357d66ef1d5f2bbd"),
        (2, 5, 4): (14, "063e0001c0da522ec9533e9c085e64bac1898c22a4089cf04d8f9537925b5474"),
        (3, 4, 2): (10, "fd1d47a6fbc1b2ac89157af51540c768dd0cb80e039ca7373b556d58f4a7f177"),
        (3, 6, 3): (22, "e0f6fa6e02168be16f1d3de012aab7536a6b90b3e3f6bec276d9b6e423d95570"),
        (4, 5, 2): (13, "11326243fc8b7130a534fd08c8ef5a68b59b50367edfe9aa6f70cd23c07f5d5f"),
        (4, 6, 3): (41, "ed73e3771af7e63fd5e57b1f2a7e232bc3490ca77f9c934c83bf825d8ae15d30"),
    },
    "ugraphs": {
        (0, 2, 3): (1, "d244ae160e5ffc0677ebb130d62ae8d64124407ebde17e0f9b2ca7dc359e53ba"),
        (1, 0, 3): (1, "86717a667f2eeca251cac970e0431c307f8c286a04ad17068a8ad00ef0393052"),
        (1, 3, 3): (7, "1d56ec2a29af32a1ba6bbbb9939bbaba135350f750bf045db1f88b9ea0aa61b8"),
        (2, 4, 3): (20, "828d78c8ce2dcb5477aa5bed9b8cc713a42212183d703e6fc6dfe3d9cdae9202"),
        (2, 5, 4): (41, "0e2833208206e60a6e2374dd3c94cf4fb9c2519529a505b3f1f42a7cac67a908"),
        (3, 4, 2): (13, "e4a916cc52ab32fc0b4e7e2ec8d9ced6053480763885b577538f4c630b14b5a4"),
        (3, 6, 3): (54, "0b5ba4302cd8b51a2a41dc6e84c6a78af69e6c3ff32c557bfe97f61145a41c97"),
        (4, 5, 2): (17, "f1e7ba02b959a8e2c4b9fd186bfafeb9ee758da5de7295ca9187b3b904f9e711"),
        (4, 6, 3): (131, "4619f11f4d807c6ac05781be07f9dd91ca2f429a655f528d174419de3d01ab91"),
    },
}


def _digest(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr((g.name, graph_to_text(g))).encode())
    return len(graphs), digest.hexdigest()


@pytest.mark.parametrize("bounds", PINNED_BOUNDS)
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generator_output_is_pinned(kind, bounds):
    """Names, texts and order of every generated graph, which the site
    builds, A03, A04 and the benchmark's inputs all start from."""
    assert _digest(GENERATORS[kind](SiteBounds(*bounds))) == PINS[kind][bounds]


def _reference(bounds, lone, pendants):
    """The reference generator: every connected bundle of internal edges with
    every pendant choice, a signature for each, the first graph kept per
    signature, sorted by it."""
    cls, directed = type(lone), lone.directed
    found = {canonical_signature(lone)[0]: lone} if bounds.max_edges >= 1 else {}
    for k in range(1, bounds.max_vertices + 1):
        vs = [f"v{i}" for i in range(k)]
        for bundle, deg in gen._vertex_multisets(
            k, bounds.max_edges, bounds.max_arity, directed
        ):
            if not ends_connected(bundle, k):
                continue
            spare = [bounds.max_arity - d for d in deg]
            for pend in pendants(spare, bounds.max_edges - len(bundle)):
                sig = ends_signature(gen._ends(directed, vs, bundle, pend), vs, cls.end_sides)[0]
                if sig not in found:
                    found[sig] = gen._build(cls, k, bundle, pend)
    return [found[sig] for sig in sorted(found)]


# lone edge, pendant choices and whether only trees are kept, per generator
FLAVORS = {
    "ugraphs": (make_edge(), gen._legs, False),
    "dgraphs": (make_edge_dir(), gen._inputs_and_outputs, False),
    "trees": (make_edge(), gen._legs, True),
}

DIFFERENTIAL_CASES = [(kind, bounds) for kind in sorted(GENERATORS) for bounds in PINNED_BOUNDS]
DIFFERENTIAL_CASES += [("ugraphs", (5, 6, 3)), ("trees", (5, 6, 3))]


@pytest.mark.parametrize(
    "kind, bounds",
    DIFFERENTIAL_CASES,
    ids=[f"{kind}-{'-'.join(map(str, b))}" for kind, b in DIFFERENTIAL_CASES],
)
def test_generator_matches_the_full_candidate_list(kind, bounds):
    """The generator, which expands one candidate per iso class, builds the
    same graphs in the same order as the reference, which signs every
    candidate (the trees: the reference's graphs that shape calls trees);
    and no two of its candidates share a signature."""
    bounds, (lone, pendants, trees) = SiteBounds(*bounds), FLAVORS[kind]
    out = GENERATORS[kind](bounds)
    expected = [g for g in _reference(bounds, lone, pendants) if not trees or shape(g).is_tree]
    assert [(g.name, graph_to_text(g)) for g in out] == [
        (g.name, graph_to_text(g)) for g in expected
    ]
    signatures = [canonical_signature(lone)[0]] if bounds.max_edges >= 1 else []
    for k, bundle, pend in gen._candidates(bounds, lone.directed, pendants, trees):
        vs = [f"v{i}" for i in range(k)]
        ends = gen._ends(lone.directed, vs, bundle, pend)
        signatures.append(ends_signature(ends, vs, type(lone).end_sides)[0])
    assert len(set(signatures)) == len(signatures) == len(out)
