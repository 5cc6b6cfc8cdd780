import functools
import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looseends.config import OperadCaps, SiteBounds
from looseends.emb import enumerate_emb
from looseends.errors import LooseEndsError
from looseends.etale import enumerate_etale
from looseends.gen import gen_connected_dgraphs, gen_connected_ugraphs
from looseends.gmaps import enumerate_graph_maps, restrict_tree_map
from looseends.graphs import is_connected, make_star, shape
from looseends.operads import (
    FLAVORS,
    free_cyclic,
    io_presentation,
    monoid_dioperad,
    terminal_presentation,
    validate_presentation,
)
from looseends.presheaves import nerve_presheaf, orientation_presheaf, terminal_presheaf
from looseends.sites import build_site
from looseends.textio import (
    emb_from_text,
    emb_to_text,
    etale_to_text,
    graph_map_to_text,
    graph_to_text,
    operad_to_text,
    parse_etale,
    parse_graph_map,
    parse_graphs,
    parse_operad,
    parse_presheaf,
    presheaf_to_text,
    site_from_manifest,
    site_to_manifest,
    to_dot,
)
from strategies import connected_hosts

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


class TestGraphRoundTrip:
    @pytest.mark.parametrize(
        "fname",
        ["example18.graph", "four_cycle.graph", "theta.graph", "diamond.graph", "linear.graph"],
    )
    def test_parse_serialize_parse(self, fname):
        graphs = parse_graphs(fixture_text(fname))
        for g in graphs.values():
            text = graph_to_text(g)
            (g2,) = parse_graphs(text).values()
            assert g2 == g
            assert graph_to_text(g2) == text

    @settings(max_examples=50, deadline=None)
    @given(connected_hosts())
    def test_random_host(self, g):
        (g2,) = parse_graphs(graph_to_text(g)).values()
        assert g2 == g

    @settings(max_examples=150, deadline=None)
    @given(connected_hosts(), st.sampled_from(["drop", "duplicate", "swap"]), st.data())
    def test_single_line_mutations_fail_as_loose_ends_errors(self, g, kind, data):
        """A dropped token, a duplicated line or a pair/edge directive swapped
        for the other: the text parses, or fails with a LooseEndsError."""
        lines = graph_to_text(g).splitlines()
        swap = {"pair": "edge", "edge": "pair"}
        pool = [i for i, line in enumerate(lines) if kind != "swap" or line.split()[0] in swap]
        i = data.draw(st.sampled_from(pool))
        words = lines[i].split()
        if kind == "drop":
            del words[data.draw(st.integers(0, len(words) - 1))]
            lines[i] = " ".join(words)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = " ".join([swap[words[0]]] + words[1:])
        try:
            parse_graphs("\n".join(lines) + "\n")
        except LooseEndsError:
            pass

    def test_bad_token(self):
        with pytest.raises(LooseEndsError):
            parse_graphs("graph bad undirected\npair a@ b\n")

    def test_unknown_directive(self):
        with pytest.raises(LooseEndsError):
            parse_graphs("graph g undirected\nnonsense a b\n")

    def test_content_before_header_has_its_own_code(self):
        with pytest.raises(LooseEndsError) as ei:
            parse_graphs("pair a a*\ngraph g undirected\n")
        assert ei.value.code == "MissingGraphHeader"


class TestEmbRoundTrip:
    def test_all_elements(self, theta, diamond):
        for host in (theta, diamond):
            for x in enumerate_emb(host):
                assert emb_from_text(host, emb_to_text(x)) == x


class TestMapRoundTrip:
    def test_full_table(self, theta):
        maps = enumerate_graph_maps(make_star(2), theta)
        graphs = {"star2": make_star(2, name="star2"), "theta": theta}
        for m in maps[:5]:
            m2 = type(m)(graphs["star2"], theta, m.phi0, m.phi_hat, check=False)
            text = graph_map_to_text("probe", m2, category="U")
            name, parsed, cat = parse_graph_map(text, graphs)
            assert parsed.phi0 == m2.phi0
            assert parsed.phi_hat == m2.phi_hat

    def test_tree_shorthand(self):
        graphs = parse_graphs(fixture_text("linear.graph"))
        name, m, cat = parse_graph_map(fixture_text("degeneracy.map"), graphs)
        assert name == "collapse"
        assert cat == "Delta"
        assert m.phi0 == {"0": "0", "1": "0"}


class TestOperadRoundTrip:
    def test_flip(self):
        P = parse_operad(fixture_text("flip.operad"))
        text = operad_to_text(P)
        P2 = parse_operad(text)
        assert P2.compositions == P.compositions
        assert P2.actions == P.actions
        assert operad_to_text(P2) == text

    def test_terminal_and_free(self):
        for P in (
            terminal_presentation("modular", caps=OperadCaps(3, 16)),
            free_cyclic(make_star(2)),
        ):
            text = operad_to_text(P)
            P2 = parse_operad(text, caps=P.caps)
            assert P2.compositions == P.compositions
            assert P2.ops == P.ops
            assert P2.contractions == P.contractions


class TestSiteManifest:
    def test_round_trip(self):
        site = build_site("U0", SiteBounds(1, 3, 3))
        text = site_to_manifest(site)
        site2 = site_from_manifest(text)
        assert len(site2.objects) == len(site.objects)
        for (i, j), maps in site.homs.items():
            assert len(site2.hom(i, j)) == len(maps)
        assert site_to_manifest(site2) == text

    def test_presheaf_round_trip(self):
        site = build_site("U0", SiteBounds(1, 2, 2))
        for X in (terminal_presheaf(site), orientation_presheaf(site)):
            text = presheaf_to_text(X)
            X2 = parse_presheaf(text, site)
            assert X2.values == X.values
            assert X2.action == X.action
        with pytest.raises(LooseEndsError) as ei:
            parse_presheaf(f"presheaf X on site\nat {len(site.objects)}: 1\n", site)
        assert ei.value.code == "SiteTooSmall"


class TestDot:
    def test_stable_and_covers_boundary(self, theta, diamond):
        d1 = to_dot(theta)
        assert d1 == to_dot(theta)
        assert d1.count("tip") >= 2  # two legs
        d2 = to_dot(diamond)
        assert "rankdir=TB" in d2
        assert "->" in d2


class TestEtaleRoundTrip:
    def test_parse_serialize(self, theta):
        from looseends.etale import enumerate_etale
        from looseends.textio import etale_to_text, parse_etale

        star = make_star(4, name="star4")
        graphs = {"star4": star, "theta": theta}
        maps = enumerate_etale(star, theta)
        for m in maps[:3]:
            text = etale_to_text("probe", m)
            name, parsed = parse_etale(text, graphs)
            assert parsed == m


# sha256 of each writer's output over fixed inputs: the fixture graphs and
# the U(3,4,3) and D(3,4,3) pools, the manifests of three small sites (which
# write every hom-set map), the etale maps among the first six objects of
# each site, and eight operads
WRITER_PINS = {
    "graph_to_text": "7eb08e8dc92b9a9d775af740c7f120334279a9d8a425c5cff35e724fce34ff3c",
    "to_dot": "b5d35051c1ea5980dab8f9e4450d7ca67c3522e6f440fd98e6fedd073520af47",
    "emb_to_text": "f61aa3ec387f605f825eaa2aea2f4aa238fc0967282eaea54543274ad3ff9381",
    "site_to_manifest": "cb29882b4e5878b0cf09c44e130d89990a980fbc7761f3cf836f5fc881756b72",
    "etale_to_text": "7660406120a77dc09e63221a8d50268d7845c8ec75a5f1b75e19449e7b4de3c1",
    "operad_to_text": "9088ad43af237e146dff3b9ce19c9ad85ebf0748454ae5be300427929d32e967",
}


@functools.cache
def _pin_graphs():
    graphs = []
    for fname in sorted(os.listdir(FIXTURES)):
        if fname.endswith(".graph"):
            graphs.extend(parse_graphs(fixture_text(fname)).values())
    bounds = SiteBounds(3, 4, 3)
    return graphs + list(gen_connected_ugraphs(bounds)) + list(gen_connected_dgraphs(bounds))


@functools.cache
def _pin_sites():
    tags = (("U0", (1, 2, 2)), ("G", (1, 2, 2)), ("U", (2, 2, 3)))
    return [build_site(tag, SiteBounds(*bounds)) for tag, bounds in tags]


def _writer_outputs(writer):
    if writer == "graph_to_text":
        return [graph_to_text(g) for g in _pin_graphs()]
    if writer == "to_dot":
        return [to_dot(g) for g in _pin_graphs()]
    if writer == "emb_to_text":
        hosts = [g for g in _pin_graphs() if is_connected(g)]
        return [emb_to_text(x) + "\n" for g in hosts for x in enumerate_emb(g)]
    if writer == "site_to_manifest":
        return [site_to_manifest(site) for site in _pin_sites()]
    if writer == "etale_to_text":
        out = []
        for site in _pin_sites():
            objects = site.objects[:6]
            for g in objects:
                for h in objects:
                    maps = enumerate_etale(g, h)
                    out.extend(etale_to_text(f"e{k}", m) for k, m in enumerate(maps))
        return out
    caps = OperadCaps(3, 16)
    operads = [terminal_presentation(flavor, caps=caps) for flavor in FLAVORS]
    operads += [io_presentation(caps=caps), monoid_dioperad(), free_cyclic(make_star(3))]
    return [operad_to_text(P) for P in operads]


def _writer_digest(writer):
    return hashlib.sha256("".join(_writer_outputs(writer)).encode()).hexdigest()


@pytest.mark.parametrize("writer", sorted(WRITER_PINS))
def test_writer_bytes_are_pinned(writer):
    """Every writer's bytes over the pinned inputs, as sha256."""
    assert _writer_digest(writer) == WRITER_PINS[writer]


# ---------------------------------------------------------------------------
# the other parsers: round trips and single-line mutations on small sites


@functools.cache
def _fuzz_sites():
    return build_site("U0", SiteBounds(1, 2, 2)), build_site("G", SiteBounds(1, 2, 2))


def _fuzz_graphs(site):
    return {g.name: g for g in site.objects}


@functools.cache
def _fuzz_operads():
    caps = OperadCaps(2, 16)
    return (
        terminal_presentation("cyclic", caps=caps),
        terminal_presentation("dioperad", caps=caps),
        io_presentation(caps=caps),
        monoid_dioperad(),
        free_cyclic(make_star(2)),
    )


def _tree_shorthand(name, m, category):
    """A tree map written by its slot and vertex images, as degeneracy.map
    is, in place of its embmap table."""
    lines = graph_map_to_text(name, m, category).splitlines()
    rows = [f"vertex {v} |-> emb {emb_to_text(x)}" for v, x in restrict_tree_map(m)[1].items()]
    return "\n".join([line for line in lines if not line.startswith("embmap")] + rows) + "\n"


def _reread_map(graphs, text):
    return graph_map_to_text(*parse_graph_map(text, graphs))


def _reread_etale(graphs, text):
    return etale_to_text(*parse_etale(text, graphs))


def _reread_operad(caps, text):
    return operad_to_text(validate_presentation(parse_operad(text, caps=caps)))


def _reread_presheaf(site, text):
    return presheaf_to_text(parse_presheaf(text, site).validate())


def _reread_manifest(text):
    return site_to_manifest(site_from_manifest(text))


@functools.cache
def _fuzz_samples(fmt):
    """(text, read, want) triples: a text, the reader that reads it back (then
    checks it as the CLI does) and writes it again, and what read gives."""
    sites = _fuzz_sites()
    out = []
    if fmt in ("map", "tree-map"):
        for site in sites:
            read = functools.partial(_reread_map, _fuzz_graphs(site))
            for i, j, pos in site.all_refs():
                m, name = site.morph((i, j, pos)), f"m{i}_{j}_{pos}"
                text = want = graph_map_to_text(name, m, site.tag)
                if fmt == "tree-map":
                    if not (m.source.vertices and shape(m.source).is_tree):
                        continue
                    text = _tree_shorthand(name, m, site.tag)
                out.append((text, read, want))
    elif fmt == "etale":
        for site in sites:
            read = functools.partial(_reread_etale, _fuzz_graphs(site))
            for g in site.objects:
                for h in site.objects:
                    out += [(etale_to_text("f", m), read, None) for m in enumerate_etale(g, h)]
    elif fmt == "operad":
        for P in _fuzz_operads():
            out.append((operad_to_text(P), functools.partial(_reread_operad, P.caps), None))
    elif fmt == "presheaf":
        site = sites[0]
        read = functools.partial(_reread_presheaf, site)
        nerve = nerve_presheaf(_fuzz_operads()[0], site)
        for X in (terminal_presheaf(site), orientation_presheaf(site), nerve):
            out.append((presheaf_to_text(X), read, None))
    else:
        out += [(site_to_manifest(site), _reread_manifest, None) for site in sites]
    # a writer's own text reads back to itself
    return [(text, read, want or text) for text, read, want in out]


FORMATS = ["map", "tree-map", "etale", "operad", "presheaf", "manifest"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_other_formats_round_trip(fmt):
    """Each writer's text reads back and writes again to the same bytes; a
    tree map's shorthand reads back to its full table."""
    samples = _fuzz_samples(fmt)
    assert samples
    for text, read, want in samples:
        assert read(text) == want


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["drop", "duplicate", "rename"]), st.data())
def test_other_formats_single_line_mutations(fmt, kind, data):
    """A dropped token, a duplicated line, or a token renamed to a name no
    graph, color or morphism has: the text reads back (and passes the
    checks the CLI makes), or fails with a LooseEndsError."""
    text, read, _ = data.draw(st.sampled_from(_fuzz_samples(fmt)))
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    words = lines[i].split()
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif words:
        k = data.draw(st.integers(0, len(words) - 1))
        if kind == "drop":
            del words[k]
        else:
            words[k] = "zz"
        lines[i] = " ".join(words)
    try:
        read("\n".join(lines) + "\n")
    except LooseEndsError:
        pass
