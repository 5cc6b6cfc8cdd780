import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looseends.config import OperadCaps, SiteBounds
from looseends.emb import enumerate_emb
from looseends.errors import LooseEndsError
from looseends.gmaps import enumerate_graph_maps
from looseends.graphs import make_star
from looseends.operads import free_cyclic, terminal_presentation
from looseends.presheaves import orientation_presheaf, terminal_presheaf
from looseends.sites import build_site
from looseends.textio import (
    emb_from_text,
    emb_to_text,
    graph_map_to_text,
    graph_to_text,
    operad_to_text,
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
