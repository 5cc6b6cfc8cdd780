import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from looseends.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(capsys):
    code, out = run(capsys, "validate", fx("example18.graph"))
    assert code == 0
    assert "boundary: 1 2 2* 3 7* 9*" in out


def test_emb_reports_star_boundary(capsys):
    code, out = run(capsys, "emb", fx("example18.graph"), "--json")
    assert code == 0
    data = json.loads(out)
    rows = {r["element"]: r["boundary"] for r in data["data"]["elements"]}
    assert rows["{vertices w}"] == "4 5 5* 6*"


def test_unions_counts(capsys):
    code, out = run(
        capsys,
        "unions",
        fx("four_cycle.graph"),
        "--pair",
        "{vertices a b; uncut ab}",
        "{vertices c d; uncut cd}",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["data"]["count"] == 3
    code, out = run(
        capsys,
        "unions",
        fx("theta.graph"),
        "--pair",
        "{vertices u v; uncut g}",
        "{vertices u v; uncut g}",
        "--json",
    )
    assert json.loads(out)["data"]["count"] == 4


def test_reports_byte_identical(capsys):
    _, out1 = run(capsys, "emb", fx("theta.graph"), "--json")
    _, out2 = run(capsys, "emb", fx("theta.graph"), "--json")
    assert out1 == out2


def test_graph_reports_are_pinned(capsys):
    """emb, ssb and validate --json on every fixture graph: a sha256 of the
    successful reports, with the error code of each failing one."""
    from looseends.textio import parse_graphs

    digest = hashlib.sha256()
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".graph"):
            continue
        with open(fx(name)) as fh:
            graphs = sorted(parse_graphs(fh.read()))
        runs = [("validate", fx(name))]
        runs += [(cmd, fx(name), "--graph", g) for g in graphs for cmd in ("emb", "ssb")]
        for argv in runs:
            status, out = run(capsys, *argv, "--json")
            body = json.loads(out)
            text = out if status == 0 else body["error"]
            digest.update(f"{argv[0]} {name} {argv[3:]} {status}\n{text}".encode())
    assert digest.hexdigest() == (
        "15ae57ec57a7139b27abae07b3f5bfb7b19744b824a2b2e8cf33005b329de6ee"
    )


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph bad undirected\npair a a\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert "FixpointInvolution" in out


def test_usage_error_exit_code(capsys):
    code = main(["no-such-command"])  # argparse exits with 2
    assert code == 2 or code is None


def test_missing_file_exit_code(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/path.graph")
    assert code == 2


def test_map_check_and_factorize(tmp_path, capsys):
    code, out = run(
        capsys, "map-check", fx("degeneracy.map"), fx("linear.graph"), "--json"
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["active"] is True and data["in_category"] is True
    code, out = run(
        capsys, "factorize", fx("degeneracy.map"), fx("linear.graph"), "--json"
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_operad_and_free_cyclic(capsys):
    code, out = run(capsys, "operad-check", fx("flip.operad"), "--json")
    assert code == 0
    code, out = run(
        capsys, "free-cyclic", fx("four_cycle.graph"), "--json"
    )
    assert code == 1  # not a tree
    assert "NotATree" in out


def test_ssb_diamond(capsys):
    code, out = run(capsys, "ssb", fx("diamond.graph"), "--json")
    data = json.loads(out)["data"]
    assert data["emb_count"] == 9
    assert len(data["structured"]) == 7
    assert "{vertices u v; uncut e1}" not in data["structured"]


def test_orient_and_export(tmp_path, capsys):
    code, out = run(
        capsys, "orient", fx("four_cycle.graph"), "--plus", "ab,bc,cd,da"
    )
    assert code == 0
    code, out = run(
        capsys, "export-dot", fx("diamond.graph"), "--outdir", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "diamond.dot").exists()


def test_site_and_kan(tmp_path, capsys):
    manifest = tmp_path / "site.json"
    code, _ = run(
        capsys,
        "site-build",
        "--category",
        "U0",
        "--vertices",
        "1",
        "--edges",
        "3",
        "-o",
        str(manifest),
    )
    assert code == 0
    code, out = run(
        capsys,
        "kan",
        "--site",
        str(manifest),
        "--presheaf",
        "terminal",
        "--json",
    )
    assert code == 0
    rows = json.loads(out)["data"]["objects"]
    assert all(r["matches_oracle"] for r in rows)
    by_name = {r["object"]: r["summands"] for r in rows}
    assert max(by_name.values()) == 8  # the 3-edge star: 2^3 orientations


def test_oracle_commands(capsys):
    code, out = run(capsys, "oracle", "emb", fx("loop_star.graph"), "--json")
    assert code == 0
    assert json.loads(out)["data"]["agree"]
    code, out = run(capsys, "oracle", "shape", fx("theta.graph"), "--json")
    assert json.loads(out)["data"]["agree"]


def test_oracle_etale_counts_maps_from_loose_edges(tmp_path, capsys):
    """Two loose edges into the 3-star: each edge takes any of six arcs."""
    path = tmp_path / "two.graph"
    path.write_text(
        "graph a_two undirected\npair a a*\npair b b*\n"
        "graph b_star undirected\npair 1 1*\npair 2 2*\npair 3 3*\nvertex v 1 2 3\n"
    )
    code, out = run(capsys, "oracle", "etale", str(path), "--json")
    assert code == 0
    assert json.loads(out)["data"] == {"source": "a_two", "target": "b_star", "maps": 36}


def test_workspace_root_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOOSEENDS_ROOT", FIXTURES)
    code, out = run(capsys, "validate", "theta.graph")
    assert code == 0


def test_compose_cli(tmp_path, capsys):
    from looseends.gmaps import identity_map
    from looseends.graphs import make_linear
    from looseends.textio import graph_map_to_text, graph_to_text

    l1 = make_linear(1)
    ident = tmp_path / "ident.map"
    ident.write_text(graph_map_to_text("ident", identity_map(l1), category="Delta"))
    code, out = run(
        capsys,
        "compose",
        fx("degeneracy.map"),
        str(ident),
        fx("linear.graph"),
        "--json",
    )
    assert code == 0
    body = json.loads(out)
    assert body["ok"]
    assert "composite : L1 -> L0" in body["data"]["composite"]


@pytest.mark.parametrize(
    "case",
    [
        "directory",
        "not_utf8",
        "non_integer",
        "unknown_key",
        "negative_flag",
        "oracle_without_pair",
        "oracle_pair_without_comma",
        "orient_without_choice",
    ],
)
def test_bad_input_exits_2(case, tmp_path, capsys):
    cfg = tmp_path / "settings.cfg"
    manifest = tmp_path / "site.json"
    site_build = ["site-build", "--category", "U0", "-o", str(manifest)]
    if case == "directory":
        argv = ["validate", FIXTURES]
    elif case == "not_utf8":
        binary = tmp_path / "binary.graph"
        binary.write_bytes(b"graph g undirected\n\xff\xfe\n")
        argv = ["validate", str(binary)]
    elif case == "non_integer":
        cfg.write_text("budget_nodes = abc\n")
        argv = site_build + ["--config", str(cfg)]
    elif case == "unknown_key":
        cfg.write_text("bogus_key = 3\n")
        argv = site_build + ["--config", str(cfg)]
    elif case == "negative_flag":
        argv = site_build + ["--vertices", "-1"]
    elif case == "oracle_without_pair":
        argv = ["oracle", "treemaps", fx("linear.graph")]
    elif case == "oracle_pair_without_comma":
        argv = ["oracle", "etale", fx("linear.graph"), "--graph", "L0"]
    else:
        argv = ["orient", fx("four_cycle.graph")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not manifest.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["emb", fx("linear.graph")], "AmbiguousGraph"),
        (["emb", fx("linear.graph"), "--graph", "L9"], "UnknownGraph"),
        (["oracle", "treemaps", fx("linear.graph"), "--graph", "L0,L9"], "UnknownGraph"),
    ],
)
def test_graph_choice_error_codes(argv, code, capsys):
    status, out = run(capsys, *argv, "--json")
    assert status == 1
    assert json.loads(out)["error"] == code


@pytest.mark.parametrize(
    "command, options",
    [
        (["emb"], []),
        (["free-cyclic"], []),
        (["ssb"], []),
        (["unions"], ["--pair", "{vertices a}", "{vertices b}"]),
        (["orient"], ["--plus", "ab"]),
        (["oracle", "emb"], []),
        (["oracle", "etale"], []),
        (["oracle", "shape"], []),
    ],
)
def test_a_file_without_graphs_fails_no_graph(command, options, tmp_path, capsys):
    """A graph file whose only line is a comment fails NoGraph, not
    AmbiguousGraph and not an IndexError traceback."""
    empty = tmp_path / "empty.graph"
    empty.write_text("# no graph here\n")
    status, out = run(capsys, *command, str(empty), *options, "--json")
    assert status == 1
    assert json.loads(out)["error"] == "NoGraph"


def test_nerve_written_for_segal(tmp_path, capsys):
    """A nerve written with -o is a presheaf file that segal reads back."""
    manifest, nerve = tmp_path / "delta.json", tmp_path / "flip.psh"
    code, _ = run(capsys, "site-build", "--category", "Delta", "-o", str(manifest))
    assert code == 0
    code, out = run(
        capsys, "nerve", fx("flip.operad"), "--site", str(manifest), "-o", str(nerve), "--json"
    )
    assert code == 0
    assert json.loads(out)["data"]["values"] == {"0": 1, "1": 2, "2": 4}
    code, out = run(capsys, "segal", str(nerve), "--site", str(manifest), "--json")
    assert code == 0
    assert json.loads(out)["data"] == {"presheaf": "N(flip)", "segal": True}


def test_u_manifest_round_trip(tmp_path, capsys):
    """A U manifest names realized cut tips with "~"; it reads back, the
    nerve written on it is the nerve of the site built in memory, and segal
    finds every elementary cover in it."""
    from looseends.config import OperadCaps, SiteBounds
    from looseends.operads import terminal_presentation
    from looseends.presheaves import nerve_presheaf
    from looseends.sites import build_site
    from looseends.textio import (
        operad_to_text,
        parse_presheaf,
        site_from_manifest,
        site_to_manifest,
    )

    manifest, operad, nerve = tmp_path / "u.json", tmp_path / "mod.operad", tmp_path / "n.psh"
    P = terminal_presentation("modular", caps=OperadCaps(4, 16))
    operad.write_text(operad_to_text(P))
    argv = ["site-build", "--category", "U", "--vertices", "2", "--edges", "2"]
    code, _ = run(capsys, *argv, "-o", str(manifest))
    assert code == 0
    text = manifest.read_text()
    assert "~" in text
    site = site_from_manifest(text)
    assert site_to_manifest(site) == text
    code, out = run(
        capsys, "nerve", str(operad), "--site", str(manifest), "-o", str(nerve), "--json"
    )
    assert code == 0
    X = parse_presheaf(nerve.read_text(), site)
    X.validate()
    built = nerve_presheaf(P, build_site("U", SiteBounds(2, 2, 3)))
    assert [len(v) for v in X.values.values()] == [len(v) for v in built.values.values()]
    assert X.values == nerve_presheaf(P, site).values
    code, out = run(capsys, "segal", str(nerve), "--site", str(manifest), "--json")
    assert code == 0
    assert json.loads(out)["data"] == {"presheaf": "N(terminal-modular)", "segal": True}


ARROW, EDGE = "graph D directed\nedge e\n", "graph E undirected\npair a a*\n"


@pytest.mark.parametrize(
    "objects, tag, status, code",
    [
        ([], "U", 0, None),
        ([ARROW, EDGE], "U", 1, "FlavorMismatch"),
        ([EDGE], "X", 1, "UnknownCategory"),
    ],
    ids=["empty", "mixed-flavors", "unknown-tag"],
)
def test_nerve_reads_every_manifest_object(objects, tag, status, code, tmp_path, capsys):
    """A site with no objects has an empty nerve; a manifest object whose
    flavor is not its tag's fails FlavorMismatch, whatever comes first, and
    a tag that names no category UnknownCategory; never a traceback."""
    manifest = tmp_path / "site.json"
    manifest.write_text(json.dumps({"homs": {}, "objects": objects, "tag": tag, "version": 1}))
    result = main(["nerve", fx("flip.operad"), "--site", str(manifest), "--json"])
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert (result, captured.err, body.get("error")) == (status, "", code)
    assert code is not None or body["data"]["values"] == {}


@pytest.fixture(scope="module")
def u0_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("site") / "u0.json"
    argv = ["site-build", "--category", "U0", "--vertices", "1", "--edges", "1", "-o", str(path)]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize(
    "command, text, code",
    [
        ("operad-check", "operad X\n", "MalformedLine"),
        ("operad-check", "operad X flavor cyclic\nops c -> c: 1\n", "MalformedLine"),
        ("operad-check", "operad X flavor cyclic\ncompose 1 0\n", "MalformedLine"),
        ("segal", 'presheaf X on s\nat zero: "*"\n', "MalformedLine"),
        ("segal", 'presheaf X on s\nalong m9_9_9: "*" |-> "*"\n', "SiteTooSmall"),
        ("segal", 'presheaf X on s\nat 0 "*"\n', "MalformedLine"),
        ("segal", 'presheaf X of s\n', "MalformedLine"),
        ("validate", "graph g sideways\n", "MalformedLine"),
        ("validate", "graph g undirected\nvertex\n", "MalformedLine"),
        ("validate", "graph g directed\npair a b\n", "MalformedLine"),
        ("map-check", "edge 0 |-> 1\n", "MalformedLine"),
        ("map-check", "map m : L1 -> L1\nbogus 0\n", "MalformedLine"),
        ("map-check", "map m : theta -> theta\narc zz |-> e\n", "UnknownArc"),
        ("map-check", "map m : theta -> theta\narc e |-> qq\n", "UnknownArc"),
        ("map-check", "map m : theta -> nowhere\n", "UnknownGraph"),
        ("map-check", "map m : L1 -> L1\nedge 0 |-> 0 and more\n", "MalformedLine"),
        (
            "map-check",
            "map m : theta -> theta\nembmap {vertices zz} |-> {vertices u}\n",
            "UnknownVertex",
        ),
        ("map-check", "map m : theta -> theta\nvertex u |-> emb {edge zz}\n", "UnknownArc"),
        ("map-check", "map m : L1 -> L1 in XYZ\n", "UnknownCategory"),
    ],
    ids=[
        "operad-header",
        "ops-profile",
        "compose",
        "at-object",
        "along-morphism",
        "at-colon",
        "presheaf-header",
        "graph-header",
        "graph-vertex",
        "graph-flavor",
        "map-before-header",
        "map-directive",
        "map-source-slot",
        "map-target-slot",
        "map-graph",
        "map-trailing-text",
        "map-embmap",
        "map-vertex",
        "map-category",
    ],
)
def test_malformed_line_is_named(command, text, code, u0_manifest, tmp_path, capsys):
    """A line a text reader cannot read fails with an error code naming
    that line (the last one here), never with a traceback."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    graph_files = [fx("linear.graph"), fx("theta.graph")]
    extra = {"segal": ["--site", str(u0_manifest)], "map-check": graph_files}
    status, out = run(capsys, command, str(path), *extra.get(command, []), "--json")
    body = json.loads(out)
    assert status == 1
    assert body["error"] == code
    assert f"line {text.count(chr(10))}:" in body["detail"]


def test_error_names_its_code_once(tmp_path, capsys):
    """A failure reports its code in "error" and its message alone in
    "detail"; the text report is "error <code>: <message>"."""
    path = tmp_path / "headless.operad"
    path.write_text("colors c\n")
    status, out = run(capsys, "operad-check", str(path), "--json")
    body = json.loads(out)
    assert status == 1
    assert (body["error"], body["detail"]) == ("MalformedLine", "no operad header")
    status, out = run(capsys, "operad-check", str(path))
    assert status == 1
    assert out == "error MalformedLine: no operad header\n"


@pytest.mark.parametrize(
    "kind, text, code",
    [
        ("map", "\n", "MalformedLine"),
        ("etale", "vertex 1 |-> 1\n", "MalformedLine"),
        ("etale", "etale f : L1 -> L1\nbogus 0\n", "MalformedLine"),
        ("presheaf", 'at 0: "*"\n', "MalformedLine"),
        ("etale", "vertex 1 |-> 1\netale f : L1 -> L1\n", "MalformedLine"),
        ("etale", "etale f : L1 -> L1\nedge zz |-> 0\n", "UnknownEdge"),
        ("etale", "etale f : L1 -> nowhere\n", "UnknownGraph"),
    ],
    ids=[
        "map-header",
        "etale-header",
        "etale-directive",
        "presheaf-header",
        "etale-before-header",
        "etale-slot",
        "etale-graph",
    ],
)
def test_text_readers_name_malformed_lines(kind, text, code):
    """A missing map, etale or presheaf header, an etale file's line that no
    pattern reads or that comes before its header, fail MalformedLine, and
    an etale slot its source lacks fails UnknownEdge and a header naming an
    absent graph UnknownGraph; no command reads etale files, so the readers
    are called directly."""
    from looseends.errors import LooseEndsError
    from looseends.graphs import make_linear
    from looseends.sites import Site
    from looseends.textio import parse_etale, parse_graph_map, parse_presheaf

    graphs = {"L1": make_linear(1)}
    read = {
        "map": lambda t: parse_graph_map(t, graphs),
        "etale": lambda t: parse_etale(t, graphs),
        "presheaf": lambda t: parse_presheaf(t, Site("Delta", [graphs["L1"]], {})),
    }[kind]
    with pytest.raises(LooseEndsError) as ei:
        read(text)
    assert ei.value.code == code


@pytest.mark.parametrize(
    "manifest, presheaf, code, detail",
    [
        ("{\n", None, "MalformedLine", "site manifest"),
        ("[1]\n", None, "MalformedLine", "not a JSON dict"),
        ('{"version": 1, "tag": "U0", "homs": {}}\n', None, "MalformedLine", "objects"),
        ("0-0", None, "MalformedLine", "'0-0'"),
        ('{"version": 2}\n', None, "MalformedLine", "version"),
        (None, 'presheaf X on s\nalong m0_0_0: "*" |-> "*"\n', "NotFunctorial", "object 0"),
    ],
    ids=["not-json", "not-object", "no-objects", "hom-key", "version", "no-value"],
)
def test_bad_manifest_or_presheaf_is_named(
    manifest, presheaf, code, detail, u0_manifest, tmp_path, capsys
):
    """A site manifest segal cannot read, and a presheaf with no value at an
    object, fail with a named code and nothing on stderr; "0-0" stands for
    the U0 manifest with its hom key "0->0" written so."""
    site = tmp_path / "site.json"
    if manifest == "0-0":
        manifest = u0_manifest.read_text().replace('"0->0"', '"0-0"')
    site.write_text(manifest or u0_manifest.read_text())
    path = tmp_path / "input.psh"
    path.write_text(presheaf or 'presheaf X on s\nat 0: "*"\n')
    status = main(["segal", str(path), "--site", str(site), "--json"])
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert status == 1
    assert (body["error"], captured.err) == (code, "")
    assert detail in body["detail"]


def test_kan_checks_a_presheaf_it_reads(u0_manifest, tmp_path, capsys):
    """kan fails a presheaf with no value at an object before using it,
    with a named code and nothing on stderr."""
    path = tmp_path / "z.psh"
    path.write_text('presheaf Z on s\nat 0: "*"\n')
    argv = ["kan", "--site", str(u0_manifest)]
    status = main(argv + ["--presheaf", str(path), "--json"])
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert status == 1
    assert (body["error"], captured.err) == ("NotFunctorial", "")
    assert "no value at object 1" in body["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["orient", fx("diamond.graph"), "--plus", "e0"],
        ["orient", fx("diamond.graph"), "--root", "e0"],
        ["kan"],
        ["elements-check"],
    ],
    ids=["orient-plus", "orient-root", "kan", "elements-check"],
)
def test_directed_input_to_orientations_fails_flavor_mismatch(argv, tmp_path, capsys):
    """Orienting, rooting or taking the elements of a directed graph or
    site fails FlavorMismatch with exit 1, never with a traceback."""
    if argv[0] != "orient":
        manifest = tmp_path / "delta.json"
        site_build = ["site-build", "--category", "Delta", "--vertices", "1", "--edges", "2"]
        assert main(site_build + ["-o", str(manifest)]) == 0
        argv = argv + ["--site", str(manifest)]
    capsys.readouterr()
    status = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert status == 1
    assert json.loads(captured.out)["error"] == "FlavorMismatch"
    assert captured.err == ""


@pytest.mark.parametrize(
    "tag, functor", [("U", "O-to-U"), ("U0", "O0-to-U0"), ("Ucyc", "Omega-to-Ucyc")]
)
def test_kan_reports_the_functor_into_the_sites_category(tag, functor, tmp_path, capsys):
    """Each undirected category is the target of one forgetful functor
    (O-to-U, O0-to-U0, Omega-to-Ucyc), so kan reads the functor off the
    manifest's tag and names it in its report."""
    manifest = tmp_path / "site.json"
    site_build = ["site-build", "--category", tag, "--vertices", "1", "--edges", "1"]
    assert main(site_build + ["-o", str(manifest)]) == 0
    capsys.readouterr()
    status = main(["kan", "--site", str(manifest), "--json"])
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert (status, captured.err) == (0, "")
    assert body["data"]["functor"] == functor
    assert all(row["matches_oracle"] for row in body["data"]["objects"])


def test_segal_names_a_presheaf_that_is_no_functor(u0_manifest, tmp_path, capsys):
    """A presheaf file whose identity moves one element is no functor, and
    segal fails NotFunctorial, naming the law and not the site."""
    from looseends.presheaves import orientation_presheaf
    from looseends.textio import presheaf_to_text, site_from_manifest

    site = site_from_manifest(u0_manifest.read_text())
    X = orientation_presheaf(site)
    i = next(i for i in range(len(site.objects)) if len(X.value(i)) > 1)
    x, y = X.value(i)[:2]
    X.action[site.identity_ref(i)][x] = y
    path = tmp_path / "moved.psh"
    path.write_text(presheaf_to_text(X))
    status = main(["segal", str(path), "--site", str(u0_manifest), "--json"])
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert status == 1
    assert (body["error"], captured.err) == ("NotFunctorial", "")
    assert body["detail"] == f"identity acts nontrivially at {i}"


@pytest.mark.parametrize("index", ["999", "3", "-1"])
def test_kan_object_out_of_range_exits_2(index, u0_manifest, capsys):
    """kan --object names a base object by its index 0..n-1 (U0 at these
    bounds has three); any other index is a usage error."""
    argv = ["kan", "--site", str(u0_manifest), "--object", index]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == f"error: --object must be in 0..2, got {index}\n"


def test_factorize_report_reads_back(tmp_path, capsys):
    """The middle and both maps of a factorize report read back, and
    map-check finds each in the input map's category."""
    shift = tmp_path / "shift.map"
    shift.write_text(
        "map shift : L1 -> L2 in Delta\n"
        "edge 0 |-> 1\nedge 1 |-> 2\nvertex 1 |-> emb {vertices 2}\n"
    )
    middles = []
    for source in (fx("degeneracy.map"), str(shift)):
        code, out = run(capsys, "factorize", source, fx("linear.graph"), "--json")
        assert code == 0
        data = json.loads(out)["data"]
        middle = tmp_path / "middle.graph"
        middle.write_text(data["middle"])
        middles.append(data["middle"].split()[1])
        for part in ("active", "inert"):
            path = tmp_path / f"{part}.map"
            path.write_text(data[part])
            code, out = run(
                capsys, "map-check", str(path), fx("linear.graph"), str(middle), "--json"
            )
            body = json.loads(out)
            assert code == 0 and body["ok"]
            assert body["data"][part] is True and body["data"]["in_category"] is True
    assert middles == ["L0|0", "L2|1v"]


def test_site_build_out_of_budget_names_the_search(capsys):
    """A site build that runs out of search nodes exits 1 and names the
    active search and the pair it was on."""
    status, out = run(capsys, "site-build", "--category", "U0", "--budget", "5", "--json")
    body = json.loads(out)
    assert status == 1
    assert body["error"] == "SearchBudgetExceeded"
    assert body["detail"].startswith("enumerate_active_maps U0")


@pytest.fixture(scope="module")
def pin_inputs(u0_manifest, tmp_path_factory):
    """The inputs of the pinned reports: the U0 manifest, a Delta manifest
    at two vertices and three edges, a presheaf on it with a doubled value
    (not Segal), and a one-vertex undirected tree."""
    from looseends.presheaves import doubled_value_fixture
    from looseends.textio import presheaf_to_text, site_from_manifest

    root = tmp_path_factory.mktemp("pins")
    delta = root / "delta.json"
    argv = ["site-build", "--category", "Delta", "--vertices", "2", "--edges", "3"]
    assert main(argv + ["-o", str(delta)]) == 0
    bad, _ = doubled_value_fixture(site_from_manifest(delta.read_text()))
    (root / "bad.psh").write_text(presheaf_to_text(bad))
    (root / "tree.graph").write_text("graph t undirected\npair a a*\npair b b*\nvertex v a b\n")
    return {"u0": str(u0_manifest), "delta": str(delta), "root": str(root)}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, text, json_digest",
    [
        (
            ["extend-tree-map", fx("degeneracy.map"), fx("linear.graph")],
            "map: map collapse : L1 -> L0 in Delta\nedge 0 |-> 0\nedge 1 |-> 0\n"
            "embmap {edge 0} |-> {edge 0}\nembmap {edge 1} |-> {edge 0}\n"
            "embmap {vertices 1} |-> {edge 0}\n\n",
            "73eef96e06f4d15a41a6d88d676c5ec19c549a571dc4e14e788e5ddf8e180cce",
        ),
        (
            ["elements-check", "--site", "{u0}"],
            "objects: 5\nhom_pairs: 25\nmismatches:\n",
            "d097d91d6bb66729316f9c9ca061b5625fb1585ad1d67fbc91c1512adc54ab1b",
        ),
        (
            ["oracle", "treemaps", fx("linear.graph"), "--graph", "L1,L2"],
            "maps: 6\nextension_round_trips: 6\n",
            "5cc1aa833f490f290528d2f939e933199484f5516a9ed26cc36ed93286629d50",
        ),
        (
            ["oracle", "shape", fx("diamond.graph")],
            "graph: diamond\nagree: True\n",
            "31c95feeb22b62104b21c920bf160eb2a449f962a1eda934edcecf3945c7ce29",
        ),
        (
            ["nerve", fx("flip.operad"), "--site", "{delta}", "--segal"],
            "operad: flip\nvalues:\n  0: 1\n  1: 2\n  2: 4\nsegal: True\n",
            "fe1657539f7d43bd637180d4721a77d0fa1ba0c97ae2e88fe9b7c04cd6c7bc4f",
        ),
        (
            ["site-build", "--category", "U0", "--vertices", "1", "--edges", "1"],
            "b39f971e0cb026c7c8bc8bfc10129ad1647206136797f16a9f3cc278dba70e69",
            "d8511624099f28d4b78325a6d1d8cdb6e4c6509fb13c16f66d0f0fbfeb0e4bc5",
        ),
        (
            ["kan", "--site", "{u0}", "--object", "1"],
            "functor: O0-to-U0\nobjects:\n    object: U01\n    summands: 1\n"
            "    matches_oracle: True\n",
            "c3cc3933947fa19f9ec73ba670f51ebad408b4e2e3cd55e724d57a49ff85f37e",
        ),
        (
            ["free-cyclic", "{root}/tree.graph"],
            "aa8837fa7194b30641c9bb5eb9c5048b74547470fd2aba9581fb1045391c4f4f",
            "75fab402e05bff0d313bc803025ee8bc87b116420437b12ea0b59d6c69a0f6c9",
        ),
        (
            ["segal", "{root}/bad.psh", "--site", "{delta}"],
            "presheaf: 1+dup\nsegal: False\nviolation:\n  object: 2\n  name: Delta2\n",
            "b25d9777b742f95053031b8cd691e10d66ae792e152b212e9d55a21d6960d9dc",
        ),
    ],
    ids=[
        "extend-tree-map",
        "elements-check",
        "oracle-treemaps",
        "oracle-shape-directed",
        "nerve-segal",
        "site-build-stdout",
        "kan-object",
        "free-cyclic",
        "segal-violation",
    ],
)
def test_command_reports_are_pinned(argv, text, json_digest, pin_inputs, capsys):
    """The text report (in full, or its sha256 where it is long) and the
    sha256 of the JSON report of a successful run of each command path that
    no other test runs; none of these reports names an input path."""
    argv = [a.format(**pin_inputs) for a in argv]
    status, out = run(capsys, *argv)
    assert status == 0
    assert (out if "\n" in text else sha256(out)) == text
    status, out = run(capsys, *argv, "--json")
    assert status == 0
    assert sha256(out) == json_digest


SETTINGS = {
    "validate": ["--json"],
    "emb": ["--json"],
    "unions": ["--json"],
    "ssb": ["--json"],
    "map-check": ["--json"],
    "compose": ["--json"],
    "factorize": ["--json"],
    "extend-tree-map": ["--json"],
    "operad-check": ["--json", "--config"],
    "free-cyclic": ["--json", "--config"],
    "site-build": ["--json", "--config", "--budget", "--vertices", "--edges", "--arity"],
    "nerve": ["--json", "--config"],
    "segal": ["--json"],
    "orient": ["--json"],
    "kan": ["--json"],
    "elements-check": ["--json"],
    "export-dot": ["--json"],
    "oracle": ["--json", "--config", "--budget"],
}


def test_each_command_takes_only_the_settings_it_reads(capsys):
    """--json, --config, --budget and the site bounds are declared on the
    commands that read them (28 pairs) and not on the top-level parser; a
    setting a command does not read, or one put before the command, exits 2."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    names = {flag for flags in SETTINGS.values() for flag in flags}
    declared = {
        name: [s for a in p._actions for s in a.option_strings if s in names]
        for name, p in sub.choices.items()
    }
    assert declared == SETTINGS
    assert sum(map(len, declared.values())) == 28
    assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]
    graph = fx("theta.graph")
    for argv in (["--json", "validate", graph], ["validate", graph, "--budget", "5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


def test_site_build_rejects_an_unknown_category(capsys):
    """--category takes one of the category tags; any other is a usage error."""
    assert main(["site-build", "--category", "XYZ"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'XYZ'" in captured.err


def test_factorize_rejects_an_unknown_category(tmp_path, capsys):
    """A map header naming an unknown category fails on that line, so
    factorize does not write it back out."""
    path = tmp_path / "xyz.map"
    path.write_text("map m : L1 -> L1 in XYZ\nedge 0 |-> 0\nedge 1 |-> 1\n")
    status, out = run(capsys, "factorize", str(path), fx("linear.graph"))
    assert status == 1
    assert out == "error UnknownCategory: line 1: unknown category 'XYZ'\n"


def _subprocess_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cold_start_imports_no_dataclasses():
    """Every command starts a fresh interpreter, so the package keeps clear
    of dataclasses and the inspect, ast, dis and tokenize modules it pulls
    in: they cost more than the rest of the import."""
    code = "import sys, looseends, looseends.cli; print(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "looseends.cli" in out.stdout.split()
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out.stdout.split())


def test_closed_pipe_exits_quietly():
    """A reader that closes the pipe after one line of a report far longer
    than the pipe holds gets that line; the command exits with its own
    status and writes nothing to stderr."""
    env = _subprocess_env()
    for extra in ([], ["--json"]):
        argv = [sys.executable, "-m", "looseends.cli", "site-build", "--category", "U", *extra]
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert first == ("{\n" if extra else "manifest: {\n")
        assert err == ""
