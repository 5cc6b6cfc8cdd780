"""Command line interface: file ingestion, command dispatch, reports.

Exit codes: 0 success, 1 validation failure, 2 usage error (including an
unreadable input file or a bad setting).  Reports are plain text by default
or a versioned JSON document with --json; both are byte-stable across runs
for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import Budget, OperadCaps, SiteBounds
from .errors import LooseEndsError
from . import emb as emb_mod
from . import graphs as graphs_mod
from . import textio

REPORT_SCHEMA = 1

# config file keys and their defaults; every setting is a count
CONFIG_DEFAULTS = {
    "budget_nodes": Budget().nodes,
    "site_vertices": 2,
    "site_edges": 4,
    "site_arity": 3,
    "operad_arity": 4,
    "operad_ops": 16,
}


class UsageError(Exception):
    """A malformed setting; reported like an unreadable file, with exit 2."""


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        payload = args.func(args)
    except LooseEndsError as e:
        emit(args, {"ok": False, "error": e.code, "detail": e.message})
        return 1
    except (OSError, UnicodeDecodeError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    emit(args, {"ok": True, "data": payload})
    return 0


def emit(args, body):
    body = {"schema": REPORT_SCHEMA, "command": args.command, **body}
    if getattr(args, "json", False):
        print(json.dumps(body, indent=1, sort_keys=True, default=repr))
        return
    if not body["ok"]:
        print(f"error {body['error']}" + (f": {body['detail']}" if body["detail"] else ""))
        return
    _print_text(body.get("data"))


def _print_text(data, indent=""):
    if isinstance(data, dict):
        for k in data:
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _print_text(v, indent + "  ")
            else:
                print(f"{indent}- {v}")
    elif data is not None:
        print(f"{indent}{data}")


def workspace_path(path):
    root = os.environ.get("LOOSEENDS_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def read_file(path):
    with open(workspace_path(path)) as fh:
        return fh.read()


def _count(name, raw):
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None
    if n < 0:
        raise UsageError(f"{name} must not be negative, got {n}")
    return n


def load_config(args):
    settings = dict(CONFIG_DEFAULTS)
    cfg = getattr(args, "config", None)
    if cfg:
        for raw in read_file(cfg).splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_DEFAULTS:
                raise UsageError(f"unknown config key {key!r} in {cfg}")
            settings[key] = _count(key, val.strip())
    # flags win over the config file
    for key, attr in (
        ("budget_nodes", "budget"),
        ("site_vertices", "vertices"),
        ("site_edges", "edges"),
        ("site_arity", "arity"),
    ):
        v = getattr(args, attr, None)
        if v is not None:
            settings[key] = _count(f"--{attr}", v)
    budget = Budget(nodes=settings["budget_nodes"])
    bounds = SiteBounds(
        max_vertices=settings["site_vertices"],
        max_edges=settings["site_edges"],
        max_arity=settings["site_arity"],
    )
    caps = OperadCaps(
        max_arity=settings["operad_arity"],
        max_ops_per_profile=settings["operad_ops"],
    )
    return budget, bounds, caps


def load_graphs(paths):
    graphs = {}
    for p in paths:
        graphs.update(textio.parse_graphs(read_file(p)))
    return graphs


def pick_graph(graphs, name):
    if name:
        if name not in graphs:
            raise LooseEndsError("UnknownGraph", f"no graph named {name!r}")
        return graphs[name]
    if len(graphs) != 1:
        raise LooseEndsError("AmbiguousGraph", "several graphs in file; use --graph")
    return next(iter(graphs.values()))


def pick_graph_pair(graphs, spec):
    """The source and target graphs named by --graph SOURCE,TARGET."""
    names = (spec or "").split(",")
    if len(names) != 2 or not all(names):
        raise UsageError(f"--graph must be SOURCE,TARGET, got {spec!r}")
    return [pick_graph(graphs, n) for n in names]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    graphs = load_graphs(args.files)
    rows = []
    for name in sorted(graphs):
        g = graphs[name]
        s = graphs_mod.shape(g)
        row = {
            "graph": name,
            "kind": "directed" if isinstance(g, graphs_mod.DGraph) else "undirected",
            "vertices": len(g.vertices),
            "edges": len(g.edge_keys),
            "connected": s.is_connected,
            "tree": s.is_tree,
        }
        if isinstance(g, graphs_mod.DGraph):
            row["acyclic"] = s.is_acyclic
            row["inputs"] = " ".join(g.graph_inputs)
            row["outputs"] = " ".join(g.graph_outputs)
        else:
            row["boundary"] = " ".join(g.boundary)
        rows.append(row)
    return rows


def cmd_emb(args):
    graphs = load_graphs(args.files)
    g = pick_graph(graphs, args.graph)
    rows = []
    if graphs_mod.is_connected(g):
        elements = emb_mod.enumerate_emb(g)
        note = None
    else:
        elements = emb_mod.enumerate_emb_pieces(g)
        note = "host is disconnected; listing edge and region classes"
    for x in elements:
        row = {"element": textio.emb_to_text(x)}
        if isinstance(g, graphs_mod.UGraph):
            row["boundary"] = " ".join(emb_mod.boundary(x))
        else:
            ins, outs = emb_mod.in_out(x)
            row["in"] = " ".join(ins)
            row["out"] = " ".join(outs)
        rows.append(row)
    out = {"graph": g.name, "count": len(rows), "elements": rows}
    if note:
        out["note"] = note
    return out


def cmd_unions(args):
    graphs = load_graphs(args.files)
    g = pick_graph(graphs, args.graph)
    x = textio.emb_from_text(g, args.pair[0])
    y = textio.emb_from_text(g, args.pair[1])
    us = emb_mod.unions(x, y)
    return {
        "graph": g.name,
        "count": len(us),
        "unions": [textio.emb_to_text(z) for z in us],
    }


def cmd_ssb(args):
    graphs = load_graphs(args.files)
    g = pick_graph(graphs, args.graph)
    rows = [textio.emb_to_text(x) for x in emb_mod.enumerate_ssb(g)]
    total = len(emb_mod.enumerate_emb(g))
    return {"graph": g.name, "structured": rows, "emb_count": total}


def cmd_map_check(args):
    from . import gmaps

    graphs = load_graphs(args.graphs)
    name, m, category = textio.parse_graph_map(read_file(args.map), graphs)
    out = {
        "map": name,
        "source": m.source.name,
        "target": m.target.name,
        "active": gmaps.is_active(m),
        "inert": gmaps.is_inert(m),
    }
    if category:
        out["in_category"] = gmaps.morphism_in_category(m, category)
    return out


def cmd_compose(args):
    from . import gmaps

    graphs = load_graphs(args.graphs)
    _, outer, outer_cat = textio.parse_graph_map(read_file(args.maps[0]), graphs)
    _, inner, inner_cat = textio.parse_graph_map(read_file(args.maps[1]), graphs)
    m = gmaps.compose(outer, inner, check=True)
    category = outer_cat if outer_cat == inner_cat else None
    return {"composite": textio.graph_map_to_text("composite", m, category=category)}


def cmd_factorize(args):
    from . import gmaps

    graphs = load_graphs(args.graphs)
    name, m, category = textio.parse_graph_map(read_file(args.map), graphs)
    alpha, iota = gmaps.factorize(m)
    return {
        "map": name,
        "middle": textio.graph_to_text(alpha.target),
        "active": textio.graph_map_to_text(f"{name}.active", alpha, category=category),
        "inert": textio.graph_map_to_text(f"{name}.inert", iota, category=category),
    }


def cmd_extend_tree_map(args):
    graphs = load_graphs(args.graphs)
    name, m, category = textio.parse_graph_map(read_file(args.map), graphs)
    return {"map": textio.graph_map_to_text(name, m, category=category or "U0")}


def cmd_operad_check(args):
    from .operads import validate_presentation

    _, _, caps = load_config(args)
    P = textio.parse_operad(read_file(args.operad), caps=caps)
    validate_presentation(P)
    return {
        "operad": P.name,
        "flavor": P.flavor,
        "colors": len(P.colors),
        "operations": len(P.op_profile),
        "valid": True,
    }


def cmd_free_cyclic(args):
    from .operads import free_cyclic

    _, _, caps = load_config(args)
    graphs = load_graphs(args.files)
    g = pick_graph(graphs, args.graph)
    P = free_cyclic(g, caps=caps)
    return {"operad": textio.operad_to_text(P)}


def cmd_site_build(args):
    from .sites import build_site

    budget, bounds, _ = load_config(args)
    site = build_site(args.category, bounds, budget)
    text = textio.site_to_manifest(site)
    if args.output:
        with open(workspace_path(args.output), "w") as fh:
            fh.write(text)
        return {
            "category": args.category,
            "objects": len(site.objects),
            "written": args.output,
        }
    return {"manifest": text}


def cmd_nerve(args):
    from .operads import validate_presentation
    from .presheaves import is_segal, nerve_presheaf

    _, _, caps = load_config(args)
    site = textio.site_from_manifest(read_file(args.site))
    P = validate_presentation(textio.parse_operad(read_file(args.operad), caps=caps))
    n = nerve_presheaf(P, site)
    out = {
        "operad": P.name,
        "values": {i: len(n.value(i)) for i in range(len(site.objects))},
    }
    if args.segal:
        verdict, report = is_segal(n)
        out["segal"] = verdict
        if report:
            out["violation"] = report
    if args.output:
        with open(workspace_path(args.output), "w") as fh:
            fh.write(textio.presheaf_to_text(n))
        out["written"] = args.output
    return out


def cmd_segal(args):
    from .presheaves import is_segal

    site = textio.site_from_manifest(read_file(args.site))
    X = textio.parse_presheaf(read_file(args.presheaf), site)
    X.validate()
    verdict, report = is_segal(X)
    out = {"presheaf": X.name, "segal": verdict}
    if report:
        out["violation"] = report
    return out


def cmd_orient(args):
    from .sites import orient, root

    graphs = load_graphs(args.files)
    g = pick_graph(graphs, args.graph)
    if args.root:
        d = root(g, args.root, name=f"{g.name}_rooted")
    elif args.plus is None:
        raise UsageError("orient needs --plus or --root")
    else:
        plus = frozenset(args.plus.split(","))
        d = orient(g, plus, name=f"{g.name}_oriented")
    return {"graph": textio.graph_to_text(d)}


def _build_elements(args):
    from .sites import build_elements_site

    base = textio.site_from_manifest(read_file(args.site))
    rooted = args.functor == "Omega-to-Ucyc"
    return build_elements_site(base, rooted_only=rooted)


def cmd_kan(args):
    from .presheaves import (
        kan_formula_matches_oracle,
        left_kan_formula,
        terminal_presheaf,
    )

    els = _build_elements(args)
    objs = range(len(els.base.objects))
    if args.object is not None:
        if args.object not in objs:
            raise UsageError(f"--object must be in 0..{len(objs) - 1}, got {args.object}")
        objs = [args.object]
    if args.presheaf == "terminal":
        Z = terminal_presheaf(els.directed)
    else:
        Z = textio.parse_presheaf(read_file(args.presheaf), els.directed).check_total()
    f_shriek = left_kan_formula(els, Z)
    rows = []
    for i in objs:
        rows.append(
            {
                "object": els.base.objects[i].name,
                "summands": len(f_shriek.value(i)),
                "matches_oracle": kan_formula_matches_oracle(els, Z, i),
            }
        )
    return {"functor": args.functor, "objects": rows}


def cmd_elements_check(args):
    from .presheaves import elements_equivalence_check

    els = _build_elements(args)
    report = elements_equivalence_check(els)
    return report


def cmd_export_dot(args):
    graphs = load_graphs(args.files)
    outdir = workspace_path(args.outdir or ".")
    written = []
    for name in sorted(graphs):
        path = os.path.join(outdir, f"{name}.dot")
        with open(path, "w") as fh:
            fh.write(textio.to_dot(graphs[name]))
        written.append(path)
    return {"written": written}


def cmd_oracle(args):
    budget, bounds, _ = load_config(args)
    if args.kind == "emb":
        graphs = load_graphs(args.files)
        g = pick_graph(graphs, args.graph)
        classes = emb_mod.oracle_embedding_classes(g)
        encoded = emb_mod.enumerate_emb(g)
        return {
            "graph": g.name,
            "oracle_classes": len(classes),
            "encoded": len(encoded),
            "agree": len(classes) == len(encoded),
        }
    if args.kind == "etale":
        from .etale import enumerate_etale

        graphs = load_graphs(args.files)
        names = sorted(graphs)
        if args.graph:
            src, dst = pick_graph_pair(graphs, args.graph)
        else:
            src, dst = graphs[names[0]], graphs[names[-1]]
        maps = enumerate_etale(src, dst, budget=budget)
        return {"source": src.name, "target": dst.name, "maps": len(maps)}
    if args.kind == "shape":
        graphs = load_graphs(args.files)
        g = pick_graph(graphs, args.graph)
        s = graphs_mod.shape(g)
        if isinstance(g, graphs_mod.UGraph):
            cycles = graphs_mod.enumerate_path_cycles(g)
            agree = s.is_tree == (s.is_connected and not cycles)
            return {"graph": g.name, "cycles_found": len(cycles), "agree": agree}
        agree = graphs_mod.has_directed_cycle(g) == graphs_mod.has_directed_cycle_oracle(g)
        return {"graph": g.name, "agree": agree}
    if args.kind == "treemaps":
        from .gmaps import enumerate_graph_maps, extend_tree_map, restrict_tree_map

        src, dst = pick_graph_pair(load_graphs(args.files), args.graph)
        maps = enumerate_graph_maps(src, dst, budget=budget)
        round_trips = 0
        for m in maps:
            phi0, phi1 = restrict_tree_map(m)
            if extend_tree_map(src, dst, phi0, phi1) == m:
                round_trips += 1
        return {"maps": len(maps), "extension_round_trips": round_trips}
    raise LooseEndsError("UnknownArc", f"unknown oracle kind {args.kind!r}")


# ---------------------------------------------------------------------------
# parser


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON report")
    common.add_argument("--config", help="key=value settings file")
    common.add_argument("--budget", type=int, help="search node budget")
    common.add_argument("--vertices", type=int, help="site vertex bound")
    common.add_argument("--edges", type=int, help="site edge bound")
    common.add_argument("--arity", type=int, help="site arity bound")
    parser = argparse.ArgumentParser(
        prog="looseends",
        description="graphs with loose ends: embeddings, graph maps, operads,"
        " Segal presheaves, Kan extensions",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")

    def cmd(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(func=fn)
        return p

    p = cmd("validate", cmd_validate, help="validate graph files")
    p.add_argument("files", nargs="+")

    p = cmd("emb", cmd_emb, help="list embedding classes with boundaries")
    p.add_argument("files", nargs="+")
    p.add_argument("--graph")

    p = cmd("unions", cmd_unions, help="unions of two embedding classes")
    p.add_argument("files", nargs="+")
    p.add_argument("--graph")
    p.add_argument("--pair", nargs=2, required=True, metavar="EMB")

    p = cmd("ssb", cmd_ssb, help="structured subgraphs of an acyclic graph")
    p.add_argument("files", nargs="+")
    p.add_argument("--graph")

    p = cmd("map-check", cmd_map_check, help="validate a graph map file")
    p.add_argument("map")
    p.add_argument("graphs", nargs="+")

    p = cmd("compose", cmd_compose, help="compose two graph maps")
    p.add_argument("maps", nargs=2)
    p.add_argument("graphs", nargs="+")

    p = cmd("factorize", cmd_factorize, help="active-inert factorization")
    p.add_argument("map")
    p.add_argument("graphs", nargs="+")

    p = cmd("extend-tree-map", cmd_extend_tree_map, help="extend vertex data")
    p.add_argument("map")
    p.add_argument("graphs", nargs="+")

    p = cmd("operad-check", cmd_operad_check, help="validate an operad file")
    p.add_argument("operad")

    p = cmd("free-cyclic", cmd_free_cyclic, help="free cyclic operad on a tree")
    p.add_argument("files", nargs="+")
    p.add_argument("--graph")

    p = cmd("site-build", cmd_site_build, help="build a truncated site")
    p.add_argument("--category", required=True)
    p.add_argument("-o", "--output")

    p = cmd("nerve", cmd_nerve, help="nerve of an operad on a site")
    p.add_argument("operad")
    p.add_argument("--site", required=True)
    p.add_argument("--segal", action="store_true")
    p.add_argument("-o", "--output")

    p = cmd("segal", cmd_segal, help="check the Segal condition")
    p.add_argument("presheaf")
    p.add_argument("--site", required=True)

    p = cmd("orient", cmd_orient, help="directed structure from an orientation")
    p.add_argument("files", nargs="+")
    p.add_argument("--graph")
    p.add_argument("--plus", help="comma-separated +1 arcs")
    p.add_argument("--root", help="boundary arc for tree rooting")

    p = cmd("kan", cmd_kan, help="left Kan extension along a forgetful functor")
    p.add_argument("--site", required=True, help="base (undirected) site manifest")
    p.add_argument(
        "--functor",
        required=True,
        choices=["O-to-U", "O0-to-U0", "Omega-to-Ucyc"],
    )
    p.add_argument("--presheaf", default="terminal")
    p.add_argument("--object", type=int)

    p = cmd("elements-check", cmd_elements_check, help="category of elements")
    p.add_argument("--site", required=True)
    p.add_argument("--functor", default="O-to-U", choices=["O-to-U", "O0-to-U0", "Omega-to-Ucyc"])

    p = cmd("export-dot", cmd_export_dot, help="write DOT files")
    p.add_argument("files", nargs="+")
    p.add_argument("--outdir")

    p = cmd("oracle", cmd_oracle, help="run a brute-force oracle")
    p.add_argument("kind", choices=["emb", "etale", "shape", "treemaps"])
    p.add_argument("files", nargs="+")
    p.add_argument("--graph")

    return parser


if __name__ == "__main__":
    sys.exit(main())
