"""Command line interface: file ingestion, command dispatch, reports.

Exit codes: 0 success, 1 validation failure, 2 usage error (including an
unreadable input file or a bad setting).  Reports are plain text by default
or a versioned JSON document with --json; both are byte-stable across runs
for fixed inputs.
"""

import argparse
import json
import os
import sys

from . import emb as emb_mod
from . import etale, gmaps, operads, presheaves, sites, textio
from . import graphs as graphs_mod
from .config import Budget, OperadCaps, SiteBounds
from .errors import LooseEndsError

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
        status, body = 0, {"ok": True, "data": args.func(args)}
    except LooseEndsError as e:
        status, body = 1, {"ok": False, "error": e.code, "detail": e.message}
    except (OSError, UnicodeDecodeError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        emit(args, body)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading: drop the rest of the report quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def emit(args, body):
    body = {"schema": REPORT_SCHEMA, "command": args.command, **body}
    if args.json:
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
    if not graphs:
        raise LooseEndsError("NoGraph", "no graph in file")
    if len(graphs) > 1:
        raise LooseEndsError("AmbiguousGraph", "several graphs in file; use --graph")
    return next(iter(graphs.values()))


def pick_graph_pair(graphs, spec):
    """The source and target graphs named by --graph SOURCE,TARGET."""
    names = (spec or "").split(",")
    if len(names) != 2 or not all(names):
        raise UsageError(f"--graph must be SOURCE,TARGET, got {spec!r}")
    return [pick_graph(graphs, n) for n in names]


def read_graph(args):
    """The graph that --graph picks from the graph files."""
    return pick_graph(load_graphs(args.files), args.graph)


def read_maps(args):
    """(name, map, category) of each map file, read against the graph files."""
    graphs = load_graphs(args.graphs)
    return [textio.parse_graph_map(read_file(p), graphs) for p in args.maps]


def read_site(args):
    """The site of the --site manifest."""
    return textio.site_from_manifest(read_file(args.site))


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
    g = read_graph(args)
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
    g = read_graph(args)
    x, y = (textio.emb_from_text(g, text) for text in args.pair)
    us = emb_mod.unions(x, y)
    return {
        "graph": g.name,
        "count": len(us),
        "unions": [textio.emb_to_text(z) for z in us],
    }


def cmd_ssb(args):
    g = read_graph(args)
    rows = [textio.emb_to_text(x) for x in emb_mod.enumerate_ssb(g)]
    total = len(emb_mod.enumerate_emb(g))
    return {"graph": g.name, "structured": rows, "emb_count": total}


def cmd_map_check(args):
    ((name, m, category),) = read_maps(args)
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
    (_, outer, outer_cat), (_, inner, inner_cat) = read_maps(args)
    m = gmaps.compose(outer, inner, check=True)
    category = outer_cat if outer_cat == inner_cat else None
    return {"composite": textio.graph_map_to_text("composite", m, category=category)}


def cmd_factorize(args):
    ((name, m, category),) = read_maps(args)
    alpha, iota = gmaps.factorize(m)
    return {
        "map": name,
        "middle": textio.graph_to_text(alpha.target),
        "active": textio.graph_map_to_text(f"{name}.active", alpha, category=category),
        "inert": textio.graph_map_to_text(f"{name}.inert", iota, category=category),
    }


def cmd_extend_tree_map(args):
    ((name, m, category),) = read_maps(args)
    return {"map": textio.graph_map_to_text(name, m, category=category or "U0")}


def cmd_operad_check(args):
    _, _, caps = load_config(args)
    P = textio.parse_operad(read_file(args.operad), caps=caps)
    operads.validate_presentation(P)
    return {
        "operad": P.name,
        "flavor": P.flavor,
        "colors": len(P.colors),
        "operations": len(P.op_profile),
        "valid": True,
    }


def cmd_free_cyclic(args):
    _, _, caps = load_config(args)
    P = operads.free_cyclic(read_graph(args), caps=caps)
    return {"operad": textio.operad_to_text(P)}


def cmd_site_build(args):
    budget, bounds, _ = load_config(args)
    site = sites.build_site(args.category, bounds, budget)
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
    _, _, caps = load_config(args)
    site = read_site(args)
    P = operads.validate_presentation(textio.parse_operad(read_file(args.operad), caps=caps))
    n = presheaves.nerve_presheaf(P, site)
    out = {
        "operad": P.name,
        "values": {i: len(n.value(i)) for i in range(len(site.objects))},
    }
    if args.segal:
        verdict, report = presheaves.is_segal(n)
        out["segal"] = verdict
        if report:
            out["violation"] = report
    if args.output:
        with open(workspace_path(args.output), "w") as fh:
            fh.write(textio.presheaf_to_text(n))
        out["written"] = args.output
    return out


def cmd_segal(args):
    site = read_site(args)
    X = textio.parse_presheaf(read_file(args.presheaf), site)
    X.validate()
    verdict, report = presheaves.is_segal(X)
    out = {"presheaf": X.name, "segal": verdict}
    if report:
        out["violation"] = report
    return out


def cmd_orient(args):
    g = read_graph(args)
    if args.root:
        d = sites.root(g, args.root, name=f"{g.name}_rooted")
    elif args.plus is None:
        raise UsageError("orient needs --plus or --root")
    else:
        plus = frozenset(args.plus.split(","))
        d = sites.orient(g, plus, name=f"{g.name}_oriented")
    return {"graph": textio.graph_to_text(d)}


def _build_elements(args):
    """The elements site over the --site manifest of the functor into its
    tag (FUNCTORS); a directed site fails FlavorMismatch."""
    site = read_site(args)
    return sites.build_elements_site(site, rooted_only=site.tag == "Ucyc")


def cmd_kan(args):
    els = _build_elements(args)
    objs = range(len(els.base.objects))
    if args.object is not None:
        if args.object not in objs:
            raise UsageError(f"--object must be in 0..{len(objs) - 1}, got {args.object}")
        objs = [args.object]
    if args.presheaf == "terminal":
        Z = presheaves.terminal_presheaf(els.directed)
    else:
        Z = textio.parse_presheaf(read_file(args.presheaf), els.directed).check_total()
    f_shriek = presheaves.left_kan_formula(els, Z)
    rows = []
    for i in objs:
        rows.append(
            {
                "object": els.base.objects[i].name,
                "summands": len(f_shriek.value(i)),
                "matches_oracle": presheaves.kan_formula_matches_oracle(els, Z, i),
            }
        )
    return {"functor": FUNCTORS[els.base.tag], "objects": rows}


def cmd_elements_check(args):
    return presheaves.elements_equivalence_check(_build_elements(args))


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
    budget, _, _ = load_config(args)
    if args.kind == "emb":
        g = read_graph(args)
        classes = emb_mod.oracle_embedding_classes(g)
        encoded = emb_mod.enumerate_emb(g)
        return {
            "graph": g.name,
            "oracle_classes": len(classes),
            "encoded": len(encoded),
            "agree": len(classes) == len(encoded),
        }
    if args.kind == "etale":
        graphs = load_graphs(args.files)
        names = sorted(graphs)
        if args.graph:
            src, dst = pick_graph_pair(graphs, args.graph)
        elif not names:
            raise LooseEndsError("NoGraph", "no graph in file")
        else:
            src, dst = graphs[names[0]], graphs[names[-1]]
        maps = etale.enumerate_etale(src, dst, budget=budget)
        return {"source": src.name, "target": dst.name, "maps": len(maps)}
    if args.kind == "shape":
        g = read_graph(args)
        s = graphs_mod.shape(g)
        if isinstance(g, graphs_mod.UGraph):
            cycles = graphs_mod.enumerate_path_cycles(g)
            agree = s.is_tree == (s.is_connected and not cycles)
            return {"graph": g.name, "cycles_found": len(cycles), "agree": agree}
        agree = graphs_mod.has_directed_cycle(g) == graphs_mod.has_directed_cycle_oracle(g)
        return {"graph": g.name, "agree": agree}
    if args.kind == "treemaps":
        src, dst = pick_graph_pair(load_graphs(args.files), args.graph)
        maps = gmaps.enumerate_graph_maps(src, dst, budget=budget)
        round_trips = 0
        for m in maps:
            phi0, phi1 = gmaps.restrict_tree_map(m)
            if gmaps.extend_tree_map(src, dst, phi0, phi1) == m:
                round_trips += 1
        return {"maps": len(maps), "extension_round_trips": round_trips}


# ---------------------------------------------------------------------------
# parser

# the flags that several commands declare alike
FLAGS = {
    "config": dict(help="key=value settings file"),
    "budget": dict(type=int, help="search node budget"),
    "site": dict(required=True, help="site manifest"),
}
FUNCTORS = {"U": "O-to-U", "U0": "O0-to-U0", "Ucyc": "Omega-to-Ucyc"}  # tag -> functor into it


def build_parser():
    parser = argparse.ArgumentParser(
        prog="looseends",
        description="graphs with loose ends: embeddings, graph maps, operads,"
        " Segal presheaves, Kan extensions",
    )
    sub = parser.add_subparsers(dest="command")

    def cmd(name, fn, about, *flags):
        """A command taking --json and the given FLAGS."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="JSON report")
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        return p

    def graph_files(p):
        p.add_argument("files", nargs="+")
        p.add_argument("--graph")

    def map_files(p, count=1):
        p.add_argument("maps", nargs=count, metavar="map")
        p.add_argument("graphs", nargs="+")

    cmd("validate", cmd_validate, "validate graph files").add_argument("files", nargs="+")
    graph_files(cmd("emb", cmd_emb, "list embedding classes with boundaries"))
    p = cmd("unions", cmd_unions, "unions of two embedding classes")
    graph_files(p)
    p.add_argument("--pair", nargs=2, required=True, metavar="EMB")
    graph_files(cmd("ssb", cmd_ssb, "structured subgraphs of an acyclic graph"))

    map_files(cmd("map-check", cmd_map_check, "validate a graph map file"))
    map_files(cmd("compose", cmd_compose, "compose two graph maps"), count=2)
    map_files(cmd("factorize", cmd_factorize, "active-inert factorization"))
    map_files(cmd("extend-tree-map", cmd_extend_tree_map, "extend vertex data"))

    p = cmd("operad-check", cmd_operad_check, "validate an operad file", "config")
    p.add_argument("operad")
    graph_files(cmd("free-cyclic", cmd_free_cyclic, "free cyclic operad on a tree", "config"))

    p = cmd("site-build", cmd_site_build, "build a truncated site", "config", "budget")
    p.add_argument("--category", required=True, choices=gmaps.CATEGORY_TAGS)
    p.add_argument("-o", "--output")
    p.add_argument("--vertices", type=int, help="site vertex bound")
    p.add_argument("--edges", type=int, help="site edge bound")
    p.add_argument("--arity", type=int, help="site arity bound")

    p = cmd("nerve", cmd_nerve, "nerve of an operad on a site", "site", "config")
    p.add_argument("operad")
    p.add_argument("--segal", action="store_true")
    p.add_argument("-o", "--output")

    p = cmd("segal", cmd_segal, "check the Segal condition", "site")
    p.add_argument("presheaf")

    p = cmd("orient", cmd_orient, "directed structure from an orientation")
    graph_files(p)
    p.add_argument("--plus", help="comma-separated +1 arcs")
    p.add_argument("--root", help="boundary arc for tree rooting")

    p = cmd("kan", cmd_kan, "left Kan extension along a forgetful functor", "site")
    p.add_argument("--presheaf", default="terminal")
    p.add_argument("--object", type=int)

    cmd("elements-check", cmd_elements_check, "category of elements", "site")

    p = cmd("export-dot", cmd_export_dot, "write DOT files")
    p.add_argument("files", nargs="+")
    p.add_argument("--outdir")

    p = cmd("oracle", cmd_oracle, "run a brute-force oracle", "config", "budget")
    p.add_argument("kind", choices=["emb", "etale", "shape", "treemaps"])
    graph_files(p)

    return parser


if __name__ == "__main__":
    sys.exit(main())
