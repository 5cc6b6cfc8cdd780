"""Text formats for graphs, maps, embedding classes, operads, presheaves,
plus DOT export and the versioned site manifest."""

from __future__ import annotations

import json
import re

from .emb import EmbEdge, enumerate_emb
from .errors import fail
from .gmaps import GraphMap
from .graphs import UGraph
from .operads import DecoratedGraph, OperadPresentation
from .sites import Site

# "~", "|" and ">" occur in the names emb.realize gives a realized class and
# its cut edges, which factorization middles and site manifests carry
TOKEN = re.compile(r"^[A-Za-z0-9_.*+'~|>\-]+$")


def check_token(tok):
    if not TOKEN.match(tok):
        fail("UnknownArc", f"bad token {tok!r}")
    return tok


def _match(pattern, text, lineno):
    """The match of pattern against all of text, read from line lineno;
    anything else fails MalformedLine, naming the line."""
    mm = re.fullmatch(pattern, text)
    if mm is None:
        fail("MalformedLine", f"line {lineno}: cannot read {text!r}")
    return mm


# ---------------------------------------------------------------------------
# graphs


def graph_to_text(g) -> str:
    lines = []
    if isinstance(g, UGraph):
        lines.append(f"graph {g.name} undirected")
        seen = set()
        for a in g.arcs:
            if a in seen:
                continue
            b = g.dagger[a]
            seen.update((a, b))
            lines.append(f"pair {a} {b}")
        for v in g.vertices:
            attached = " ".join(sorted(g.nbhd(v)))
            lines.append(f"vertex {v} {attached}".rstrip())
    else:
        lines.append(f"graph {g.name} directed")
        for e in g.edges:
            lines.append(f"edge {e}")
        for v in g.vertices:
            ins = " ".join(sorted(g.in_of(v)))
            outs = " ".join(sorted(g.out_of(v)))
            lines.append(f"vertex {v} in {ins} out {outs}".replace("  ", " ").rstrip())
    return "\n".join(lines) + "\n"


def parse_graphs(text):
    """All graph blocks in a file; returns dict name -> graph."""
    out = {}
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "graph":
            if block is not None:
                g = _finish_graph(block)
                out[g.name] = g
            if len(words) != 3 or words[2] not in ("undirected", "directed"):
                fail("MalformedLine", f"line {lineno}: bad graph header")
            block = {"name": check_token(words[1]), "directed": words[2] == "directed",
                     "pairs": [], "edges": [], "vertices": []}
        elif block is None:
            fail("MissingGraphHeader", f"line {lineno}: content before any graph header")
        elif words[0] == "pair":
            if block["directed"] or len(words) != 3:
                fail("MalformedLine", f"line {lineno}: bad pair line")
            block["pairs"].append((check_token(words[1]), check_token(words[2])))
        elif words[0] == "edge":
            if not block["directed"] or len(words) != 2:
                fail("MalformedLine", f"line {lineno}: bad edge line")
            block["edges"].append(check_token(words[1]))
        elif words[0] == "vertex":
            if len(words) < 2:
                fail("MalformedLine", f"line {lineno}: vertex line names no vertex")
            if block["directed"]:
                if "in" not in words or "out" not in words:
                    fail("MalformedLine", f"line {lineno}: directed vertex needs in/out")
                i_in, i_out = words.index("in"), words.index("out")
                if not (1 < i_in < i_out):
                    fail("MalformedLine", f"line {lineno}: bad vertex line")
                v = check_token(words[1])
                ins = [check_token(w) for w in words[i_in + 1 : i_out]]
                outs = [check_token(w) for w in words[i_out + 1 :]]
                block["vertices"].append((v, ins, outs))
            else:
                v = check_token(words[1])
                block["vertices"].append((v, [check_token(w) for w in words[2:]]))
        else:
            fail("MalformedLine", f"line {lineno}: unknown directive {words[0]!r}")
    if block is not None:
        g = _finish_graph(block)
        out[g.name] = g
    return out


def _finish_graph(block):
    from .graphs import validate_dgraph, validate_ugraph

    if block["directed"]:
        return validate_dgraph(block["name"], block["edges"], block["vertices"])
    return validate_ugraph(block["name"], block["pairs"], block["vertices"])


# ---------------------------------------------------------------------------
# embedding classes


def edge_token(g, e):
    """An edge named by one arc (undirected) or by itself (directed)."""
    if isinstance(g, UGraph):
        return min(e)
    return e


def edge_from_token(g, tok):
    if isinstance(g, UGraph):
        if tok not in g.dagger:
            fail("UnknownArc", tok)
        return g.edge_key(tok)
    if tok not in set(g.edges):
        fail("UnknownEdge", tok)
    return tok


def emb_to_text(x) -> str:
    g = x.host
    if isinstance(x, EmbEdge):
        return "{edge " + edge_token(g, x.edge) + "}"
    vs = " ".join(sorted(x.vertices))
    if x.glued:
        zs = " ".join(sorted(edge_token(g, e) for e in x.glued))
        return "{vertices " + vs + "; uncut " + zs + "}"
    return "{vertices " + vs + "}"


def emb_from_text(g, text):
    body = text.strip()
    if body.startswith("emb"):
        body = body[3:].strip()
    if not (body.startswith("{") and body.endswith("}")):
        fail("UnknownArc", f"bad emb element {text!r}")
    body = body[1:-1].strip()
    if body.startswith("edge "):
        return EmbEdge(g, edge_from_token(g, body[5:].strip()))
    if not body.startswith("vertices"):
        fail("UnknownArc", f"bad emb element {text!r}")
    parts = body.split(";")
    vs = parts[0].split()[1:]
    glued = []
    if len(parts) > 1:
        words = parts[1].split()
        if words and words[0] != "uncut":
            fail("UnknownArc", f"bad emb element {text!r}")
        glued = [edge_from_token(g, w) for w in words[1:]]
    from .emb import region

    return region(g, vs, glued)


# ---------------------------------------------------------------------------
# graph maps and etale maps


def graph_map_to_text(name, m: GraphMap, category="U") -> str:
    header = f"map {name} : {m.source.name} -> {m.target.name}"
    lines = [header + (f" in {category}" if category else "")]
    if isinstance(m.source, UGraph):
        for a in m.source.arcs:
            lines.append(f"arc {a} |-> {m.phi0[a]}")
    else:
        for e in m.source.edges:
            lines.append(f"edge {e} |-> {m.phi0[e]}")
    for x in enumerate_emb(m.source):
        lines.append(f"embmap {emb_to_text(x)} |-> {emb_to_text(m.phi_hat[x])}")
    return "\n".join(lines) + "\n"


def parse_graph_map(text, graphs):
    """Parse one map block against a dict of named graphs."""
    header = None
    phi0 = {}
    table = {}
    vertex_rows = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("map "):
            mm = re.match(r"map\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*(?:in\s+(\S+))?", line)
            if not mm:
                fail("MalformedLine", f"line {lineno}: bad map header")
            header = mm.groups()
            continue
        if header is None:
            fail("MalformedLine", f"line {lineno}: content before map header")
        src = graphs.get(header[1])
        dst = graphs.get(header[2])
        if src is None or dst is None:
            fail("UnknownArc", f"line {lineno}: unknown source or target graph")
        if line.startswith("arc ") or line.startswith("edge "):
            mm = re.match(r"(?:arc|edge)\s+(\S+)\s*\|->\s*(\S+)", line)
            if not mm:
                fail("MalformedLine", f"line {lineno}: bad component line")
            phi0[mm.group(1)] = mm.group(2)
        elif line.startswith("vertex "):
            mm = re.match(r"vertex\s+(\S+)\s*\|->\s*emb\s*(\{.*\})", line)
            if not mm:
                fail("MalformedLine", f"line {lineno}: bad vertex line")
            vertex_rows[mm.group(1)] = emb_from_text(dst, mm.group(2))
        elif line.startswith("embmap "):
            mm = re.match(r"embmap\s*(\{.*?\})\s*\|->\s*(\{.*\})", line)
            if not mm:
                fail("MalformedLine", f"line {lineno}: bad embmap line")
            table[emb_from_text(src, mm.group(1))] = emb_from_text(dst, mm.group(2))
        else:
            fail("MalformedLine", f"line {lineno}: unknown directive")
    if header is None:
        fail("MalformedLine", "no map header found")
    name, src_name, dst_name, category = header
    src, dst = graphs[src_name], graphs[dst_name]
    if isinstance(src, UGraph):
        full0 = {}
        for a, b in phi0.items():
            full0[a] = b
            full0[src.dagger[a]] = dst.dagger[b]
        phi0 = full0
    if vertex_rows and not table:
        from .gmaps import extend_tree_map

        return name, extend_tree_map(src, dst, phi0, {
            v: x for v, x in vertex_rows.items()
        }), category
    m = GraphMap(src, dst, phi0, table, check=True)
    return name, m, category


def etale_to_text(name, m) -> str:
    lines = [f"etale {name} : {m.source.name} -> {m.target.name}"]
    if isinstance(m.source, UGraph):
        for a in m.source.arcs:
            lines.append(f"arc {a} |-> {m.component[a]}")
    else:
        for e in m.source.edges:
            lines.append(f"edge {e} |-> {m.component[e]}")
    for v in m.source.vertices:
        lines.append(f"vertex {v} |-> {m.vertex_map[v]}")
    return "\n".join(lines) + "\n"


def parse_etale(text, graphs):
    from .etale import EtaleMap

    header = None
    comp, vmap = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("etale "):
            mm = re.match(r"etale\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", line)
            if not mm:
                fail("MalformedLine", f"line {lineno}: bad etale header")
            header = mm.groups()
        elif line.startswith(("arc ", "edge ")):
            mm = _match(r"(?:arc|edge)\s+(\S+)\s*\|->\s*(\S+)", line, lineno)
            comp[mm.group(1)] = mm.group(2)
        elif line.startswith("vertex "):
            mm = _match(r"vertex\s+(\S+)\s*\|->\s*(\S+)", line, lineno)
            vmap[mm.group(1)] = mm.group(2)
        else:
            fail("MalformedLine", f"line {lineno}: unknown directive")
    if header is None:
        fail("MalformedLine", "no etale header found")
    name, src_name, dst_name = header
    if src_name not in graphs or dst_name not in graphs:
        fail("UnknownArc", "unknown source or target graph")
    return name, EtaleMap(graphs[src_name], graphs[dst_name], comp, vmap)


# ---------------------------------------------------------------------------
# operads


def operad_to_text(P: OperadPresentation) -> str:
    lines = [f"operad {P.name} flavor {P.flavor}"]
    inv = " ".join(f"{c}:{P.dagger[c]}" for c in P.colors) if not P.directed else ""
    colors = " ".join(P.colors)
    lines.append(f"colors {colors}" + (f" involution {inv}" if inv else ""))
    for prof in sorted(P.ops, key=repr):
        names = " ".join(P.ops[prof])
        if P.directed:
            ins, outs = prof
            lines.append(f"ops ({' '.join(ins)} -> {' '.join(outs)}): {names}")
        else:
            lines.append(f"ops ({' '.join(prof)}): {names}")
    for c in P.colors:
        lines.append(f"identity {c} = {P.identities[c]}")
    for (p, perm), q in sorted(P.actions.items(), key=repr):
        if P.directed:
            pi, po = perm
            perm_text = " ".join(map(str, pi)) + " | " + " ".join(map(str, po))
        else:
            perm_text = " ".join(map(str, perm))
        lines.append(f"act {p} ({perm_text}) = {q}")
    for (p, i, j, q), r in sorted(P.compositions.items(), key=repr):
        lines.append(f"compose {p} {i} {j} {q} = {r}")
    for (p, i, j), r in sorted(P.contractions.items(), key=repr):
        lines.append(f"contract {p} {i} {j} = {r}")
    return "\n".join(lines) + "\n"


def parse_operad(text, caps=None) -> OperadPresentation:
    from .config import DEFAULT_CAPS
    from .operads import DIRECTED_FLAVORS

    caps = caps or DEFAULT_CAPS
    name = flavor = None
    colors, dagger = (), {}
    ops, op_profile = {}, {}
    compositions, contractions, actions, identities = {}, {}, {}, {}
    directed = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "operad":
            name, flavor = _match(r"operad\s+(\S+)\s+flavor\s+(\S+)", line, lineno).groups()
            directed = flavor in DIRECTED_FLAVORS
        elif words[0] == "colors":
            if "involution" in words:
                k = words.index("involution")
                colors = tuple(words[1:k])
                for pair in words[k + 1 :]:
                    a, b = _match(r"([^:]+):([^:]+)", pair, lineno).groups()
                    dagger[a] = b
            else:
                colors = tuple(words[1:])
        elif words[0] == "ops":
            mm = _match(r"ops\s*\(([^)]*)\)\s*:\s*(.*)", line, lineno)
            inside, names = mm.group(1), mm.group(2).split()
            if "->" in inside:
                ins_text, _, outs_text = inside.partition("->")
                prof = (tuple(ins_text.split()), tuple(outs_text.split()))
            else:
                prof = tuple(inside.split())
            ops[prof] = tuple(names)
            for p in names:
                op_profile[p] = prof
        elif words[0] == "identity":
            c, p = _match(r"identity\s+(\S+)\s*=\s*(\S+)", line, lineno).groups()
            identities[c] = p
        elif words[0] == "act":
            perm_text = r"([\d\s]*(?:\|[\d\s]*)?)"
            mm = _match(rf"act\s+(\S+)\s*\({perm_text}\)\s*=\s*(\S+)", line, lineno)
            p, inside, q = mm.groups()
            parts = tuple(tuple(map(int, part.split())) for part in inside.split("|"))
            actions[(p, parts if "|" in inside else parts[0])] = q
        elif words[0] == "compose":
            pattern = r"compose\s+(\S+)\s+(\d+)\s+(\d+)\s+(\S+)\s*=\s*(\S+)"
            p, i, j, q, r = _match(pattern, line, lineno).groups()
            compositions[(p, int(i), int(j), q)] = r
        elif words[0] == "contract":
            pattern = r"contract\s+(\S+)\s+(\d+)\s+(\d+)\s*=\s*(\S+)"
            p, i, j, r = _match(pattern, line, lineno).groups()
            contractions[(p, int(i), int(j))] = r
        else:
            fail("MalformedLine", f"line {lineno}: unknown directive {words[0]!r}")
    if name is None:
        fail("MalformedLine", "no operad header")
    if not directed and not dagger:
        dagger = {c: c for c in colors}
    return OperadPresentation(
        name, flavor, colors, dagger, ops, op_profile,
        compositions, contractions, actions, identities, caps,
    )


# ---------------------------------------------------------------------------
# site manifest and presheaves


MANIFEST_VERSION = 1


def site_to_manifest(site: Site) -> str:
    data = {
        "version": MANIFEST_VERSION,
        "tag": site.tag,
        "objects": [graph_to_text(g) for g in site.objects],
        "homs": {},
    }
    for (i, j), maps in sorted(site.homs.items()):
        rows = []
        for pos, m in enumerate(maps):
            rows.append(
                {
                    "name": f"m{i}_{j}_{pos}",
                    "text": graph_map_to_text(f"m{i}_{j}_{pos}", m, category=site.tag),
                }
            )
        data["homs"][f"{i}->{j}"] = rows
    return json.dumps(data, indent=1, sort_keys=True)


def site_from_manifest(text) -> Site:
    data = json.loads(text)
    if data.get("version") != MANIFEST_VERSION:
        fail("SiteTooSmall", "unknown site manifest version")
    objects = []
    for block in data["objects"]:
        (g,) = parse_graphs(block).values()
        objects.append(g)
    graphs = {g.name: g for g in objects}
    homs = {}
    for key, rows in data["homs"].items():
        i, j = key.split("->")
        maps = []
        for row in rows:
            _, m, _ = parse_graph_map(row["text"], graphs)
            maps.append(m)
        homs[(int(i), int(j))] = tuple(maps)
    return Site(data["tag"], objects, homs)


def morphism_names(site: Site):
    return {f"m{i}_{j}_{pos}": (i, j, pos) for (i, j, pos) in site.all_refs()}


def presheaf_to_text(X, site_name="site") -> str:
    lines = [f"presheaf {X.name} on {site_name}"]
    for i in sorted(X.values):
        elems = " ".join(_elem_token(e) for e in X.value(i))
        lines.append(f"at {i}: {elems}")
    for ref in sorted(X.action):
        i, j, pos = ref
        for e, img in sorted(X.action[ref].items(), key=repr):
            lines.append(f"along m{i}_{j}_{pos}: {_elem_token(e)} |-> {_elem_token(img)}")
    return "\n".join(lines) + "\n"


def _elem_token(e):
    return json.dumps(_jsonable(e), sort_keys=True, separators=(",", ":"))


def _jsonable(e):
    if isinstance(e, (list, tuple)):
        return ["t"] + [_jsonable(x) for x in e]
    if isinstance(e, frozenset):
        return ["f"] + sorted(_jsonable(x) for x in e)
    if isinstance(e, DecoratedGraph):  # a nerve value; its host is the object
        return {"coloring": _jsonable(e.coloring), "decoration": _jsonable(e.decoration)}
    return e


def parse_presheaf(text, site: Site):
    name = None
    values = {}
    action = {}
    names = morphism_names(site)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("presheaf "):
            name = _match(r"presheaf\s+(\S+)(?:\s+on\s+\S+)?", line, lineno).group(1)
        elif line.startswith("at "):
            mm = _match(r"at\s+(\d+)\s*:\s*(.*)", line, lineno)
            i = int(mm.group(1))
            if i >= len(site.objects):
                fail("SiteTooSmall", f"line {lineno}: no object {i} in the site")
            host = site.objects[i]
            values[i] = tuple(_from_token(tok, host, lineno) for tok in mm.group(2).split())
        elif line.startswith("along "):
            pattern = r"along\s+(\S+)\s*:\s*(\S+)\s*\|->\s*(\S+)"
            mm = _match(pattern, line, lineno)
            ref = names.get(mm.group(1))
            if ref is None:
                fail("SiteTooSmall", f"line {lineno}: no morphism {mm.group(1)} in the site")
            i, j, _ = ref
            elem = _from_token(mm.group(2), site.objects[j], lineno)
            action.setdefault(ref, {})[elem] = _from_token(mm.group(3), site.objects[i], lineno)
        else:
            fail("MalformedLine", f"line {lineno}: unknown directive")
    if name is None:
        fail("MalformedLine", "no presheaf header")
    from .presheaves import Presheaf

    return Presheaf(site, values, action, name=name)


def _from_token(tok, host, lineno):
    """The value written as tok, at an object whose graph is host."""
    try:
        return _unjson(json.loads(tok), host)
    except (ValueError, KeyError) as e:
        fail("SiteTooSmall", f"line {lineno}: bad value {tok!r}: {e}")


def _unjson(v, host):
    if isinstance(v, list):
        if v and v[0] == "t":
            return tuple(_unjson(x, host) for x in v[1:])
        if v and v[0] == "f":
            return frozenset(_unjson(x, host) for x in v[1:])
    if isinstance(v, dict):
        return DecoratedGraph(host, _unjson(v["coloring"], host), _unjson(v["decoration"], host))
    return v


# ---------------------------------------------------------------------------
# DOT export


def to_dot(g) -> str:
    lines = []
    if isinstance(g, UGraph):
        lines.append(f'graph "{g.name}" {{')
        lines.append("  node [shape=circle];")
        for v in g.vertices:
            lines.append(f'  "{v}";')
        tips = 0
        seen = set()
        for a in g.arcs:
            if a in seen:
                continue
            b = g.dagger[a]
            seen.update((a, b))
            va, vb = g.t.get(a), g.t.get(b)
            ends = []
            for arc, vv in ((a, va), (b, vb)):
                if vv is None:
                    tip = f"tip{tips}"
                    tips += 1
                    lines.append(f'  "{tip}" [shape=point, style=invis];')
                    ends.append(f'"{tip}"')
                else:
                    ends.append(f'"{vv}"')
            lines.append(f'  {ends[0]} -- {ends[1]} [label="{a}"];')
        lines.append("}")
    else:
        lines.append(f'digraph "{g.name}" {{')
        lines.append("  rankdir=TB;")
        lines.append("  node [shape=circle];")
        for v in g.vertices:
            lines.append(f'  "{v}";')
        tips = 0
        for e in g.edges:
            tail, head = g.outputs.get(e), g.inputs.get(e)
            if tail is None:
                tip = f"tip{tips}"
                tips += 1
                lines.append(f'  "{tip}" [shape=point, style=invis];')
                tail_txt = f'"{tip}"'
            else:
                tail_txt = f'"{tail}"'
            if head is None:
                tip = f"tip{tips}"
                tips += 1
                lines.append(f'  "{tip}" [shape=point, style=invis];')
                head_txt = f'"{tip}"'
            else:
                head_txt = f'"{head}"'
            lines.append(f'  {tail_txt} -> {head_txt} [label="{e}"];')
        lines.append("}")
    return "\n".join(lines) + "\n"
