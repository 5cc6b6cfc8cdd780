"""Text formats for graphs, maps, embedding classes, operads, presheaves,
plus DOT export and the versioned site manifest."""

from __future__ import annotations

import json
import re

from .config import DEFAULT_CAPS
from .emb import EmbEdge, edge_element, enumerate_emb, region
from .errors import LooseEndsError, fail
from .etale import EtaleMap
from .gmaps import CATEGORY_TAGS, DIRECTED_TAGS, GraphMap, extend_tree_map
from .graphs import extend_slot_map, sides, validate_dgraph, validate_ugraph
from .operads import DIRECTED_FLAVORS, DecoratedGraph, OperadPresentation
from .presheaves import Presheaf
from .sites import Site

# "~", "|" and ">" occur in the names emb.realize gives a realized class and
# its cut edges, which factorization middles and site manifests carry
TOKEN = re.compile(r"^[A-Za-z0-9_.*+'~|>\-]+$")


def check_token(tok):
    if not TOKEN.match(tok):
        fail("UnknownArc", f"bad token {tok!r}")
    return tok


def _lines(text):
    """Each line of text that holds something, as (lineno, line), with its
    comment stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _match(pattern, text, lineno):
    """The match of pattern against all of text, read from line lineno;
    anything else fails MalformedLine, naming the line."""
    mm = re.fullmatch(pattern, text)
    if mm is None:
        fail("MalformedLine", f"line {lineno}: cannot read {text!r}")
    return mm


def _on_line(lineno, read, *args):
    """read(*args), a failure naming line lineno."""
    try:
        return read(*args)
    except LooseEndsError as e:
        fail(e.code, f"line {lineno}: {e.message}")


# ---------------------------------------------------------------------------
# graphs


def graph_to_text(g) -> str:
    lines = [f"graph {g.name} {'directed' if g.directed else 'undirected'}"]
    lines += [f"edge {e}" if g.directed else f"pair {e[0]} {e[1]}" for e in g.edge_keys]
    for v in g.vertices:
        if g.directed:
            ins, outs = (" ".join(sorted(es)) for es in (g.in_of(v), g.out_of(v)))
            lines.append(f"vertex {v} in {ins} out {outs}".replace("  ", " ").rstrip())
        else:
            lines.append(f"vertex {v} {' '.join(sorted(g.nbhd(v)))}".rstrip())
    return "\n".join(lines) + "\n"


def parse_graphs(text):
    """All graph blocks in a file; returns dict name -> graph."""
    out = {}
    block = None
    for lineno, line in _lines(text):
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
    if block["directed"]:
        return validate_dgraph(block["name"], block["edges"], block["vertices"])
    return validate_ugraph(block["name"], block["pairs"], block["vertices"])


# ---------------------------------------------------------------------------
# embedding classes


def edge_from_token(g, tok):
    """The edge named by one of its slots: an arc, or the edge itself."""
    if tok not in g.slots:
        fail(g.unknown_code, tok)
    return g.edge_of(tok)


def emb_to_text(x) -> str:
    g = x.host
    if isinstance(x, EmbEdge):
        return "{edge " + g.slot_of(x.edge) + "}"
    vs = " ".join(sorted(x.vertices))
    if x.glued:
        zs = " ".join(sorted(g.slot_of(e) for e in x.glued))
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
        return edge_element(g, edge_from_token(g, body[5:].strip()))
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
    return region(g, vs, glued)


# ---------------------------------------------------------------------------
# graph maps and etale maps


def _slot_rows(g, images):
    """The slot lines of a map or etale block: each slot of g and its image,
    the directive naming the slot as the format does, an arc or an edge."""
    word = "edge" if g.directed else "arc"
    return [f"{word} {s} |-> {images[s]}" for s in g.slots]


def graph_map_to_text(name, m: GraphMap, category="U") -> str:
    header = f"map {name} : {m.source.name} -> {m.target.name}"
    lines = [header + (f" in {category}" if category else "")] + _slot_rows(m.source, m.phi0)
    for x in enumerate_emb(m.source):
        lines.append(f"embmap {emb_to_text(x)} |-> {emb_to_text(m.phi_hat[x])}")
    return "\n".join(lines) + "\n"


def _read_block(text, graphs, word, directives, tail=""):
    """Read a map or etale block: the header `word name : source -> target`
    (then tail), which must come first, the slot lines, and the lines of the
    given directives.  Returns the header's groups, the two graphs, the slot
    map, each slot's partner going to its image's partner, and the
    directives' lines as (lineno, directive, line)."""
    header, slot_map, rest = None, {}, []
    for lineno, line in _lines(text):
        directive = line.split()[0]
        if header is None:
            if directive != word:
                fail("MalformedLine", f"line {lineno}: content before {word} header")
            pattern = rf"{word}\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+){tail}"
            header = _match(pattern, line, lineno).groups()
            src, dst = graphs.get(header[1]), graphs.get(header[2])
            if src is None or dst is None:
                fail("UnknownGraph", f"line {lineno}: unknown source or target graph")
            if word == "map" and header[3] not in (None, *CATEGORY_TAGS):
                fail("UnknownCategory", f"line {lineno}: unknown category {header[3]!r}")
        elif directive in ("arc", "edge"):
            s, c = _match(r"(?:arc|edge)\s+(\S+)\s*\|->\s*(\S+)", line, lineno).groups()
            for slot, g in ((s, src), (c, dst)):
                if slot not in g.slots:
                    fail(g.unknown_code, f"line {lineno}: no slot {slot!r} in {g.name}")
            new = extend_slot_map(slot_map, [(s, c)], src, dst)
            if new is None:
                fail("NotInvolutive", f"line {lineno}: a second image for {s!r}")
            slot_map.update(new)
        elif directive in directives:
            rest.append((lineno, directive, line))
        else:
            fail("MalformedLine", f"line {lineno}: unknown directive")
    if header is None:
        fail("MalformedLine", f"no {word} header found")
    return header, src, dst, slot_map, rest


def parse_graph_map(text, graphs):
    """Parse one map block against a dict of named graphs."""
    tail = r"(?:\s+in\s+(\S+))?"
    header, src, dst, phi0, rest = _read_block(text, graphs, "map", ("vertex", "embmap"), tail)
    table, vertex_rows = {}, {}
    for lineno, directive, line in rest:
        if directive == "vertex":
            v, x = _match(r"vertex\s+(\S+)\s*\|->\s*emb\s*(\{.*\})", line, lineno).groups()
            vertex_rows[v] = _on_line(lineno, emb_from_text, dst, x)
        else:
            x, y = _match(r"embmap\s*(\{.*?\})\s*\|->\s*(\{.*\})", line, lineno).groups()
            table[_on_line(lineno, emb_from_text, src, x)] = _on_line(lineno, emb_from_text, dst, y)
    name, _, _, category = header
    if vertex_rows and not table:
        if vertex_rows.keys() != set(src.vertices) or phi0.keys() != set(src.slots):
            fail("BoundaryIncompatible", "a tree map needs each slot's and vertex's image")
        return name, extend_tree_map(src, dst, phi0, vertex_rows), category
    return name, GraphMap(src, dst, phi0, table, check=True), category


def etale_to_text(name, m) -> str:
    lines = [f"etale {name} : {m.source.name} -> {m.target.name}"]
    lines += _slot_rows(m.source, m.component)
    lines += [f"vertex {v} |-> {m.vertex_map[v]}" for v in m.source.vertices]
    return "\n".join(lines) + "\n"


def parse_etale(text, graphs):
    (name, _, _), src, dst, comp, rest = _read_block(text, graphs, "etale", ("vertex",))
    vmap = {}
    for lineno, _, line in rest:
        v, w = _match(r"vertex\s+(\S+)\s*\|->\s*(\S+)", line, lineno).groups()
        vmap[v] = w
    return name, EtaleMap(src, dst, comp, vmap)


# ---------------------------------------------------------------------------
# operads


def operad_to_text(P: OperadPresentation) -> str:
    lines = [f"operad {P.name} flavor {P.flavor}"]
    inv = " ".join(f"{c}:{P.dagger[c]}" for c in P.colors) if not P.directed else ""
    colors = " ".join(P.colors)
    lines.append(f"colors {colors}" + (f" involution {inv}" if inv else ""))
    for prof in sorted(P.ops, key=repr):
        profile = " -> ".join(" ".join(part) for part in sides(P, prof))
        lines.append(f"ops ({profile}): {' '.join(P.ops[prof])}")
    for c in P.colors:
        lines.append(f"identity {c} = {P.identities[c]}")
    for (p, perm), q in sorted(P.actions.items(), key=repr):
        perm_text = " | ".join(" ".join(map(str, part)) for part in sides(P, perm))
        lines.append(f"act {p} ({perm_text}) = {q}")
    for (p, i, j, q), r in sorted(P.compositions.items(), key=repr):
        lines.append(f"compose {p} {i} {j} {q} = {r}")
    for (p, i, j), r in sorted(P.contractions.items(), key=repr):
        lines.append(f"contract {p} {i} {j} = {r}")
    return "\n".join(lines) + "\n"


def parse_operad(text, caps=None) -> OperadPresentation:
    caps = caps or DEFAULT_CAPS
    name = flavor = None
    colors, dagger = (), {}
    ops, op_profile = {}, {}
    compositions, contractions, actions, identities = {}, {}, {}, {}
    directed = False
    for lineno, line in _lines(text):
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


def _field(value, kind, what):
    """value, when it has the type the manifest writer gives it."""
    if not isinstance(value, kind):
        fail("MalformedLine", f"site manifest: {what} is not a JSON {kind.__name__}")
    return value


def site_from_manifest(text) -> Site:
    try:
        data = _field(json.loads(text), dict, "the manifest")
    except ValueError as e:
        fail("MalformedLine", f"site manifest: {e}")
    if data.get("version") != MANIFEST_VERSION:
        fail("MalformedLine", "unknown site manifest version")
    tag = _field(data.get("tag"), str, "tag")
    if tag not in CATEGORY_TAGS:
        fail("UnknownCategory", f"site manifest: unknown category {tag!r}")
    objects = []
    for block in _field(data.get("objects"), list, "objects"):
        graphs = parse_graphs(_field(block, str, "an object"))
        if len(graphs) != 1:
            fail("MalformedLine", "site manifest: an object is not one graph block")
        objects.extend(graphs.values())
        if objects[-1].directed != (tag in DIRECTED_TAGS):
            fail("FlavorMismatch", f"site manifest: {objects[-1].name} is no {tag} object")
    graphs = {g.name: g for g in objects}
    if len(graphs) != len(objects):
        fail("MalformedLine", "site manifest: two objects share a name")
    homs = {}
    for key, rows in _field(data.get("homs"), dict, "homs").items():
        mm = re.fullmatch(r"(\d+)->(\d+)", key)
        if mm is None or max(int(mm[1]), int(mm[2])) >= len(objects):
            fail("MalformedLine", f"site manifest: no hom-set {key!r}")
        i, j = int(mm[1]), int(mm[2])
        maps = []
        for row in _field(rows, list, f"hom-set {key}"):
            text = _field(_field(row, dict, "a map row").get("text"), str, "a map's text")
            _, m, _ = parse_graph_map(text, graphs)
            if m.source != objects[i] or m.target != objects[j]:
                fail("MalformedLine", f"site manifest: {m!r} in hom-set {key}")
            maps.append(m)
        homs[(i, j)] = tuple(maps)
    return Site(tag, objects, homs)


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
    for lineno, line in _lines(text):
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
    for ref in site.all_refs():
        if not values.get(ref[1]):  # the one table on an empty value, written as no line
            action.setdefault(ref, {})
    return Presheaf(site, values, action, name=name)


def _from_token(tok, host, lineno):
    """The value written as tok, at an object whose graph is host."""
    try:
        value = _unjson(json.loads(tok), host)
        hash(value)  # values key the action tables
        return value
    except (ValueError, KeyError, TypeError) as e:
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
    # a directed edge is drawn from its tail, so its ends are read backwards
    kind, connector, step = ("digraph", "->", -1) if g.directed else ("graph", "--", 1)
    lines = [f'{kind} "{g.name}" {{']
    if step < 0:
        lines.append("  rankdir=TB;")
    lines.append("  node [shape=circle];")
    lines += [f'  "{v}";' for v in g.vertices]
    tips = 0
    for e in g.edge_keys:
        ends = []
        for v in g.ends(e)[::step]:
            if v is None:
                v = f"tip{tips}"
                tips += 1
                lines.append(f'  "{v}" [shape=point, style=invis];')
            ends.append(f'"{v}"')
        lines.append(f'  {ends[0]} {connector} {ends[1]} [label="{g.slot_of(e)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
