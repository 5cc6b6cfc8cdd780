"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``looseends`` from outside the package.
Each call records one span: name, start, end and the span that was open
when it began (its parent).  Spans live in flat typed arrays, so a run with
millions of calls stays small, and are written out when the run ends.

Only ``worker.py --trace`` imports this module; the untraced run never does.
"""

from __future__ import annotations

import array
import json
import sys
import time


def _size(result):
    return len(result) if hasattr(result, "__len__") else 0


def _site_size(site):
    return {"objects": len(site.objects), "maps": sum(len(v) for v in site.homs.values())}


# (module, attribute path, result sizer or None).  A sizer returns a number,
# summed as stat ``out`` (``empty_frac`` is the share of calls where it is
# 0), or a dict of stats to sum.  README.md has the table of which
# end-to-end metric each of these should move.
HOOKS = [
    ("graphs", "isomorphic", None),
    ("gen", "gen_trees_u", _size),
    ("gen", "gen_connected_ugraphs", _size),
    ("gen", "gen_connected_dgraphs", _size),
    ("etale", "enumerate_etale", _size),
    ("emb", "enumerate_emb", _size),
    ("emb", "unions", None),
    ("emb", "leq", None),
    ("emb", "intersect_subtrees", None),
    ("emb", "realize", None),
    ("emb", "class_of_embedding", None),
    ("emb", "oracle_embedding_classes", None),
    ("gmaps", "validate_graph_map", None),
    ("gmaps", "extend_tree_map", None),
    ("gmaps", "compose", None),
    ("gmaps", "enumerate_graph_maps", _size),
    ("gmaps", "factorize", None),
    ("sites", "build_site", _site_size),
    ("sites", "build_elements_site", None),
    ("sites", "Site.locate", None),
    ("operads", "validate_presentation", lambda p: len(p.op_profile)),
    ("operads", "nerve_action", lambda d: len(d.decoration)),
    ("operads", "enumerate_decorations", _size),
    ("presheaves", "nerve_presheaf", None),
    ("presheaves", "segal_map", None),
    ("presheaves", "left_kan_formula", None),
    ("presheaves", "restrict_presheaf", None),
    ("presheaves", "left_kan_oracle", None),
    ("presheaves", "limit_families_bruteforce", None),
    ("extraction", "presentation_from_segal", None),
]


class Tracer:
    """Spans in parallel arrays: name id, parent index, start, end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.sizes = {}
        self.originals = {}

    def wrap(self, name, fn, sizer=None):
        nid = len(self.names)
        self.names.append(name)
        sizes = self.sizes[name] = {}
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sizer is not None:
                n = sizer(result)
                if isinstance(n, dict):
                    for stat, v in n.items():
                        sizes[stat] = sizes.get(stat, 0) + v
                else:
                    sizes["out"] = sizes.get("out", 0) + n
                    sizes["empty"] = sizes.get("empty", 0) + (n == 0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, callers=(), package="looseends", hooks=HOOKS):
        """Rebind each hooked function in its defining module, in every
        module of the package that imported the name (for example ``gmaps``
        holds ``emb.unions`` and ``emb`` holds ``etale.enumerate_etale``) and
        in the ``callers`` modules, such as the benchmark's workloads."""
        modules = list(callers) + [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for mod_name, path, sizer in hooks:
            owner = sys.modules[f"{package}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            traced = self.wrap(name, original, sizer)
            self.originals[name] = original
            setattr(owner, attr, traced)
            if not outer:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def table(self):
        """Per-name stats: calls, self_s, total_s, the sizer's stats (with
        ``empty_frac`` in place of the empty count), and the lru_cache
        hits/misses of wrapped cached functions."""
        self_s = self_times(self.parent, self.start, self.end)
        rows = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for name in self.names
        }
        for k, nid in enumerate(self.name_id):
            row = rows[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += self_s[k]
            row["total_s"] += self.end[k] - self.start[k]
        for name, row in rows.items():
            row.update(self.sizes[name])
            if "empty" in row:
                row["empty_frac"] = row.pop("empty") / row["calls"]
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                row["hits"], row["misses"] = info().hits, info().misses
        return rows

    def dump(self, stem):
        """Write the spans: ``<stem>.names.json`` and ``<stem>.spans``, the
        four arrays (name id int32, parent int64, start and end float64)
        back to back, each ``spans`` entries long, in native byte order."""
        with open(f"{stem}.names.json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.start)}, fh)
        with open(f"{stem}.spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(parent, start, end):
    """Self time of each span: its duration minus the part of its interval
    covered by its children.

    Spans must be listed in order of start, as a tracer appends them; a
    parent index of -1 marks a root.  Children are clipped to the parent's
    interval and overlapping children are counted once."""
    n = len(start)
    covered = array.array("d", bytes(8 * n))
    reach = array.array("d", start)
    for k in range(n):
        p = parent[k]
        if p < 0:
            continue
        hi = min(end[k], end[p])
        lo = max(start[k], reach[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [end[k] - start[k] - covered[k] for k in range(n)]
