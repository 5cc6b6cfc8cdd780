"""The names the benchmark under perfbench/ takes from looseends still
resolve: the ``from looseends... import`` lines of its workloads (and the
attributes it reads off the modules imported whole) and the functions its
tracer hooks.  The benchmark files are read with ast, never imported."""

import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _workload_names():
    """(module, attribute path) for each name workloads.py imports from
    looseends or reads off a looseends module it imported whole."""
    tree = _tree("workloads.py")
    names, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("looseends"):
            for alias in node.names:
                names.append((node.module, alias.name))
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = aliases.get(node.value.id)
            if target is not None and _is_module(target):
                names.append((target, node.attr))
    return names


def _is_module(dotted):
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


def _hooked_names():
    """(module, attribute path) for each entry of spans.py's HOOKS."""
    for node in ast.walk(_tree("spans.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return [
                (f"looseends.{entry.elts[0].value}", entry.elts[1].value)
                for entry in node.value.elts
            ]
    raise AssertionError("spans.py defines no HOOKS list")


def test_workload_imports_resolve():
    names = _workload_names()
    assert ("looseends.gen", "gen_connected_ugraphs") in names
    assert ("looseends.emb", "enumerate_emb") in names  # read as E.enumerate_emb
    missing = []
    for module, path in sorted(set(names)):
        try:
            _resolve(module, path)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    assert not missing


def test_tracer_hooks_resolve():
    names = _hooked_names()
    assert ("looseends.graphs", "isomorphic") in names
    missing = []
    for module, path in sorted(set(names)):
        try:
            assert callable(_resolve(module, path))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    assert not missing
