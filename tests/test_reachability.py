"""No library name that only tests reach.

Every function, class and method defined under src/warpgeo must be
referenced by name somewhere in src/ outside its own definition: a name
only the tests call is either wired into the program or deleted. Exempt
are dunders, the names the package __init__ re-exports, and the names the
benchmark's tracer wraps (perfbench/tracing.TARGETS), which the benchmark
calls without the program doing so.
"""

import ast
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "warpgeo")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    """How often each name is used: as a bare name or as an attribute."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _definitions(tree, prefix=""):
    """(qualified name, node) of every definition, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qual = prefix + node.name
            yield qual, node
            yield from _definitions(node, qual + ".")
        else:
            yield from _definitions(node, prefix)


def _parse_package():
    trees = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                trees[fname] = ast.parse(fh.read(), filename=fname)
    return trees


def _exempt(trees):
    names = set()
    for node in ast.walk(trees["__init__.py"]):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    names.update(attr for _, attr, *_ in tracing.TARGETS)
    return names


def unreached_names():
    """Qualified names defined in the package and referenced nowhere in it
    outside their own definition."""
    trees = _parse_package()
    exempt = _exempt(trees)
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    out = []
    for fname, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qual in exempt:
                continue
            if total[name] - _references(node)[name] <= 0:
                out.append("%s:%s" % (fname, qual))
    return out


def test_every_library_name_is_reached_from_the_library():
    names = unreached_names()
    assert not names, "reached from no library code: " + ", ".join(names)
