"""No library name that only tests reach, no parameter that no caller sets.

Every function, class and method defined under src/warpgeo must be
referenced by name somewhere in src/ outside its own definition: a name
only the tests call is either wired into the program or deleted. Exempt
are dunders, the names the package __init__ re-exports, and the names the
benchmark's tracer wraps (perfbench/tracing.TARGETS), which the benchmark
calls without the program doing so.

Every parameter with a default must be set by some call in src/ or in the
benchmark's workloads (perfbench/workloads.py), by keyword, by position or
through * or **: a default no caller overrides is a constant. Calls are
matched to definitions by name, and functools.partial(f, ...) counts as a
call of f.
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
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")


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


def _defaulted(fn, bound):
    """(name, index among a call's positional arguments or None) of every
    parameter of fn with a default; bound is 1 for a method called through
    its instance, whose first parameter the call does not pass."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(trees):
    """callee name -> [(positional args, keywords)] over every call, with
    functools.partial(f, *args, **kw) read as the call f(*args, **kw)."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            out.setdefault(name, []).append((args, node.keywords))
    return out


def _sets(call, name, index):
    args, keywords = call
    if any(k.arg is None or k.arg == name for k in keywords):
        return True
    if index is None:
        return False
    starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
    return len(args) > index or any(i <= index for i in starred)


def _methods(tree):
    """Function nodes defined directly in a class body, static ones aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out.update(
                fn for fn in node.body if isinstance(fn, _FUNCS)
                and not any(getattr(d, "id", None) == "staticmethod"
                            for d in fn.decorator_list))
    return out


def unset_parameters():
    """fname:qualname(param) of every defaulted parameter no call sets."""
    trees = _parse_package()
    with open(WORKLOADS, encoding="utf-8") as fh:
        workloads = ast.parse(fh.read(), filename=WORKLOADS)
    calls = _calls(list(trees.values()) + [workloads])
    out = []
    for fname, tree in trees.items():
        methods = _methods(tree)
        for qual, node in _definitions(tree):
            if not isinstance(node, _FUNCS):
                continue
            for name, index in _defaulted(node, int(node in methods)):
                if not any(_sets(call, name, index)
                           for call in calls.get(node.name, ())):
                    out.append("%s:%s(%s)" % (fname, qual, name))
    return out


def test_every_default_is_overridden_by_some_caller():
    params = unset_parameters()
    assert not params, "set by no caller: " + ", ".join(params)
