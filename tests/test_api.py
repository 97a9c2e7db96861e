"""Public names, the names the benchmark under bench/ relies on, and the
package's own imports (standard library only).

The benchmark drives loglift through module attributes and is not part of
this suite, so a deleted or renamed name would otherwise break it
unnoticed.
"""

import ast
import importlib
import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

import loglift
from loglift.pipeline import PipelineConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "loglift"

# local names the bench scripts bind to loglift modules
BENCH_MODULES = {"ll": "loglift", "loglift": "loglift",
                 "pipeline": "loglift.pipeline"}


def test_all_names_resolve():
    assert [n for n in loglift.__all__ if not hasattr(loglift, n)] == []


def test_no_public_callable_takes_both_a_replay_and_a_state_limit():
    # a Replay carries its own state limit: a function takes either a net
    # and a limit, or a Replay (exception classes have no signature)
    callables = [(name, obj) for name in loglift.__all__
                 if inspect.isfunction(obj := getattr(loglift, name))
                 or inspect.isclass(obj) and not issubclass(obj, BaseException)]
    assert callables
    both = [name for name, obj in callables
            if {"replay", "state_limit"} <= set(inspect.signature(obj).parameters)]
    assert both == []


def test_bench_wrapped_attributes_exist():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    assert wrapped
    missing = [(module, attr) for module, attr, *_ in wrapped
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_bench_called_names_exist():
    used = set()
    for name in ("run.py", "checks.py", "tieback.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in BENCH_MODULES:
                used.add((BENCH_MODULES[node.value.id], node.attr))
    assert {("loglift", n) for n in ("LpmRanking", "make_lpm", "save_ranking",
                                     "f_score", "tree_to_net")} <= used
    missing = sorted((module, attr) for module, attr in used
                     if not hasattr(importlib.import_module(module), attr))
    assert missing == []
    spec = json.loads((BENCH / "workloads.json").read_text())
    config_keys = set().union(*(w["config"] for w in spec["workloads"].values()))
    assert config_keys <= {f.name for f in fields(PipelineConfig)}


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_modules_use_every_module_level_import():
    # __init__.py imports to re-export, so it is left out
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in bound.items()
                   if name not in used]
    assert unused == []


def test_only_petrinet_align_pops_a_heap():
    # one alignment search: the package's one best-first search over a heap
    # is petrinet.align, so every heappop, called or aliased, sits there
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        align = [node for node in tree.body if path.name == "petrinet.py"
                 and isinstance(node, ast.FunctionDef) and node.name == "align"]
        in_align = {id(node) for top in align for node in ast.walk(top)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name == "heappop":
                (inside if id(node) in in_align else outside).append((path.name, node.lineno))
    assert inside
    assert outside == []


def test_every_private_helper_is_referenced():
    # a private module-level function or class that nothing in the package
    # names outside its own body is dead code left behind by a change
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    helpers = [(name, node) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    assert helpers
    unreferenced = []
    for name, helper in helpers:
        own = {id(node) for node in ast.walk(helper)}
        if not any((isinstance(node, ast.Name) and node.id == helper.name
                    or isinstance(node, ast.Attribute) and node.attr == helper.name)
                   and id(node) not in own
                   for tree in trees.values() for node in ast.walk(tree)):
            unreferenced.append((name, helper.lineno, helper.name))
    assert unreferenced == []


def test_package_imports_only_at_module_level():
    # an import inside a function or class body hides a module's
    # dependencies from its header and from the checks above
    nested = []
    for path in sorted(SRC.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [(path.name, node.lineno) for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
