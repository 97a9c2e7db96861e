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
