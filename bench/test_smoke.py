"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that one command prints every metric BENCHMARK.json names, with
its unit, for every workload; that equal seeds give byte-identical
artifacts; and that the benchmark refuses to run without loglift's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload: str, seed: int, trace: int) -> list[str]:
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    lines = smoke("all", 3, trace)
    combined = json.loads(lines[-1])
    assert list(combined) == [w["name"] for w in BENCH["workloads"]]
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    if not trace:
        # reported through "failed"/"attempted" in the JSON line, by name in the text
        wanted_text = dict(wanted, failed_ops_share="ratio")
    else:
        wanted_text = wanted
    for result in combined.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in wanted_text.items():
        printed = re.findall(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b", text, re.M)
        assert len(printed) == len(combined), name


def digests(lines: list[str]) -> dict[str, str]:
    line = next(x for x in lines if x.startswith("artifact digests"))
    pairs = [p.split(":") for p in line.split(": ", 1)[1].split()]
    seen: dict[str, str] = {}
    for seed, digest in pairs:
        assert seen.setdefault(seed, digest) == digest, f"log seed {seed} differs within a run"
    return seen


def test_equal_seeds_give_identical_artifacts():
    first = digests(smoke("lift", 5, 0))
    second = digests(smoke("lift", 5, 0))
    assert first == second
    assert digests(smoke("lift", 6, 0)) != first


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "lift", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
