"""loglift benchmark: seeded pipeline workloads, end-to-end and per-layer.

    python3 bench/run.py --workload search|lift|all --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from anywhere; loglift is imported from src/ next to bench/. Each run
generates its logs from --seed (op i uses the log of seed + i, cycling
through a fixed pool), writes them as XES, then runs ops back to back for
about --seconds and checks every op's outputs. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. `--workload all` runs each workload in its own process.
Workload definitions live in bench/workloads.json; details in
bench/README.md.
"""

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())
SETUP_REPS = 9
MIN_OPS = 3


class Setup:
    """One set-up's live modules, generated inputs and planted ranking."""

    def __init__(self, modules: dict, inputs: list[dict], ranking):
        self.modules = modules
        self.inputs = inputs
        self.ranking = ranking


def import_loglift() -> dict:
    """Import loglift afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "loglift" or n.startswith("loglift.")]:
        del sys.modules[name]
    importlib.import_module("loglift")
    return {n: m for n, m in sys.modules.items()
            if n == "loglift" or n.startswith("loglift.")}


def set_up(spec: dict, seed: int, pool: int, traces: int, inputs_dir: Path) -> Setup:
    modules = import_loglift()
    ll = modules["loglift"]
    patterns = [ll.parse_tree(p) for p in SPEC["patterns"]]
    gen = spec["generator"]
    inputs_dir.mkdir(parents=True)
    inputs = []
    for j in range(pool):
        log = ll.generate_log(patterns, instances=gen["instances"], traces=traces,
                              composition=gen["composition"],
                              noise_rate=SPEC["noise_rate"], seed=seed + j)
        path = inputs_dir / f"log_{j}.xes"
        ll.save_xes(log, str(path))
        events = sum(len(checks.complete_activities(t)) for t in log)
        inputs.append({"sub_seed": seed + j, "path": path, "log": log, "events": events})
    ranking = None
    if spec.get("ranking") == "planted":
        ranking = ll.LpmRanking(models=[ll.make_lpm(t) for t in patterns])
        ll.save_ranking(ranking, str(inputs_dir / "planted_lpms"))
    return Setup(modules, inputs, ranking)


def run_op(env: Setup, spec: dict, log_in: dict, out_dir: Path):
    """The workload's op, called through module attributes so that the
    traced run's wrappers see it."""
    pipeline = env.modules["loglift.pipeline"]
    config = pipeline.PipelineConfig(input=str(log_in["path"]), out_dir=str(out_dir),
                                     **spec["config"])
    if env.ranking is None:
        return pipeline.run_pipeline(config)
    log = pipeline.load_input(config)
    result = pipeline.run_stages(log, config, ranking=env.ranking)
    pipeline.write_artifacts(str(out_dir), result, config)
    return result


def timed_op(env: Setup, spec: dict, i: int, out_root: Path, tracer=None) -> dict:
    log_in = env.inputs[i % len(env.inputs)]
    out_dir = out_root / f"op_{i}{'_traced' if tracer else ''}"
    ll = env.modules["loglift"]
    rec = {"op": i, "sub_seed": log_in["sub_seed"], "events": log_in["events"],
           "traced": tracer is not None, "error": None, "problems": []}
    span = None
    if tracer is not None:
        tracer.op = i
        tracer.install()
        span = tracer.open("op", "pipeline")
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = run_op(env, spec, log_in, out_dir)
    except ll.LogliftError as exc:
        result = None
        rec["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        rec["wall_s"] = time.perf_counter() - w0
        rec["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            tracer.close(span)
            tracer.uninstall()
    if result is not None:
        rec["problems"] = checks.check_op(ll, log_in["log"], result, out_dir)
        rec.update(checks.counts(log_in["log"], result))
        rec["digest"] = checks.digest(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def ops_loop(env: Setup, spec: dict, seconds: float, min_ops: int, out_root: Path,
             tracer=None) -> list[dict]:
    """Closed loop, one op at a time: start another op while it is expected
    to end within `seconds` (and always run at least min_ops). With a
    tracer each op runs twice on the same log, untraced and traced, the
    order alternating, so the pair gives the tracing overhead."""
    records: list[dict] = []
    spent: list[float] = []
    t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        if len(records) >= min_ops and (elapsed >= seconds
                             or elapsed + statistics.median(spent) > seconds):
            break
        s0 = time.perf_counter()
        if tracer is None:
            records.append(timed_op(env, spec, i, out_root))
        else:
            pair = [timed_op(env, spec, i, out_root, tracer if (i + k) % 2 else None)
                    for k in range(2)]
            digests = {r.get("digest") for r in pair}
            if len(digests) != 1:
                for r in pair:
                    r["problems"].append("traced and untraced artifacts differ")
            records.extend(pair)
        spent.append(time.perf_counter() - s0)
        i += 1
    return records


def failed(rec: dict) -> bool:
    return rec["error"] is not None or bool(rec["problems"])


def end_to_end(records: list[dict], setup_times: list[float]) -> dict:
    ok = [r for r in records if not failed(r)]
    walls = [r["wall_s"] for r in records]
    metrics = {
        "events_per_s": (sum(r["events"] for r in records) / sum(walls), "events/s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "op_cpu_s_p50": (statistics.median(r["cpu_s"] for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "f_score_mean": (statistics.fmean(r["f_score"] for r in ok) if ok else 0.0, "ratio"),
        "f_gain_mean": (statistics.fmean(r["f_score"] - r["baseline_f_score"] for r in ok)
                        if ok else 0.0, "ratio"),
        "lifted_share": (sum(r["pattern_events"] - r["left_low_level"] for r in ok)
                         / sum(r["events"] for r in ok) if ok else 0.0, "ratio"),
    }
    return metrics


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32s} {value:14.6g} {unit}{'  ' + note if note else ''}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> int:
    spec = SPEC["workloads"][name]
    traces = spec["smoke_traces"] if smoke else spec["generator"]["traces"]
    pool = 2 if smoke else spec["pool"]
    min_ops = 1 if smoke else MIN_OPS
    work = ROOT / ".bench_work" / f"{name}-s{seed}-t{int(trace)}"
    out = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            env = set_up(spec, seed, pool, traces, work / "inputs")
            setup_times.append(time.perf_counter() - t0)
        ll = env.modules["loglift"]
        tracer = tracing.Tracer(env.modules, ll.SearchLimitError) if trace else None
        records = ops_loop(env, spec, seconds, min_ops, work / "ops", tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_failed = sum(failed(r) for r in records)
    print(f"workload {name} seed {seed} trace {int(trace)}{' smoke' if smoke else ''}: "
          f"{len(records)} ops, {n_failed} failed, {len(env.inputs)} logs of "
          f"{traces} traces in the pool")
    for r in records:
        if failed(r):
            print(f"  FAILED op {r['op']} (log seed {r['sub_seed']}): "
                  f"{r['error'] or '; '.join(r['problems'][:3])}")
    result = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
              "setup_s": setup_times, "ops": records}
    if not trace:
        metrics = end_to_end(records, setup_times)
        print("end-to-end (tracing off):")
        print_metrics(dict(metrics, failed_ops_share=(n_failed / len(records), "ratio")),
                      {"events_per_s": f"(over all {len(records)} ops)",
                       "op_s_p50": f"(n={len(records)} ops)",
                       "op_cpu_s_p50": f"(n={len(records)} ops)",
                       "setup_s": f"(median of {SETUP_REPS} set-ups)"})
    else:
        traced_ops = [r for r in records if r["traced"] and not failed(r)]
        if not traced_ops:
            print("no traced op succeeded; no per-layer metrics", file=sys.stderr)
            return 1
        metrics, shares = tracing.per_layer(tracer.spans, traced_ops)
        eps = {}
        for flag in (False, True):
            group = [r for r in records if r["traced"] == flag]
            eps[flag] = sum(r["events"] for r in group) / sum(r["wall_s"] for r in group)
        metrics["trace.overhead_share"] = (1 - eps[True] / eps[False], "ratio")
        print(f"per-layer (traced run, {len(traced_ops)} traced ops; *_s are median "
              "per-op time within the layer; no layer waits: single thread, no queues):")
        print_metrics(metrics, {"trace.overhead_share":
                                f"(1 - traced/untraced events_per_s; untraced "
                                f"{eps[False]:.4g} events/s)"})
        for check in SPEC["design_checks"]:
            if name in check["workloads"]:
                share = sum(shares[layer] for layer in check["layers"])
                verdict = "PASS" if share > check["min_share"] else "FAIL"
                print(f"design check: {' + '.join(check['layers'])} is {share:.1%} of op "
                      f"time (needs > {check['min_share']:.0%}): {verdict}")
                result["design_check"] = {"share": share, "pass": share > check["min_share"]}
        out.mkdir(exist_ok=True)
        spans_path = out / f"{name}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.records()))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    digests = [f"{r['sub_seed']}:{r.get('digest', '-')[:12]}" for r in records if not r["traced"]]
    print(f"artifact digests (log seed:sha256): {' '.join(digests)}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, default=str, indent=1))
    print(json.dumps({"correct": n_failed == 0, "attempted": len(records),
                      "failed": n_failed, "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {}
    for name in SPEC["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny logs and a single op: checks the harness, not speed")
    args = parser.parse_args(argv)
    if not (SRC / "loglift" / "__init__.py").is_file():
        print(f"loglift sources not found under {SRC}; run from a loglift checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
