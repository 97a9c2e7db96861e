"""One-off traced run on the ROADMAP's W300 log, to tie the benchmark back
to its baseline table. Not a workload: it takes a few minutes.

    python3 bench/tieback.py

W300 is generate_log([seq(a,b,c), and(d,e), loop(f,g)], instances=2,
traces=300, noise_rate=0.3, seed=7); run_stages runs with the default
PipelineConfig, once for interleaving and once for parallel. Prints each
stage's traced wall time, children included, as the ROADMAP table gives it.
"""

import json
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
STAGES = (("discover_lpms", "lpm.discover"), ("abstract_log", "abstraction.abstract"),
          ("discover_model (both)", "discovery.discover"),
          ("evaluate expanded", "conformance.eval_expanded"),
          ("evaluate baseline", "conformance.eval_baseline"))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import loglift
    import loglift.pipeline as pipeline

    patterns = [loglift.parse_tree(p) for p in SPEC["patterns"]]
    for composition in ("interleaving", "parallel"):
        log = loglift.generate_log(patterns, instances=2, traces=300,
                                   composition=composition,
                                   noise_rate=SPEC["noise_rate"], seed=7)
        events = sum(len(t) for t in log)
        tracer = tracing.Tracer(dict(sys.modules), loglift.SearchLimitError)
        tracer.op = 0
        tracer.install()
        span = tracer.open("op", "pipeline")
        t0 = time.perf_counter()
        try:
            result = pipeline.run_stages(log, pipeline.PipelineConfig(composition=composition))
        finally:
            wall = time.perf_counter() - t0
            tracer.close(span)
            tracer.uninstall()
        by_name: dict[str, float] = {}
        for rec in tracer.spans:
            name = rec[tracing.NAME]
            by_name[name] = by_name.get(name, 0.0) + rec[tracing.END] - rec[tracing.START]
        print(f"W300 {composition}: {len(log)} traces, {events} events, "
              f"run_stages {wall:.1f} s")
        for label, name in STAGES:
            print(f"  {label:24s} {by_name.get(name, 0.0):8.2f} s")
        print(f"  selected: {', '.join(str(m.tree) for m in result.selected)}")
        print(f"  model: {result.tree}")
        print(f"  baseline: {result.baseline_tree}")
        print(f"  f_score {result.report.f_score:.4f}, baseline "
              f"{result.baseline_report.f_score:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
