"""Span tracing for the benchmark's traced run.

Spans are recorded by wrapping public callables on loglift's module
attributes, so the program itself carries no tracing code. A span is
(name, layer, start, end, parent span, op id); spans stay in memory and
are written out when the run ends. Layers are loglift's modules.

The loop is single-threaded and has no queues, so no layer ever waits:
only busy (self) time and work counts are reported.

Replay construction is the only petrinet span. Replay stepping happens
lazily inside the caller (segmentation, A* alignment) and is counted in
that caller's layer; wrapping every step would distort what it measures.
"""

import math
import statistics
import time
from collections import defaultdict

LAYERS = ("eventlog", "lpm", "abstraction", "discovery", "conformance",
          "pnml", "pipeline", "petrinet")

# (module, attribute, span name, layer). Wrapping a name in the module that
# calls it separates the same function by caller: align_words is abstraction
# when loglift.abstraction calls it and conformance when loglift.conformance
# does.
WRAPPED = (
    ("loglift.pipeline", "load_input", "pipeline.load_input", "pipeline"),
    ("loglift.pipeline", "run_stages", "pipeline.run_stages", "pipeline"),
    ("loglift.pipeline", "write_artifacts", "pipeline.write_artifacts", "pipeline"),
    ("loglift.pipeline", "load_log", "eventlog.load", "eventlog"),
    ("loglift.pipeline", "save_xes", "eventlog.save", "eventlog"),
    ("loglift.pipeline", "save_pnml", "pnml.save", "pnml"),
    ("loglift.pipeline", "save_ranking", "pnml.save", "pnml"),
    ("loglift.pipeline", "discover_lpms", "lpm.discover", "lpm"),
    ("loglift.pipeline", "filter_diverse", "lpm.filter", "lpm"),
    ("loglift.pipeline", "compose", "abstraction.compose", "abstraction"),
    ("loglift.pipeline", "abstract_log", "abstraction.abstract", "abstraction"),
    ("loglift.pipeline", "discover_model", "discovery.discover", "discovery"),
    ("loglift.pipeline", "expand_model", "conformance.expand", "conformance"),
    ("loglift.pipeline", "evaluate", "conformance.eval", "conformance"),
    ("loglift.abstraction", "align_words", "abstraction.align", "abstraction"),
    ("loglift.conformance", "align_words", "conformance.align", "conformance"),
    ("loglift.lpm", "Replay", "lpm.replay_build", "petrinet"),
    ("loglift.abstraction", "Replay", "abstraction.replay_build", "petrinet"),
    ("loglift.conformance", "Replay", "conformance.replay_build", "petrinet"),
)

NAME, LAYER, START, END, PARENT, OP, ERROR = range(7)


class Tracer:
    """Records spans around the wrapped callables while installed."""

    def __init__(self, modules: dict, search_limit_error: type):
        self.modules = modules
        self.search_limit_error = search_limit_error
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._expanded = None

    def open(self, name: str, layer: str) -> list:
        rec = [name, layer, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "conformance.eval":
                # the pipeline scores the net expand_model returned, then the
                # baseline; tell them apart by identity, not by call order
                net = args[1] if len(args) > 1 else kwargs.get("net")
                span_name = ("conformance.eval_expanded" if net is tracer._expanded
                             else "conformance.eval_baseline")
            rec = tracer.open(span_name, layer)
            try:
                out = fn(*args, **kwargs)
            except tracer.search_limit_error:
                rec[ERROR] = "search_limit"
                raise
            finally:
                tracer.close(rec)
            if name == "conformance.expand":
                tracer._expanded = out
            return out
        return traced

    def install(self) -> None:
        for module, attr, name, layer in WRAPPED:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def records(self) -> list[dict]:
        keys = ("name", "layer", "start", "end", "parent", "op", "error")
        return [dict(zip(keys, rec)) for rec in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its descendants spend in other
    layers: a call's cost within its own layer."""
    own = self_times(spans)
    within = list(own)
    # children are appended after their parent, so a reverse pass sees a
    # span's whole subtree before the span itself
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent is not None and spans[parent][LAYER] == spans[i][LAYER]:
            within[parent] += within[i]
    return within


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def per_layer(spans: list[list], ops: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and layer shares of op time
    from the spans of the traced ops. ops carry each op's id and the counts
    read off its result."""
    own = self_times(spans)
    within = layer_times(spans)
    by_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    layer_self: dict[str, float] = defaultdict(float)
    op_total = 0.0
    align_ms: dict[str, list[float]] = {"abstraction": [], "conformance": []}
    limit_hits: dict[str, int] = {"abstraction": 0, "conformance": 0}
    for i, rec in enumerate(spans):
        name, layer = rec[NAME], rec[LAYER]
        layer_self[layer] += own[i]
        per = by_op[rec[OP]]
        per[name] += within[i]
        per[name + "#calls"] += 1
        if name == "op":
            op_total += rec[END] - rec[START]
        if name.endswith(".align"):
            align_ms[layer].append((rec[END] - rec[START]) * 1e3)
            if rec[ERROR] == "search_limit":
                limit_hits[layer] += 1

    def med(key: str) -> float:
        return statistics.median(by_op[op["op"]][key] for op in ops)

    def med_count(key: str) -> float:
        return statistics.median(op[key] for op in ops)

    replays_built = med("lpm.replay_build#calls")
    discover_s = med("lpm.discover")
    metrics = {
        "eventlog.load_s": (med("eventlog.load"), "s"),
        "eventlog.save_s": (med("eventlog.save"), "s"),
        "pnml.save_s": (med("pnml.save"), "s"),
        "lpm.discover_s": (discover_s, "s"),
        "lpm.filter_s": (med("lpm.filter"), "s"),
        "lpm.replays_built": (replays_built, "count"),
        "lpm.replay_ms": (discover_s / replays_built * 1e3 if replays_built else 0.0, "ms"),
        "abstraction.compose_s": (med("abstraction.compose"), "s"),
        "abstraction.abstract_s": (med("abstraction.abstract"), "s"),
        "abstraction.align_calls": (med("abstraction.align#calls"), "count"),
        "abstraction.search_limit_hits": (limit_hits["abstraction"], "count"),
        "abstraction.hl_events": (med_count("hl_events"), "count"),
        "discovery.discover_s": (med("discovery.discover"), "s"),
        "discovery.model_nodes": (med_count("model_nodes"), "count"),
        "discovery.baseline_nodes": (med_count("baseline_nodes"), "count"),
        "conformance.expand_s": (med("conformance.expand"), "s"),
        "conformance.eval_expanded_s": (med("conformance.eval_expanded"), "s"),
        "conformance.eval_baseline_s": (med("conformance.eval_baseline"), "s"),
        "conformance.align_calls": (med("conformance.align#calls"), "count"),
        "conformance.search_limit_hits": (limit_hits["conformance"], "count"),
        "petrinet.build_s": (statistics.median(
            sum(by_op[op["op"]][n] for n in ("lpm.replay_build", "abstraction.replay_build",
                                           "conformance.replay_build"))
            for op in ops), "s"),
        # the op span's time within its own layer already takes in the
        # nested pipeline spans (load_input, run_stages, write_artifacts)
        "pipeline.self_s": (med("op"), "s"),
    }
    for layer in ("abstraction", "conformance"):
        calls = align_ms[layer] or [0.0]
        metrics[f"{layer}.align_ms_p50"] = (percentile(calls, 50), "ms")
        metrics[f"{layer}.align_ms_p99"] = (percentile(calls, 99), "ms")
    metrics["conformance.align_ms_max"] = (max(align_ms["conformance"] or [0.0]), "ms")
    shares = {layer: layer_self[layer] / op_total if op_total else 0.0 for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (shares[layer], "ratio")
    return metrics, shares
