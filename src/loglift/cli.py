"""Command line interface.

Subcommands mirror the pipeline stages (discover-lpms, abstract, discover,
evaluate), plus end-to-end runs (pipeline), grid experiments (sweep), and
synthetic log generation (generate). Options may come from a flat
key=value config file (--config); explicit flags win over the file, the
file wins over built-in defaults. Exit codes: 0 success, 1 usage or
configuration problem, 2 stage failure.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .abstraction import COMPOSITIONS, abstract_log, compose, patterns_from_models
from .conformance import evaluate, expand_model
from .discovery import discover_model
from .errors import ConfigError, LogliftError, StageError
from .eventlog import save_xes
from .lpm import (ORDERS, discover_lpms, load_ranking, parse_tree, save_ranking,
                  tree_to_net)
from .pipeline import (PipelineConfig, generate_log, load_input, run_pipeline,
                       run_sweep, sweep_csv, _select, _stage)
from .pnml import parse_pnml, save_pnml


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


_PARSERS = {bool: _parse_bool, int: int, float: float}

# Every option as (default, parser of a config file value): the fields of
# PipelineConfig, then the CLI's own generator, sweep-list and path options.
_OPTIONS = {f.name: (f.default, _PARSERS.get(f.type, str))
            for f in fields(PipelineConfig)}
_OPTIONS.update({
    "instances": (2, int), "traces": (50, int), "noise_rate": (0.0, float),
    "seed": (0, int), "patterns": (None, str),
    "t_divs": (None, str), "ks": (None, str), "compositions": (None, str),
    "out": (None, str), "lpms": (None, str), "model": (None, str),
    "model_out": (None, str), "tree_out": (None, str),
})


def _read_config(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{num}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{num}: unknown option {key!r}")
        try:
            values[key] = _OPTIONS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{num}: bad value for {key}: {value!r}") from exc
    return values


def _pipeline_config(opts: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig(**{f.name: getattr(opts, f.name)
                               for f in fields(PipelineConfig)})
    config.validate()
    return config


# ------------------------------------------------------------- subcommands

def cmd_discover_lpms(opts: argparse.Namespace) -> int:
    config = _pipeline_config(opts)
    log = load_input(config)
    with _stage("discover-lpms"):
        ranking = discover_lpms(log, **config.lpm_search())
        save_ranking(ranking, opts.out_dir)
    for model in ranking:
        print(f"rank {model.rank}: support={model.support} {model.tree}")
    return 0


def cmd_abstract(opts: argparse.Namespace) -> int:
    config = _pipeline_config(opts)
    log = load_input(config)
    with _stage("filter"):
        patterns = patterns_from_models(_select(load_ranking(opts.lpms), config))
    with _stage("abstract"):
        model = compose(patterns, config.composition)
        abstracted = abstract_log(log, model, keep_foreign=config.keep_foreign,
                                  state_limit=config.state_limit)
        save_xes(abstracted, opts.out)
        if opts.model_out:
            save_pnml(model.net, opts.model_out,
                      transition_tags=model.transition_tags())
    print(f"abstracted {len(abstracted)} traces -> {opts.out}")
    return 0


def cmd_discover(opts: argparse.Namespace) -> int:
    config = _pipeline_config(opts)
    log = load_input(config)
    with _stage("discover"):
        tree = discover_model(log, noise=config.noise)
        save_pnml(tree_to_net(tree), opts.out)
        if opts.tree_out:
            Path(opts.tree_out).write_text(str(tree) + "\n")
    print(str(tree))
    return 0


def cmd_evaluate(opts: argparse.Namespace) -> int:
    config = _pipeline_config(opts)
    log = load_input(config)
    with _stage("evaluate"):
        net = parse_pnml(opts.model)
        if opts.lpms:
            net = expand_model(net, patterns_from_models(
                _select(load_ranking(opts.lpms), config)))
        report = evaluate(log, net, state_limit=config.state_limit)
        if opts.out:
            Path(opts.out).write_text(report.to_kv())
    print(report.to_kv(), end="")
    return 0


def cmd_pipeline(opts: argparse.Namespace) -> int:
    config = _pipeline_config(opts)
    result = run_pipeline(config)
    print(f"selected={';'.join(str(m.tree) for m in result.selected)}")
    print(f"model={result.tree}")
    print(f"fitness={result.report.fitness:.6f}")
    print(f"precision={result.report.precision:.6f}")
    print(f"f_score={result.report.f_score:.6f}")
    print(f"baseline_f_score={result.baseline_report.f_score:.6f}")
    return 0


def _parse_list(text: str | None, coerce, fallback):
    if text is None:
        return fallback
    return [coerce(part.strip()) for part in text.split(",") if part.strip()]


def cmd_sweep(opts: argparse.Namespace) -> int:
    config = _pipeline_config(opts)
    log = load_input(config)
    try:
        t_divs = _parse_list(opts.t_divs, float, None)
        ks = _parse_list(opts.ks, int, None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    compositions = _parse_list(opts.compositions, str, None)
    rows = run_sweep(log, config, t_divs=t_divs, ks=ks,
                     compositions=compositions, log_name=opts.input)
    with _stage("sweep"):
        Path(opts.out).write_text(sweep_csv(rows))
    print(f"{len(rows)} rows -> {opts.out}")
    if not any(row["status"] == "ok" for row in rows):
        first = next((row["error"] for row in rows), "the grid has no cells")
        print(f"loglift: no sweep cell succeeded: {first}", file=sys.stderr)
        return 2
    return 0


def cmd_generate(opts: argparse.Namespace) -> int:
    if not opts.patterns:
        raise ConfigError("generate needs --patterns")
    try:
        trees = [parse_tree(part) for part in opts.patterns.split(";") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad pattern tree: {exc}") from exc
    log = generate_log(trees, instances=opts.instances, traces=opts.traces,
                       composition=opts.composition,
                       noise_rate=opts.noise_rate, seed=opts.seed)
    with _stage("generate"):
        save_xes(log, opts.out)
    events = sum(len(t.events) for t in log)
    print(f"generated {len(log)} traces / {events} events -> {opts.out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="loglift",
                     description="Event abstraction via local process models")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    S = argparse.SUPPRESS

    def common(p):
        p.add_argument("--config", help="flat key=value options file")
        p.add_argument("--state-limit", dest="state_limit", type=int, default=S)

    def log_input(p):
        p.add_argument("--input", required=True, help="event log (.xes or .csv)")
        p.add_argument("--case-col", dest="case_col", default=S)
        p.add_argument("--activity-col", dest="activity_col", default=S)
        p.add_argument("--time-col", dest="time_col", default=S)

    def selection(p):
        p.add_argument("--k", type=int, default=S, help="patterns to keep")
        p.add_argument("--t-div", dest="t_div", type=float, default=S,
                       help="diversity threshold in [0, 1]")
        p.add_argument("--order", choices=ORDERS, default=S)

    def beam(p):
        p.add_argument("--max-activities", dest="max_activities", type=int, default=S)
        p.add_argument("--beam-width", dest="beam_width", type=int, default=S)
        p.add_argument("--max-results", dest="max_results", type=int, default=S)
        p.add_argument("--min-support", dest="min_support", type=int, default=S)

    p = sub.add_parser("discover-lpms", help="mine and rank local process models")
    common(p); log_input(p); beam(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_discover_lpms)

    p = sub.add_parser("abstract", help="lift a log using saved patterns")
    common(p); log_input(p); selection(p)
    p.add_argument("--lpms", required=True, help="directory written by discover-lpms")
    p.add_argument("--out", required=True, help="abstracted log (.xes)")
    p.add_argument("--model-out", dest="model_out", default=S,
                   help="also write the composed abstraction model (.pnml)")
    p.add_argument("--composition", choices=COMPOSITIONS, default=S)
    p.add_argument("--keep-foreign", dest="keep_foreign", action="store_true", default=S)
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("discover", help="discover a process model from a log")
    common(p); log_input(p)
    p.add_argument("--out", required=True, help="model (.pnml)")
    p.add_argument("--tree-out", dest="tree_out", default=S)
    p.add_argument("--noise", type=float, default=S)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("evaluate", help="score a model against a log")
    common(p); log_input(p); selection(p)
    p.add_argument("--model", required=True, help="model (.pnml)")
    p.add_argument("--lpms", default=S,
                   help="expand pattern-labeled transitions from this directory first")
    p.add_argument("--out", default=S, help="write the report as key=value lines")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="full run: discover, filter, abstract, score")
    common(p); log_input(p); selection(p); beam(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--composition", choices=COMPOSITIONS, default=S)
    p.add_argument("--keep-foreign", dest="keep_foreign", action="store_true", default=S)
    p.add_argument("--noise", type=float, default=S)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="grid over t_div, k, and composition")
    common(p); log_input(p); beam(p)
    p.add_argument("--out", required=True, help="grid results (.csv)")
    p.add_argument("--t-divs", dest="t_divs", default=S,
                   help="comma-separated thresholds (default 0.2..0.9)")
    p.add_argument("--ks", dest="ks", default=S,
                   help="comma-separated pattern counts (default 1..5)")
    p.add_argument("--compositions", dest="compositions", default=S,
                   help="comma-separated compositions (default both)")
    p.add_argument("--order", choices=ORDERS, default=S)
    p.add_argument("--keep-foreign", dest="keep_foreign", action="store_true", default=S)
    p.add_argument("--noise", type=float, default=S)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="write a seeded synthetic log")
    common(p)
    p.add_argument("--out", required=True, help="log (.xes)")
    p.add_argument("--patterns", default=S,
                   help="semicolon-separated pattern trees, e.g. 'seq(a,b,c);and(d,e)'")
    p.add_argument("--instances", type=int, default=S)
    p.add_argument("--traces", type=int, default=S)
    p.add_argument("--noise-rate", dest="noise_rate", type=float, default=S)
    p.add_argument("--composition", choices=COMPOSITIONS, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        # flags over the config file over the defaults; an absent flag is
        # not in ns (default=SUPPRESS), so it overrides nothing
        opts = argparse.Namespace(**{key: default for key, (default, _) in _OPTIONS.items()})
        if ns.config:
            vars(opts).update(_read_config(ns.config))
        vars(opts).update(vars(ns))
        return ns.func(opts)
    except ConfigError as exc:
        print(f"loglift: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"loglift: {exc}", file=sys.stderr)
        return 2
    except LogliftError as exc:
        print(f"loglift: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
