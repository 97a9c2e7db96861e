"""End-to-end orchestration: discover patterns, abstract, rediscover, score.

run_pipeline chains the stages on one log and writes the run artifacts;
run_sweep grids diversity threshold, pattern count, and composition over
the same log; generate_log builds seeded synthetic logs with planted
patterns and injected noise for desk-scale experiments. All randomness
lives in generate_log; the pipeline itself is deterministic.
"""

import random
import string
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .abstraction import (COMPOSITIONS, INTERLEAVING, AbstractionModel,
                          abstract_log, compose, patterns_from_models)
from .conformance import QualityReport, evaluate, expand_model
from .discovery import discover_model
from .errors import ConfigError, LogliftError, StageError
from .eventlog import COMPLETE, Event, EventLog, Trace, load_log, save_xes
from .lpm import (AND, ORDERS, SEQ, XOR, LocalProcessModel, LpmRanking,
                  ProcessTree, discover_lpms, filter_diverse, save_ranking,
                  tree_to_net)
from .petrinet import DEFAULT_STATE_LIMIT, AcceptingPetriNet
from .pnml import save_pnml

SWEEP_T_DIVS = [round(0.2 + 0.1 * i, 1) for i in range(8)]
SWEEP_KS = [1, 2, 3, 4, 5]


def _io(default=None):
    """A field saying where or how the log is read or the run written: not
    a run parameter, so config_text leaves it out."""
    return field(default=default, metadata={"io": True})


@dataclass
class PipelineConfig:
    input: str | None = _io()
    out_dir: str | None = _io()
    k: int = 3
    t_div: float = 0.5
    composition: str = INTERLEAVING
    noise: float = 0.2
    keep_foreign: bool = False
    order: str = "topk_then_filter"
    state_limit: int = DEFAULT_STATE_LIMIT
    max_activities: int = 4
    beam_width: int = 50
    max_results: int = 20
    min_support: int = 1
    case_col: str = _io("case")
    activity_col: str = _io("activity")
    time_col: str | None = _io()

    def lpm_search(self) -> dict:
        """Keyword arguments for discover_lpms."""
        return {"max_activities": self.max_activities,
                "beam_width": self.beam_width,
                "min_support": self.min_support,
                "max_results": self.max_results,
                "state_limit": self.state_limit}

    def validate(self) -> None:
        if not 0 <= self.t_div <= 1:
            raise ConfigError(f"t_div must be in [0, 1], got {self.t_div}")
        if not 0 <= self.noise < 1:
            raise ConfigError(f"noise must be in [0, 1), got {self.noise}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.composition not in COMPOSITIONS:
            raise ConfigError(f"unknown composition {self.composition!r}")
        if self.order not in ORDERS:
            raise ConfigError(f"unknown order {self.order!r}")
        for name in ("max_activities", "beam_width", "max_results", "state_limit"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class PipelineResult:
    ranking: LpmRanking
    selected: list[LocalProcessModel]
    model: AbstractionModel
    abstracted: EventLog
    tree: ProcessTree
    baseline_tree: ProcessTree
    expanded: AcceptingPetriNet
    report: QualityReport
    baseline_report: QualityReport


@contextmanager
def _stage(name: str):
    """Re-raise domain errors and failed file reads or writes with the
    failing stage attached."""
    try:
        yield
    except StageError:
        raise
    except LogliftError as exc:
        raise StageError(name, str(exc)) from exc
    except OSError as exc:
        if exc.filename is None:
            raise StageError(name, str(exc)) from exc
        raise StageError(name, f"{exc.filename}: {exc.strerror}") from exc


def load_input(config: PipelineConfig) -> EventLog:
    if not config.input:
        raise ConfigError("no input log given")
    with _stage("load"):
        return load_log(config.input, case_col=config.case_col,
                        activity_col=config.activity_col,
                        time_col=config.time_col)


def _lift(log: EventLog, config: PipelineConfig, selected: list[LocalProcessModel]):
    """Abstract the log with the selected patterns, discover a model of the
    lifted log and score its expansion against the log: (abstraction
    model, lifted log, tree, expanded net, report)."""
    with _stage("abstract"):
        model = compose(patterns_from_models(selected), config.composition)
        abstracted = abstract_log(log, model, keep_foreign=config.keep_foreign,
                                  state_limit=config.state_limit)
    with _stage("discover"):
        tree = discover_model(abstracted, noise=config.noise)
    with _stage("evaluate"):
        expanded = expand_model(tree_to_net(tree), model.patterns)
        report = evaluate(log, expanded, state_limit=config.state_limit)
    return model, abstracted, tree, expanded, report


def _select(ranking: LpmRanking, config: PipelineConfig) -> list[LocalProcessModel]:
    """The models of the ranking that config's diversity filter keeps;
    keeping none raises LogliftError."""
    selected = filter_diverse(ranking, config.t_div, k=config.k, order=config.order)
    if not selected:
        raise LogliftError("no patterns survived filtering")
    return selected


def run_stages(log: EventLog, config: PipelineConfig,
               ranking: LpmRanking | None = None) -> PipelineResult:
    """All pipeline computation; artifacts are the caller's business."""
    config.validate()
    with _stage("discover-lpms"):
        if ranking is None:
            ranking = discover_lpms(log, **config.lpm_search())
    with _stage("filter"):
        selected = _select(ranking, config)
    model, abstracted, tree, expanded, report = _lift(log, config, selected)
    with _stage("discover"):
        baseline_tree = discover_model(log, noise=config.noise)
    with _stage("evaluate"):
        baseline = evaluate(log, tree_to_net(baseline_tree),
                            state_limit=config.state_limit)
    return PipelineResult(ranking=ranking, selected=selected, model=model,
                          abstracted=abstracted, tree=tree,
                          baseline_tree=baseline_tree, expanded=expanded,
                          report=report, baseline_report=baseline)


def report_csv(reports: dict[str, QualityReport]) -> str:
    lines = ["model,fitness,precision,f_score"]
    for name, rep in reports.items():
        lines.append(f"{name},{rep.fitness:.6f},{rep.precision:.6f},{rep.f_score:.6f}")
    return "\n".join(lines) + "\n"


def config_text(config: PipelineConfig) -> str:
    """key=value dump of the run parameters, readable back as a --config
    file."""
    lines = []
    for f in fields(config):
        if f.metadata.get("io"):
            continue
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{f.name}={value}\n")
    return "".join(lines)


def write_artifacts(out_dir: str, result: PipelineResult,
                    config: PipelineConfig) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.txt").write_text(config_text(config))
    save_ranking(result.ranking, out / "lpms")
    save_xes(result.abstracted, out / "abstracted.xes")
    save_pnml(result.model.net, out / "abstraction_model.pnml",
              transition_tags=result.model.transition_tags())
    save_pnml(tree_to_net(result.tree), out / "model.pnml")
    (out / "model.tree.txt").write_text(str(result.tree) + "\n")
    save_pnml(result.expanded, out / "expanded.pnml")
    save_pnml(tree_to_net(result.baseline_tree), out / "baseline.pnml")
    (out / "baseline.tree.txt").write_text(str(result.baseline_tree) + "\n")
    (out / "report.csv").write_text(report_csv({
        "expanded": result.report, "baseline": result.baseline_report}))


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Full run: load, stages, artifacts (nothing written on failure)."""
    log = load_input(config)
    result = run_stages(log, config)
    if config.out_dir:
        with _stage("write"):
            write_artifacts(config.out_dir, result, config)
    return result


# --------------------------------------------------------------------- sweep

SWEEP_COLUMNS = ["log", "k", "t_div", "composition", "fitness", "precision",
                 "f_score", "baseline_f_score", "status", "error"]


def run_sweep(log: EventLog, config: PipelineConfig,
              t_divs=None, ks=None, compositions=None,
              log_name: str = "log") -> list[dict]:
    """One row per (t_div, k, composition) cell; cell failures become error
    rows and the sweep continues. The ranking and the baseline are computed
    once, and cells resolving to the same pattern selection share results."""
    t_divs = SWEEP_T_DIVS if t_divs is None else list(t_divs)
    ks = SWEEP_KS if ks is None else list(ks)
    compositions = list(COMPOSITIONS if compositions is None else compositions)
    config.validate()

    shared_error: str | None = None
    baseline_f = ""
    ranking = LpmRanking()
    try:
        ranking = discover_lpms(log, **config.lpm_search())
        baseline = evaluate(log, tree_to_net(discover_model(log, noise=config.noise)),
                            state_limit=config.state_limit)
        baseline_f = f"{baseline.f_score:.6f}"
    except LogliftError as exc:
        # Discovery or the baseline failing must not abort the sweep: the
        # grid stays complete, every cell just reports the shared error.
        shared_error = str(exc)

    cache: dict[tuple, tuple[QualityReport | None, str | None]] = {}
    rows = []
    for t_div in t_divs:
        for k in ks:
            for composition in compositions:
                row = {"log": log_name, "k": k, "t_div": t_div,
                       "composition": composition, "fitness": "",
                       "precision": "", "f_score": "",
                       "baseline_f_score": baseline_f,
                       "status": "ok", "error": ""}
                try:
                    if shared_error is not None:
                        raise LogliftError(shared_error)
                    cell = replace(config, k=k, t_div=t_div,
                                   composition=composition)
                    cell.validate()
                    selected = _select(ranking, cell)
                    key = (tuple(m.key for m in selected), composition)
                    hit = cache.get(key)
                    if hit is None:
                        hit = cache[key] = (_lift(log, cell, selected)[-1], None)
                except LogliftError as exc:
                    hit = (None, str(exc))
                    row["status"] = "error"
                report, err = hit
                if report is not None:
                    row["fitness"] = f"{report.fitness:.6f}"
                    row["precision"] = f"{report.precision:.6f}"
                    row["f_score"] = f"{report.f_score:.6f}"
                else:
                    row["status"] = "error"
                    row["error"] = err or ""
                rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- generator

def sample_word(tree: ProcessTree, rng: random.Random) -> list[str]:
    """One random visible run of the tree (loops redo 0-2 times)."""
    if tree.is_leaf():
        return [] if tree.label is None else [tree.label]
    if tree.op == SEQ:
        out = []
        for child in tree.children:
            out.extend(sample_word(child, rng))
        return out
    if tree.op == XOR:
        return sample_word(rng.choice(tree.children), rng)
    if tree.op == AND:
        streams = [sample_word(child, rng) for child in tree.children]
        return _random_merge(streams, rng)
    body, redo = tree.children
    out = sample_word(body, rng)
    for _ in range(rng.randint(0, 2)):
        out.extend(sample_word(redo, rng))
        out.extend(sample_word(body, rng))
    return out


def _random_merge(streams: list[list[str]], rng: random.Random) -> list[str]:
    """Uniform interleaving preserving each stream's internal order."""
    streams = [list(s) for s in streams if s]
    out = []
    remaining = sum(len(s) for s in streams)
    while remaining:
        pick = rng.randrange(remaining)
        for s in streams:
            if pick < len(s):
                out.append(s.pop(0))
                break
            pick -= len(s)
        streams = [s for s in streams if s]
        remaining -= 1
    return out


def noise_alphabet(used: set[str], count: int = 5) -> list[str]:
    pool = [c for c in string.ascii_lowercase if c not in used]
    if len(pool) >= count:
        return pool[:count]
    return pool + [f"n{i}" for i in range(count - len(pool))]


def generate_log(patterns: list[ProcessTree], instances: int, traces: int,
                 composition: str = INTERLEAVING, noise_rate: float = 0.0,
                 seed: int = 0) -> EventLog:
    """Seeded synthetic log: each trace holds `instances` runs of every
    pattern, arranged per the composition (interleaving keeps runs whole in
    shuffled order, parallel merges one stream per pattern), plus injected
    foreign noise events sized so they make up about noise_rate of the
    trace."""
    if not patterns:
        raise ConfigError("generator needs at least one pattern tree")
    if instances < 0 or traces < 0:
        raise ConfigError("instances and traces must be >= 0")
    if not 0 <= noise_rate < 1:
        raise ConfigError(f"noise_rate must be in [0, 1), got {noise_rate}")
    if composition not in COMPOSITIONS:
        raise ConfigError(f"unknown composition {composition!r}")
    used: set[str] = set()
    for tree in patterns:
        used |= set(tree.activities())
    noise_pool = noise_alphabet(used)
    # events are immutable, so every occurrence of an activity is one object
    event_of = {a: Event(activity=a, lifecycle=COMPLETE) for a in used | set(noise_pool)}

    rng = random.Random(seed)
    out = []
    for i in range(traces):
        runs = [[sample_word(tree, rng) for _ in range(instances)]
                for tree in patterns]
        if composition == INTERLEAVING:
            whole = [run for per_pattern in runs for run in per_pattern]
            rng.shuffle(whole)
            base = [a for run in whole for a in run]
        else:
            streams = [[a for run in per_pattern for a in run]
                       for per_pattern in runs]
            base = _random_merge(streams, rng)
        if noise_rate > 0:
            # fractional part resolved by coin flip so the rate holds in
            # expectation (plain rounding skews short traces)
            want = len(base) * noise_rate / (1 - noise_rate)
            extra = int(want) + (1 if rng.random() < want - int(want) else 0)
            for _ in range(extra):
                base.insert(rng.randrange(len(base) + 1), rng.choice(noise_pool))
        out.append(Trace(case_id=f"case_{i}", events=[event_of[a] for a in base]))
    return EventLog(traces=out)
