"""Per-op output checks, artifact digests and the counts read off a result."""

import hashlib
from pathlib import Path

EXPECTED_ARTIFACTS = ("run_config.txt", "lpms/index.tsv", "abstracted.xes",
                      "abstraction_model.pnml", "model.pnml", "model.tree.txt",
                      "expanded.pnml", "baseline.pnml", "baseline.tree.txt",
                      "report.csv")


def digest(out_dir: Path) -> str:
    """sha256 over every artifact's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def complete_activities(trace) -> list[str]:
    return [e.activity for e in trace.events if e.is_complete()]


def check_report(label: str, report, net, log, f_score) -> list[str]:
    problems = []
    for name in ("fitness", "precision", "f_score"):
        value = getattr(report, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label} {name} {value} outside [0, 1]")
    if abs(report.f_score - f_score(report.fitness, report.precision)) > 1e-9:
        problems.append(f"{label} f_score {report.f_score} is not the harmonic mean "
                        f"of fitness {report.fitness} and precision {report.precision}")
    if len(report.trace_costs) != len(log):
        problems.append(f"{label} has {len(report.trace_costs)} trace costs "
                        f"for {len(log)} traces")
        return problems
    alphabet = net.alphabet()
    for trace, cost in zip(log, report.trace_costs):
        foreign = sum(1 for a in complete_activities(trace) if a not in alphabet)
        if cost < foreign:
            problems.append(f"{label} cost {cost} of {trace.case_id} is below its "
                            f"{foreign} events outside the net's alphabet")
    return problems


def check_op(ll, log, result, out_dir: Path) -> list[str]:
    """Everything that must hold for one op's outputs; [] when all do."""
    problems = check_report("expanded", result.report, result.expanded, log, ll.f_score)
    problems += check_report("baseline", result.baseline_report,
                             ll.tree_to_net(result.baseline_tree), log, ll.f_score)
    if [t.case_id for t in result.abstracted] != [t.case_id for t in log]:
        problems.append("abstracted log does not keep the case ids in order")
    names = {p.name for p in result.model.patterns}
    if len(names) != len(result.selected):
        problems.append(f"{len(result.selected)} selected patterns "
                        f"but {len(names)} pattern names")
    alphabet = result.model.pattern_alphabet
    for trace in result.abstracted:
        for event in trace.events:
            if event.activity not in alphabet and event.activity not in names:
                problems.append(f"high-level event {event.activity!r} in "
                                f"{trace.case_id} is not a selected pattern")
    missing = [a for a in EXPECTED_ARTIFACTS if not (out_dir / a).is_file()]
    if missing:
        problems.append(f"artifacts missing: {', '.join(missing)}")
    return problems


def counts(log, result) -> dict:
    """Event counts and model sizes behind the quality metrics."""
    alphabet = result.model.pattern_alphabet
    names = {p.name for p in result.model.patterns}
    events = pattern_events = left = hl_events = 0
    for trace in log:
        acts = complete_activities(trace)
        events += len(acts)
        pattern_events += sum(1 for a in acts if a in alphabet)
    for trace in result.abstracted:
        for a in complete_activities(trace):
            left += a in alphabet
            hl_events += a in names
    return {"events": events, "pattern_events": pattern_events,
            "left_low_level": left, "hl_events": hl_events,
            "model_nodes": result.tree.node_count(),
            "baseline_nodes": result.baseline_tree.node_count(),
            "f_score": result.report.f_score,
            "baseline_f_score": result.baseline_report.f_score}
