"""Model quality against a log: expansion, fitness, precision, F-score.

A high-level model is expanded by splicing each pattern-named transition
into a fresh copy of that pattern's net, so the expanded model speaks the
low-level alphabet again and can be scored against the original log.

Fitness is alignment-based: per trace 1 - cost / (|trace| + shortest
visible run of the net), averaged over the log. The shortest visible run
is the cost of aligning the empty word. Precision is escaping edges over
the prefix automaton of the aligned visible model runs (the labels of
synchronous and model moves): at every visited prefix, visible labels the
model enables but the log never takes there count against it. The
model's enabled labels at a prefix are those of every marking the prefix
can reach, silent moves included (Replay's marking set for that prefix),
not of the one marking a chosen alignment passes through, so precision
does not depend on the order silent transitions fire in (the language
view of Munoz-Gama & Carmona, BPM 2010).

Alignments run over Replay's marking sets, not over markings: they are
petrinet.align, the A* the abstraction runs over markings, fed each set's
successor entry (Replay.set_successors); that Replay's state limit bounds
its markings and the states each search settles. Synchronous and silent
moves are free and log and visible model moves cost one, so a cost
depends only on the visible moves, and the cheapest alignment of a word
is a cheapest path in the subset automaton: a log move keeps the set, a
synchronous or visible model move on a label steps the set by it, and the
goal is the whole word read in a set holding the final marking. The
silent interleavings of a concurrent net, which a marking-level search
expands one by one, never become states.
"""

from collections import Counter
from dataclasses import dataclass, field

from .errors import SearchLimitError
from .eventlog import EventLog, complete_word
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay, align, splice)


@dataclass
class QualityReport:
    fitness: float
    precision: float
    f_score: float
    trace_costs: list[int] = field(default_factory=list)

    def to_kv(self) -> str:
        return (f"fitness={self.fitness:.6f}\n"
                f"precision={self.precision:.6f}\n"
                f"f_score={self.f_score:.6f}\n"
                "trace_costs=" + ",".join(str(c) for c in self.trace_costs) + "\n")


def f_score(fitness: float, precision: float) -> float:
    if fitness + precision == 0:
        return 0.0
    return 2 * fitness * precision / (fitness + precision)


def expand_model(high_net: AcceptingPetriNet,
                 patterns) -> AcceptingPetriNet:
    """Replace every transition labeled with a pattern name by a copy of
    that pattern's net, wired in through silent transitions. Labels that
    match no pattern (retained low-level activities) stay as they are."""
    by_name = {p.name: p for p in patterns}
    high = high_net.net
    replaced = {t for t in high.transitions if high.labels.get(t) in by_name}

    host = PetriNet(places=set(high.places), transitions=high.transitions - replaced,
                    arcs={(a, b) for a, b in high.arcs
                          if a not in replaced and b not in replaced},
                    labels={t: lab for t, lab in high.labels.items() if t not in replaced})
    for t in sorted(replaced):
        pattern = by_name[high.labels[t]]
        splice(host, pattern.net, t + "__", pattern.name,
               high.preset(t), high.postset(t), t + "__in", t + "__out")

    apn = AcceptingPetriNet(net=host, initial=dict(high_net.initial),
                            final=dict(high_net.final))
    apn.validate()
    return apn


def align_words(word, rp: Replay) -> tuple[int, list[str]]:
    """Cost of the cheapest alignment of word against rp's net, and the
    visible labels of its synchronous and model moves, in order.

    petrinet.align over rp's closed marking sets (set_successors), from
    the start set to any accepting set; the same search
    abstraction.align_words runs over markings. A set has no silent moves,
    and its synchronous or model move on a label steps it by that label.
    It keeps the name align_words here so that a profiler wrapping this
    module's align_words times it. An exhausted search is a definite no
    (LogliftError); settling more than rp.state_limit states, or rp
    interning more than that many markings, raises SearchLimitError.
    """
    (cost, _, _), path = align(word, rp, rp.set_successors, rp.start_set_id,
                               rp._set_accepting.__getitem__)
    return cost, [label for _, label, _ in path if label is not None]


def evaluate(log: EventLog, net: AcceptingPetriNet,
             state_limit: int = DEFAULT_STATE_LIMIT) -> QualityReport:
    """Fitness, precision, and F-score in one pass (alignments are shared).

    One Replay of the net serves every alignment, the empty word's for the
    shortest visible run among them, and the precision marking sets. Each
    alignment is petrinet.align over that Replay's marking sets, stepping
    them through Replay.set_successors, and a set step interns every
    marking of its silent closure, so state_limit bounds the markings the
    shared Replay interns, whole closures included, and also the (marking
    set, log position) states each alignment settles. A SearchLimitError
    from building the Replay says so; one from aligning a trace's word
    names the first case with it; one from the empty word's search says
    it was searching the shortest visible run.
    """
    trace_words = [complete_word(t) for t in log]
    words = Counter(trace_words)
    if not words:
        return QualityReport(fitness=1.0, precision=1.0, f_score=1.0)
    try:
        rp = Replay(net, state_limit=state_limit)
    except SearchLimitError as err:
        raise SearchLimitError(f"{err} (building the Replay of the model)") from err
    try:
        minlen, _ = align_words((), rp)
    except SearchLimitError as err:
        raise SearchLimitError(
            f"{err} (searching the shortest visible run of the model)") from err

    # prefix automaton of aligned visible model runs: a state per distinct
    # visible prefix, holding the Replay set of markings that prefix
    # reaches, the labels taken onward, and how many traces passed through
    children: dict[tuple[int, str], int] = {}
    marks: list[int] = [rp.start_set_id]
    taken: list[set[str]] = [set()]
    weight: list[int] = [0]

    cost_of: dict[tuple[str, ...], int] = {}
    fit_sum = 0.0
    total = 0
    for word, mult in words.items():
        try:
            cost, run = align_words(word, rp)
        except SearchLimitError as err:
            case = next(t.case_id for t, w in zip(log, trace_words) if w == word)
            raise SearchLimitError(f"{err} (case {case})") from err
        cost_of[word] = cost
        denom = len(word) + minlen
        fit_sum += mult * (1.0 - cost / denom if denom else 1.0)
        total += mult

        state = 0
        weight[0] += mult
        for label in run:
            taken[state].add(label)
            nxt = children.get((state, label))
            if nxt is None:
                nxt = len(marks)
                children[(state, label)] = nxt
                marks.append(rp.step(marks[state], label))
                taken.append(set())
                weight.append(0)
            state = nxt
            weight[state] += mult

    escaping = 0
    enabled_total = 0
    for state, sid in enumerate(marks):
        enabled = rp.enabled_labels(sid)
        escaping += weight[state] * len(enabled - taken[state])
        enabled_total += weight[state] * len(enabled)

    fit = fit_sum / total
    prec = 1.0 - escaping / enabled_total if enabled_total else 1.0
    return QualityReport(fitness=fit, precision=prec, f_score=f_score(fit, prec),
                         trace_costs=[cost_of[w] for w in trace_words])
