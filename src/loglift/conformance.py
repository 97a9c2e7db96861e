"""Model quality against a log: expansion, fitness, precision, F-score.

A high-level model is expanded by splicing each pattern-named transition
into a fresh copy of that pattern's net, so the expanded model speaks the
low-level alphabet again and can be scored against the original log.

Fitness is alignment-based: per trace 1 - cost / (|trace| + shortest
visible run of the net), averaged over the log. Precision is escaping
edges over the prefix automaton of the aligned visible model runs (the
labels of synchronous and model moves): at every visited prefix, visible
labels the model enables but the log never takes there count against it.
The model's enabled labels at a prefix are those of every marking the
prefix can reach, silent moves included (Replay's marking set for that
prefix), not of the one marking a chosen alignment passes through, so
precision does not depend on the order the aligner fires silent
transitions in (the language view of Munoz-Gama & Carmona, BPM 2010).
"""

from collections import Counter
from dataclasses import dataclass, field

from .abstraction import MODEL, SYNC, align_words
from .errors import SearchLimitError
from .eventlog import EventLog, complete_word
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay, min_visible_run_length, splice)


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


def evaluate(log: EventLog, net: AcceptingPetriNet,
             state_limit: int = DEFAULT_STATE_LIMIT) -> QualityReport:
    """Fitness, precision, and F-score in one pass (alignments are shared).

    One Replay of the net serves the shortest-run search, every alignment
    and the precision marking sets, so state_limit bounds the markings of
    that one shared Replay (as well as the states of each alignment). A
    SearchLimitError from aligning a word names the first case with it.
    """
    trace_words = [complete_word(t) for t in log]
    words = Counter(trace_words)
    if not words:
        return QualityReport(fitness=1.0, precision=1.0, f_score=1.0)
    rp = Replay(net, state_limit=state_limit)
    minlen = min_visible_run_length(net, replay=rp)

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
            alignment = align_words(word, net, state_limit=state_limit, replay=rp)
            cost_of[word] = alignment.cost
            denom = len(word) + minlen
            fit_sum += mult * (1.0 - alignment.cost / denom if denom else 1.0)
            total += mult

            state = 0
            weight[0] += mult
            for move in alignment.moves:
                if move.kind not in (SYNC, MODEL):
                    continue
                label = move.activity
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
        except SearchLimitError as err:
            case = next(t.case_id for t, w in zip(log, trace_words) if w == word)
            raise SearchLimitError(f"{err} (case {case})") from err

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
