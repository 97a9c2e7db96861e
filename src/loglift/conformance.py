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
successor entry (Replay.set_successors). The Replay is of the net with its
silent transitions fused away (petrinet.reduce_silent), which has the
same visible language and enabled labels after every prefix; its state
limit bounds the reduced net's markings and the states each search
settles. Synchronous and silent moves are free and log and visible model
moves cost one, so a cost depends only on the visible moves, and the
cheapest alignment of a word is a cheapest path in the subset automaton:
a log move keeps the set, a synchronous or visible model move on a label
steps the set by it, and the goal is the whole word read in a set holding
the final marking. The silent interleavings of a concurrent net, which a
marking-level search expands one by one, never become states.

Most words are not searched at all. Over sets, the search's first phase
is one path: a word's visible events (those in the net's alphabet) step
the set, its foreign events are log moves. So evaluate walks each
distinct word's visible events through the precision prefix automaton,
and a walk that ends in an accepting set is that phase's alignment: it
costs the word's foreign events, and its visible run is its visible
events. Only the empty word, whose alignment gives the shortest visible
run, and the words whose walk ends elsewhere are searched.
"""

from collections import Counter
from dataclasses import dataclass, field

from .errors import SearchLimitError
from .eventlog import EventLog, complete_word
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay, align, reduce_silent, splice)


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
    """Fitness, precision, and F-score in one pass over the distinct words.

    One Replay serves every alignment, the empty word's for the shortest
    visible run among them, and the precision marking sets. It is built
    from reduce_silent(net), which keeps the visible language and the
    labels enabled after each prefix, so scores are the net's. Each word
    is first walked through the precision prefix automaton, stepping its
    sets by the word's visible events (those in the net's alphabet). A
    walk that ends in an accepting set is the alignment the search's
    first phase would return: the word costs its foreign events, and its
    visible run is its visible events. Only the empty word and the words
    whose walk does not end in an accepting set are searched:
    petrinet.align over the Replay's marking sets, stepping them through
    Replay.set_successors.

    A set step interns every marking of its silent closure, so
    state_limit bounds the markings of the reduced net the shared Replay
    interns, whole closures included, on a walk as in a search; it also
    bounds the (marking set, log position) states each search settles. A
    walked word settles none, so an accepted word of any length
    evaluates. A SearchLimitError from building the Replay says so; one
    from walking or aligning a trace's word names the first case with
    it; one from the empty word's search says it was searching the
    shortest visible run.
    """
    trace_words = [complete_word(t) for t in log]
    words = Counter(trace_words)
    if not words:
        return QualityReport(fitness=1.0, precision=1.0, f_score=1.0)
    try:
        rp = Replay(reduce_silent(net), state_limit=state_limit)
    except SearchLimitError as err:
        raise SearchLimitError(f"{err} (building the Replay of the model)") from err
    try:
        minlen, _ = align_words((), rp)
    except SearchLimitError as err:
        raise SearchLimitError(
            f"{err} (searching the shortest visible run of the model)") from err

    # prefix automaton of aligned visible model runs: a state per distinct
    # visible prefix, holding its children by label, the Replay set of
    # markings that prefix reaches, and how many traces passed through. A
    # label is taken onward from a prefix when its child has a weight
    children: list[dict[str, int]] = [{}]
    marks: list[int] = [rp.start_set_id]
    weight: list[int] = [0]
    dead, accepting = rp.empty_set_id, rp._set_accepting

    def walk(labels) -> list[int]:
        """The prefix automaton's states along labels from its root, new
        ones added; it stops before a label the current set cannot step."""
        state = 0
        states = [0]
        for label in labels:
            nxt = children[state].get(label)
            if nxt is None:
                sid = rp.step(marks[state], label)
                if sid == dead:
                    break
                nxt = children[state][label] = len(marks)
                marks.append(sid)
                children.append({})
                weight.append(0)
            states.append(nxt)
            state = nxt
        return states

    alphabet = set(rp.labels) - {None}
    cost_of: dict[tuple[str, ...], int] = {}
    fit_sum = 0.0
    total = 0
    for word, mult in words.items():
        run = [a for a in word if a in alphabet]
        try:
            states = walk(run)
            if len(states) > len(run) and accepting[marks[states[-1]]]:
                cost = len(word) - len(run)
            else:
                cost, run = align_words(word, rp)
                states = walk(run)
        except SearchLimitError as err:
            case = next(t.case_id for t, w in zip(log, trace_words) if w == word)
            raise SearchLimitError(f"{err} (case {case})") from err
        cost_of[word] = cost
        denom = len(word) + minlen
        fit_sum += mult * (1.0 - cost / denom if denom else 1.0)
        total += mult
        for state in states:
            weight[state] += mult

    # a taken label is enabled, as its child's set is not empty
    escaping = 0
    enabled_total = 0
    for state, sid in enumerate(marks):
        if weight[state]:
            enabled = len(rp.enabled_labels(sid))
            taken = sum(1 for nxt in children[state].values() if weight[nxt])
            escaping += weight[state] * (enabled - taken)
            enabled_total += weight[state] * enabled

    fit = fit_sum / total
    prec = 1.0 - escaping / enabled_total if enabled_total else 1.0
    return QualityReport(fitness=fit, precision=prec, f_score=f_score(fit, prec),
                         trace_costs=[cost_of[w] for w in trace_words])
