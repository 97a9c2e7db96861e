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

Alignments run over Replay's marking sets, not over markings. Synchronous
and silent moves are free and log and visible model moves cost one, so a
cost depends only on the visible moves, and the cheapest alignment of a
word is a cheapest path in the subset automaton: a log move keeps the
set, a synchronous or visible model move on a label steps the set by it,
and the goal is the whole word read in a set holding the final marking.
The silent interleavings of a concurrent net, which a marking-level
search expands one by one, never become states.
"""

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .errors import LogliftError, SearchLimitError
from .eventlog import EventLog, complete_word
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay, splice)


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


def align_words(word, rp: Replay,
                model_moves: dict[int, list[tuple[str, int]]]) -> tuple[int, list[str]]:
    """Cost of the cheapest alignment of word against rp's net, and the
    visible labels of its synchronous and model moves, in order.

    The set search evaluate aligns with, not abstraction.align_words, which
    searches over markings and returns the moves; it keeps that name here
    so that a profiler wrapping this module's align_words times it.

    A* over states (marking set, log position), packed as the int set id *
    (n + 1) + position. From set S at position pos: a synchronous move
    goes to (step(S, word[pos]), pos + 1) if that set is not empty, at
    cost 0; a log move to (S, pos + 1), at cost 1; a model move on b to
    (step(S, b), pos), at cost 1, for each b in sorted(enabled_labels(S)).
    The goal is any state at position n whose set is accepting. The keys
    are abstraction.align_words' without the gap digit: a cost (cost, visible model
    moves) is the int cost * M + model moves with M = rp.state_limit + 2 (a
    path's model moves are at most the states settled before its end), and
    a state at position pos with cost d pops with key (d +
    foreign_suffix[pos] * M) * (n + 1) + n - pos, so the heuristic counts
    the events the net can never mirror and deeper positions go first;
    ties pop first pushed first, pushed in the order synchronous, log,
    model. model_moves caches each set's (label, next set) model moves for
    the caller's searches on rp. An exhausted search is a definite no
    (LogliftError); settling more than rp.state_limit states raises
    SearchLimitError.
    """
    state_limit = rp.state_limit
    heappush, heappop = heapq.heappush, heapq.heappop
    step, accepting = rp.step, rp._set_accepting
    empty = rp.empty_set_id
    n = len(word)
    width = n + 1
    alphabet = set(rp.labels) - {None}
    foreign_suffix = [0] * width
    for i in range(n - 1, -1, -1):
        foreign_suffix[i] = foreign_suffix[i + 1] + (0 if word[i] in alphabet else 1)
    model_radix = state_limit + 2
    hw = [foreign_suffix[pos] * model_radix * width + n - pos for pos in range(width)]

    start = rp.start_set_id * width
    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, str | None]] = {}
    counter = 0
    heap = [(hw[0], 0, start)]
    settled: set[int] = set()
    goal = None

    while heap:
        _, _, state = heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        sid, pos = divmod(state, width)
        if pos == n and accepting[sid]:
            goal = state
            break
        if len(settled) > state_limit:
            raise SearchLimitError(f"state limit {state_limit} exceeded during alignment")
        d = dist[state]
        if pos < n:
            label = word[pos]
            nxt_sid = step(sid, label)
            if nxt_sid != empty:
                nxt = nxt_sid * width + pos + 1
                if nxt not in settled:
                    old = dist.get(nxt)
                    if old is None or d < old:
                        dist[nxt] = d
                        parent[nxt] = (state, label)
                        counter += 1
                        heappush(heap, (d * width + hw[pos + 1], counter, nxt))
            nxt = state + 1
            if nxt not in settled:
                new = d + model_radix
                old = dist.get(nxt)
                if old is None or new < old:
                    dist[nxt] = new
                    parent[nxt] = (state, None)
                    counter += 1
                    heappush(heap, (new * width + hw[pos + 1], counter, nxt))
        moves = model_moves.get(sid)
        if moves is None:
            moves = model_moves[sid] = [(b, step(sid, b))
                                        for b in sorted(rp.enabled_labels(sid))]
        new = d + model_radix + 1
        key = new * width + hw[pos]
        for label, nxt_sid in moves:
            nxt = nxt_sid * width + pos
            if nxt not in settled:
                old = dist.get(nxt)
                if old is None or new < old:
                    dist[nxt] = new
                    parent[nxt] = (state, label)
                    counter += 1
                    heappush(heap, (key, counter, nxt))

    if goal is None:
        # every reachable state was settled within the limit: a definite no
        raise LogliftError("final marking is not reachable from the initial marking")
    labels: list[str] = []
    state = goal
    while state != start:
        state, label = parent[state]
        if label is not None:
            labels.append(label)
    labels.reverse()
    return dist[goal] // model_radix, labels


def evaluate(log: EventLog, net: AcceptingPetriNet,
             state_limit: int = DEFAULT_STATE_LIMIT) -> QualityReport:
    """Fitness, precision, and F-score in one pass (alignments are shared).

    One Replay of the net serves every alignment, the empty word's for the
    shortest visible run among them, and the precision marking sets. Each
    alignment is a search over that Replay's marking sets, and a set step
    interns every marking of its silent closure, so state_limit bounds the
    markings the shared Replay interns, whole closures included, and also
    the (marking set, log position) states each alignment settles. A
    SearchLimitError from aligning a trace's word names the first case
    with it.
    """
    trace_words = [complete_word(t) for t in log]
    words = Counter(trace_words)
    if not words:
        return QualityReport(fitness=1.0, precision=1.0, f_score=1.0)
    rp = Replay(net, state_limit=state_limit)
    model_moves: dict[int, list[tuple[str, int]]] = {}
    minlen, _ = align_words((), rp, model_moves)

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
            cost, run = align_words(word, rp, model_moves)
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
