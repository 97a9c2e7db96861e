"""Lifting low-level traces to high-level activities via activity patterns.

Each selected local process model becomes an activity pattern: its net plus
a lifecycle role map (transitions consuming from the initial place mark the
start of an occurrence, transitions feeding the final place mark its
completion). Patterns are composed into one abstraction model, the trace is
aligned against that model, and every matched pattern occurrence is
replaced by one high-level event.

Alignment move costs: synchronous and silent model moves are free, log
moves and visible model moves cost one. Minimum total cost alone does not
pin down the occurrence structure, so ties break lexicographically: first
fewest gap moves (log moves of an activity that belongs to a pattern with
an occurrence currently open; an occurrence is meant to be one contiguous
run of the trace projected onto its pattern's activities, so skipping a
matching event mid-occurrence is the anomaly), then fewest visible model
moves (do not invent pattern behavior out of stray events when an equally
cheap explanation without model moves exists).

An occurrence whose completing transition had to be inserted as a visible
model move is not reported as a high-level event: its matched events are
demoted back to plain low-level events. Occurrences that complete silently
(and-joins, loop exits) or synchronously are reported, anchored at their
last synchronous move.
"""

import heapq
from dataclasses import dataclass, field

from .errors import LogliftError, PatternError, SearchLimitError
from .eventlog import COMPLETE, START, Event, EventLog, Trace
from .lpm import LocalProcessModel, ProcessTree
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay, splice)

INTERLEAVING = "interleaving"
PARALLEL = "parallel"
COMPOSITIONS = (INTERLEAVING, PARALLEL)

SYNC = "sync"
LOG = "log"
MODEL = "model"
TAU = "tau"


def derive_lifecycle(apn: AcceptingPetriNet) -> dict[str, str]:
    """Role map for a pattern net: consumers of the initial place(s) start an
    occurrence, producers into the final place(s) complete it; a transition
    doing both counts as complete."""
    initial_places = {p for p, c in apn.initial.items() if c}
    final_places = {p for p, c in apn.final.items() if c}
    starts: set[str] = set()
    completes: set[str] = set()
    for src, dst in apn.net.arcs:
        if src in initial_places:
            starts.add(dst)
        if dst in final_places:
            completes.add(src)
    if not completes:
        raise PatternError("pattern net has no transition feeding its final place")
    roles = {t: START for t in starts - completes}
    roles.update({t: COMPLETE for t in completes})
    return roles


@dataclass
class ActivityPattern:
    name: str
    net: AcceptingPetriNet
    lifecycle: dict[str, str]
    tree: ProcessTree | None = None

    @property
    def activities(self) -> frozenset[str]:
        return frozenset(self.net.alphabet())


def make_pattern(name: str, model: LocalProcessModel) -> ActivityPattern:
    return ActivityPattern(name=name, net=model.net,
                           lifecycle=derive_lifecycle(model.net), tree=model.tree)


def patterns_from_models(models, prefix: str = "LPM_") -> list[ActivityPattern]:
    """Name selected models LPM_1, LPM_2, ... in ranking order."""
    return [make_pattern(f"{prefix}{i}", m) for i, m in enumerate(models, start=1)]


@dataclass
class AlignmentMove:
    kind: str
    log_index: int | None = None
    transition: str | None = None
    activity: str | None = None


@dataclass
class Alignment:
    moves: list[AlignmentMove]
    cost: int
    # (total cost, gap moves, visible model moves)
    cost_vector: tuple[int, int, int]


@dataclass
class AbstractionModel:
    net: AcceptingPetriNet
    patterns: list[ActivityPattern]
    composition: str
    instance_tags: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    open_taus: dict[str, str] = field(default_factory=dict)
    close_taus: dict[str, str] = field(default_factory=dict)

    @property
    def pattern_alphabet(self) -> frozenset[str]:
        return frozenset().union(*(p.activities for p in self.patterns)) \
            if self.patterns else frozenset()

    def transition_tags(self) -> dict[str, str]:
        """Annotation strings for PNML export."""
        out = {}
        for t, (name, role) in self.instance_tags.items():
            out[t] = f"pattern={name};role={role if role else '-'}"
        for t, name in self.open_taus.items():
            out[t] = f"pattern={name};role=open"
        for t, name in self.close_taus.items():
            out[t] = f"pattern={name};role=close"
        return out


def _prefix(name: str) -> str:
    """Id prefix of a pattern's copy inside the abstraction model."""
    return name + "__"


def compose(patterns: list[ActivityPattern], composition: str = INTERLEAVING) -> AbstractionModel:
    """Build the abstraction model net.

    interleaving: one global loop choosing one pattern occurrence at a time;
    parallel: per-pattern loops running concurrently (occurrences of the
    same pattern stay sequential, different patterns may overlap). Both
    allow zero occurrences.
    """
    if not patterns:
        raise ValueError("compose needs at least one pattern")
    names = [p.name for p in patterns]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate pattern names: {names}")
    if composition not in COMPOSITIONS:
        raise ValueError(f"unknown composition {composition!r}")

    host = PetriNet(places={"src", "snk"}, transitions={"begin", "end"},
                    arcs={("src", "begin"), ("end", "snk")})
    tags: dict[str, tuple[str, str | None]] = {}
    open_taus: dict[str, str] = {}
    close_taus: dict[str, str] = {}
    for pattern in patterns:
        name = pattern.name
        hub = "hub" if composition == INTERLEAVING else f"hub__{name}"
        if composition == PARALLEL and hub in host.places | host.transitions:
            raise PatternError(f"id {hub!r} of pattern {name} already exists in the net")
        host.places.add(hub)
        host.arcs.update({("begin", hub), (hub, "end")})
        prefix, t_open, t_close = _prefix(name), f"open__{name}", f"close__{name}"
        splice(host, pattern.net, prefix, name, [hub], [hub], t_open, t_close)
        tags.update((prefix + t, (name, pattern.lifecycle.get(t)))
                    for t in pattern.net.net.transitions)
        open_taus[t_open] = name
        close_taus[t_close] = name

    apn = AcceptingPetriNet(net=host, initial={"src": 1}, final={"snk": 1})
    apn.validate()
    return AbstractionModel(net=apn, patterns=list(patterns), composition=composition,
                            instance_tags=tags, open_taus=open_taus, close_taus=close_taus)


# ---------------------------------------------------------------- aligner

class _GapOracle:
    """Per-marking set of gap-protected activities.

    A token inside a pattern's embedded subnet means an occurrence of that
    pattern is open; logging one of its activities at that point would split
    the occurrence, which segmentation semantics forbid (occurrences are
    contiguous runs of the trace projected onto the pattern's activities).
    """

    def __init__(self, model: AbstractionModel, rp: Replay):
        self._rp = rp
        self._subnets: list[tuple[tuple[int, ...], frozenset[str]]] = []
        for pat in model.patterns:
            idx = tuple(rp._pidx[_prefix(pat.name) + p] for p in pat.net.net.places)
            self._subnets.append((idx, pat.activities))
        self._cache: dict[int, frozenset[str]] = {}

    def __call__(self, mid: int) -> frozenset[str]:
        got = self._cache.get(mid)
        if got is None:
            m = self._rp._marks[mid]
            acts: set[str] = set()
            for idx, alpha in self._subnets:
                if any(m[i] for i in idx):
                    acts.update(alpha)
            got = frozenset(acts)
            self._cache[mid] = got
        return got


def align_words(events: list[str], apn: AcceptingPetriNet,
                state_limit: int = DEFAULT_STATE_LIMIT,
                replay: Replay | None = None,
                gap_oracle=None) -> Alignment:
    """Minimum-cost alignment of an activity sequence against a net.

    Lexicographically minimizes (total cost, gap moves, visible model
    moves). A* pops states in the order (total cost + heuristic, gap
    moves, visible model moves, deepest log position first, first pushed
    first); successors are pushed in the order sync, tau, log, visible
    model. Going deeper first on ties keeps a zero-cost run through a
    concurrent net from expanding every interleaving of its silent moves
    breadth-first. gap_oracle maps a marking id to the activities whose
    log move counts as a gap move there (none without an oracle, as for
    plain nets). A log move is always possible, so the search ends without
    an alignment only when the final marking is unreachable: that raises
    LogliftError, while hitting state_limit raises SearchLimitError. The
    empty word's alignment costs the net's shortest visible run.

    A state (log position, marking) is the int marking * (n + 1) +
    position; its moves come from the replay's cached successors of the
    marking. Each reached state records only its parent state and the
    transition taken (-1 for a log move); move objects are built along the
    returned path alone.

    Costs and heap keys are single ints in exact mixed radices, so
    comparing two ints compares the tuples they encode. A cost vector
    (cost, gap moves, visible model moves) is packed as (cost * (n + 1) +
    gap moves) * M + model moves, with M = state_limit + 2: gap moves are
    log moves, so at most n, and the model moves on a path are at most the
    states settled before it ends, so at most state_limit + 1. A state at
    log position pos with packed cost d has the pop key d * (n + 1) +
    hw[pos], where hw[pos] = foreign_suffix[pos] * (n + 1) * M * (n + 1) +
    n - pos adds the heuristic to the cost digit and puts deeper positions
    first. Heap entries are (key, push counter, state); only the goal's
    cost is decoded.
    """
    rp = replay if replay is not None else Replay(apn, state_limit=state_limit)
    heappush, heappop = heapq.heappush, heapq.heappop
    successors = rp.successors
    n = len(events)
    width = n + 1
    alphabet = set(rp.labels) - {None}
    # admissible heuristic: events the net cannot ever mirror must be log moves
    foreign_suffix = [0] * width
    for i in range(n - 1, -1, -1):
        foreign_suffix[i] = foreign_suffix[i + 1] + (0 if events[i] in alphabet else 1)
    model_radix = state_limit + 2
    cost_unit = width * model_radix
    hw = [foreign_suffix[pos] * cost_unit * width + n - pos for pos in range(width)]

    start = rp.initial_id * width
    goal = rp.final_id * width + n
    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, int]] = {}
    counter = 0
    heap = [(hw[0], 0, start)]
    settled: set[int] = set()

    while heap:
        _, _, state = heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        if state == goal:
            break
        if len(settled) > state_limit:
            raise SearchLimitError(f"state limit {state_limit} exceeded during alignment")
        mid, pos = divmod(state, width)
        d = dist[state]
        silent, visible, by_label = successors(mid)
        if pos < n:
            # sync moves
            nxt_pos = pos + 1
            key = d * width + hw[nxt_pos]
            for t, m in by_label.get(events[pos], ()):
                nxt = m * width + nxt_pos
                if nxt not in settled:
                    old = dist.get(nxt)
                    if old is None or d < old:
                        dist[nxt] = d
                        parent[nxt] = (state, t)
                        counter += 1
                        heappush(heap, (key, counter, nxt))
        key = d * width + hw[pos]
        for t, m in silent:
            nxt = m * width + pos
            if nxt not in settled:
                old = dist.get(nxt)
                if old is None or d < old:
                    dist[nxt] = d
                    parent[nxt] = (state, t)
                    counter += 1
                    heappush(heap, (key, counter, nxt))
        if pos < n:
            # log move
            nxt = state + 1
            if nxt not in settled:
                new = d + cost_unit
                if gap_oracle is not None and events[pos] in gap_oracle(mid):
                    new += model_radix
                old = dist.get(nxt)
                if old is None or new < old:
                    dist[nxt] = new
                    parent[nxt] = (state, -1)
                    counter += 1
                    heappush(heap, (new * width + hw[pos + 1], counter, nxt))
        new = d + cost_unit + 1
        key = new * width + hw[pos]
        for t, m in visible:
            nxt = m * width + pos
            if nxt not in settled:
                old = dist.get(nxt)
                if old is None or new < old:
                    dist[nxt] = new
                    parent[nxt] = (state, t)
                    counter += 1
                    heappush(heap, (key, counter, nxt))

    if goal not in settled:
        # every reachable state was settled within the limit: a definite no
        raise LogliftError("final marking is not reachable from the initial marking")
    moves: list[AlignmentMove] = []
    state = goal
    while state != start:
        prev, t = parent[state]
        pos = prev % width
        if t < 0:
            moves.append(AlignmentMove(LOG, log_index=pos, activity=events[pos]))
        elif rp.labels[t] is None:
            moves.append(AlignmentMove(TAU, transition=rp.transitions[t]))
        elif state % width > pos:
            moves.append(AlignmentMove(SYNC, log_index=pos, transition=rp.transitions[t],
                                       activity=events[pos]))
        else:
            moves.append(AlignmentMove(MODEL, transition=rp.transitions[t],
                                       activity=rp.labels[t]))
        state = prev
    moves.reverse()
    cost, rest = divmod(dist[goal], cost_unit)
    gaps, model = divmod(rest, model_radix)
    return Alignment(moves=moves, cost=cost, cost_vector=(cost, gaps, model))


# ------------------------------------------------------------- abstraction

@dataclass
class _Instance:
    pattern: str
    sync_indices: list[int] = field(default_factory=list)
    start_sync: int | None = None
    complete_modeled: bool = False


def abstract_trace(trace: Trace, model: AbstractionModel, keep_foreign: bool = False,
                   state_limit: int = DEFAULT_STATE_LIMIT,
                   replay: Replay | None = None, gap_oracle=None) -> Trace:
    """Replace matched pattern occurrences by high-level events.

    Emits one complete event per reported occurrence (and a start event
    when the occurrence's starting transition fired synchronously). Log
    moves over pattern activities stay as low-level events; events of
    demoted occurrences stay too. Foreign events (outside every pattern
    alphabet) are dropped unless keep_foreign is set. A SearchLimitError
    from the alignment names the trace's case id.
    """
    if replay is None:
        replay = Replay(model.net, state_limit=state_limit)
    if gap_oracle is None:
        gap_oracle = _GapOracle(model, replay)
    originals = [e for e in trace.events if e.is_complete()]
    words = [e.activity for e in originals]
    try:
        alignment = align_words(words, model.net, state_limit=state_limit,
                                replay=replay, gap_oracle=gap_oracle)
    except SearchLimitError as err:
        raise SearchLimitError(f"{err} (case {trace.case_id})") from err
    alphabet = model.pattern_alphabet

    emitted: list[tuple[int, int, Event]] = []
    order = 0

    def emit(index: int, event: Event):
        nonlocal order
        emitted.append((index, order, event))
        order += 1

    open_instances: dict[str, _Instance] = {}

    def finalize(inst: _Instance):
        if not inst.sync_indices:
            return
        if inst.complete_modeled:
            for i in inst.sync_indices:
                emit(i, originals[i])
            return
        if inst.start_sync is not None:
            emit(inst.start_sync, Event(activity=inst.pattern, lifecycle=START))
        emit(max(inst.sync_indices), Event(activity=inst.pattern, lifecycle=COMPLETE))

    for move in alignment.moves:
        if move.kind == LOG:
            if move.activity in alphabet or keep_foreign:
                emit(move.log_index, originals[move.log_index])
            continue
        t = move.transition
        if t in model.open_taus:
            name = model.open_taus[t]
            if name in open_instances:
                raise PatternError(f"overlapping occurrences of pattern {name}")
            open_instances[name] = _Instance(pattern=name)
        elif t in model.close_taus:
            inst = open_instances.pop(model.close_taus[t], None)
            if inst is not None:
                finalize(inst)
        elif t in model.instance_tags:
            name, role = model.instance_tags[t]
            inst = open_instances.get(name)
            if inst is None:
                continue
            if move.kind == SYNC:
                inst.sync_indices.append(move.log_index)
                if role == START and inst.start_sync is None:
                    inst.start_sync = move.log_index
            elif move.kind == MODEL and role == COMPLETE:
                inst.complete_modeled = True

    for inst in open_instances.values():
        finalize(inst)

    emitted.sort(key=lambda item: (item[0], item[1]))
    return Trace(case_id=trace.case_id, events=[e for _, _, e in emitted])


def abstract_log(log: EventLog, model: AbstractionModel, keep_foreign: bool = False,
                 state_limit: int = DEFAULT_STATE_LIMIT) -> EventLog:
    rp = Replay(model.net, state_limit=state_limit)
    oracle = _GapOracle(model, rp)
    return EventLog(traces=[abstract_trace(t, model, keep_foreign=keep_foreign,
                                           state_limit=state_limit, replay=rp,
                                           gap_oracle=oracle)
                            for t in log])
