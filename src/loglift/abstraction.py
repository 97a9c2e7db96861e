"""Lifting low-level traces to high-level activities via activity patterns.

Each selected local process model becomes an activity pattern: its net plus
a lifecycle role map (transitions consuming from the initial place mark the
start of an occurrence, transitions feeding the final place mark its
completion). Patterns are composed into one abstraction model, the trace is
aligned against that model, and every matched pattern occurrence is
replaced by one high-level event.

Each trace is aligned by petrinet.align, the one A* alignment search,
run here over the markings of one Replay of the composed net
(conformance runs it over marking sets). The Replay's state limit bounds
both the markings it interns and the states each alignment settles.
Alignment move costs: synchronous and silent model moves are free, log
moves and visible model moves cost one. Minimum total cost
alone does not pin down the occurrence structure, so ties break
lexicographically: first fewest gap moves (log moves of an activity that
belongs to a pattern with an occurrence currently open; an occurrence is
meant to be one contiguous run of the trace projected onto its pattern's
activities, so skipping a matching event mid-occurrence is the anomaly),
then fewest visible model moves (do not invent pattern behavior out of
stray events when an equally cheap explanation without model moves
exists).

An occurrence whose completing transition had to be inserted as a visible
model move is not reported as a high-level event: its matched events are
demoted back to plain low-level events. Occurrences that complete silently
(and-joins, loop exits) or synchronously are reported, anchored at their
last synchronous move.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import PatternError, SearchLimitError
from .eventlog import COMPLETE, START, Event, EventLog, Trace
from .lpm import LocalProcessModel
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay, align, splice)

INTERLEAVING = "interleaving"
PARALLEL = "parallel"
COMPOSITIONS = (INTERLEAVING, PARALLEL)

SYNC = "sync"
LOG = "log"
MODEL = "model"
TAU = "tau"

# roles of the silent transitions entering and leaving a pattern's copy
OPEN, CLOSE = "open", "close"


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

    @cached_property
    def activities(self) -> frozenset[str]:
        return frozenset(self.net.alphabet())


def make_pattern(name: str, model: LocalProcessModel) -> ActivityPattern:
    return ActivityPattern(name=name, net=model.net,
                           lifecycle=derive_lifecycle(model.net))


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
    # transition id -> (pattern name, role): OPEN or CLOSE for the silent
    # transitions around a pattern's copy, the pattern's lifecycle role
    # (START, COMPLETE or None) for a transition inside it
    roles: dict[str, tuple[str, str | None]]

    @property
    def pattern_alphabet(self) -> frozenset[str]:
        return frozenset().union(*(p.activities for p in self.patterns)) \
            if self.patterns else frozenset()

    def transition_tags(self) -> dict[str, str]:
        """Annotation strings for PNML export."""
        return {t: f"pattern={name};role={role or '-'}"
                for t, (name, role) in self.roles.items()}


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
    roles: dict[str, tuple[str, str | None]] = {}
    for pattern in patterns:
        name = pattern.name
        hub = "hub" if composition == INTERLEAVING else f"hub__{name}"
        if composition == PARALLEL and hub in host.places | host.transitions:
            raise PatternError(f"id {hub!r} of pattern {name} already exists in the net")
        host.places.add(hub)
        host.arcs.update({("begin", hub), (hub, "end")})
        prefix, t_open, t_close = _prefix(name), f"open__{name}", f"close__{name}"
        splice(host, pattern.net, prefix, name, [hub], [hub], t_open, t_close)
        roles.update((prefix + t, (name, pattern.lifecycle.get(t)))
                     for t in pattern.net.net.transitions)
        roles[t_open] = (name, OPEN)
        roles[t_close] = (name, CLOSE)

    apn = AcceptingPetriNet(net=host, initial={"src": 1}, final={"snk": 1})
    apn.validate()
    return AbstractionModel(net=apn, patterns=list(patterns), roles=roles)


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


def align_words(events, rp: Replay, gap_oracle=None) -> Alignment:
    """Minimum-cost alignment of an activity sequence against rp's net.

    petrinet.align over rp's markings, from the initial marking to the
    final one: it lexicographically minimizes (total cost, gap moves,
    visible model moves), gap_oracle mapping a marking id to the
    activities whose log move counts as a gap move there (none without an
    oracle, as for plain nets). Its path becomes the moves. An unreachable
    final marking raises LogliftError; settling more than rp.state_limit
    states, or rp interning more than that many markings, raises
    SearchLimitError. The empty word's alignment costs the net's shortest
    visible run.
    """
    final = rp.final_id
    cost_vector, path = align(events, rp, rp.successors, rp.initial_id,
                              lambda mid: mid == final, gap_oracle)
    moves: list[AlignmentMove] = []
    for pos, t, advanced in path:
        if t is None:
            moves.append(AlignmentMove(LOG, log_index=pos, activity=events[pos]))
        elif rp.labels[t] is None:
            moves.append(AlignmentMove(TAU, transition=rp.transitions[t]))
        elif advanced:
            moves.append(AlignmentMove(SYNC, log_index=pos, transition=rp.transitions[t],
                                       activity=events[pos]))
        else:
            moves.append(AlignmentMove(MODEL, transition=rp.transitions[t],
                                       activity=rp.labels[t]))
    return Alignment(moves=moves, cost=cost_vector[0], cost_vector=cost_vector)


# ------------------------------------------------------------- abstraction

@dataclass
class _Instance:
    pattern: str
    sync_indices: list[int] = field(default_factory=list)
    start_sync: int | None = None
    complete_modeled: bool = False


def _lift_trace(alignment: Alignment, originals: list[Event], model: AbstractionModel,
                keep_foreign: bool) -> list[Event]:
    """One trace's events lifted along the alignment of its originals."""
    alphabet = model.pattern_alphabet
    # (log index, emission order, event): events at one index keep their order
    emitted: list[tuple[int, int, Event]] = []

    def emit(index: int, event: Event):
        emitted.append((index, len(emitted), event))

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
        name, role = model.roles.get(move.transition, (None, None))
        if role == OPEN:
            if name in open_instances:
                raise PatternError(f"overlapping occurrences of pattern {name}")
            open_instances[name] = _Instance(pattern=name)
        elif role == CLOSE:
            inst = open_instances.pop(name, None)
            if inst is not None:
                finalize(inst)
        elif name is not None:
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
    return [e for _, _, e in emitted]


def abstract_log(log: EventLog, model: AbstractionModel, keep_foreign: bool = False,
                 state_limit: int = DEFAULT_STATE_LIMIT) -> EventLog:
    """Replace matched pattern occurrences by high-level events.

    One Replay of the model's net, with state_limit, and one gap oracle
    over it align every trace's complete word. Emits one complete event
    per reported occurrence (and a start event when the occurrence's
    starting transition fired synchronously). Log moves over pattern
    activities stay as low-level events; events of demoted occurrences
    stay too. Foreign events (outside every pattern alphabet) are dropped
    unless keep_foreign is set. A SearchLimitError says it was building
    the Replay, or names the case whose alignment hit the limit.
    """
    try:
        rp = Replay(model.net, state_limit=state_limit)
    except SearchLimitError as err:
        raise SearchLimitError(
            f"{err} (building the Replay of the abstraction model)") from err
    gap_oracle = _GapOracle(model, rp)
    traces = []
    for trace in log:
        originals = [e for e in trace.events if e.is_complete()]
        try:
            alignment = align_words([e.activity for e in originals], rp, gap_oracle)
        except SearchLimitError as err:
            raise SearchLimitError(f"{err} (case {trace.case_id})") from err
        traces.append(Trace(case_id=trace.case_id,
                            events=_lift_trace(alignment, originals, model, keep_foreign)))
    return EventLog(traces=traces)


def abstract_trace(trace: Trace, model: AbstractionModel, keep_foreign: bool = False,
                   state_limit: int = DEFAULT_STATE_LIMIT) -> Trace:
    """abstract_log of the one-trace log holding trace, on a Replay of its own."""
    return abstract_log(EventLog(traces=[trace]), model, keep_foreign=keep_foreign,
                        state_limit=state_limit).traces[0]
