"""Labeled Petri nets with accepting (initial/final) markings.

Transitions either carry an activity label or are silent. Acceptance of a
word means: some firing sequence from the initial marking reaches exactly
the final marking and its sequence of labels (silent firings dropped)
equals the word. All searches that could diverge on unbounded nets are
guarded by a state limit and raise SearchLimitError when they hit it, so
"could not decide" is never reported as "no".

Nets are treated as immutable after construction; splice builds one by
copying sub-nets into a host net still under construction.
"""

from collections import deque
from dataclasses import dataclass, field

from .errors import PatternError, SearchLimitError

DEFAULT_STATE_LIMIT = 100_000

Marking = dict[str, int]


@dataclass
class PetriNet:
    places: set[str]
    transitions: set[str]
    arcs: set[tuple[str, str]]
    labels: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if self.places & self.transitions:
            raise ValueError(f"place/transition ids overlap: {self.places & self.transitions}")
        for src, dst in self.arcs:
            ok = (src in self.places and dst in self.transitions) or \
                 (src in self.transitions and dst in self.places)
            if not ok:
                raise ValueError(f"arc ({src!r}, {dst!r}) does not connect a place and a transition")
        for t, label in self.labels.items():
            if t not in self.transitions:
                raise ValueError(f"label on unknown transition {t!r}")
            if not label:
                raise ValueError(f"empty label on transition {t!r}")

    def preset(self, node: str) -> set[str]:
        return {src for src, dst in self.arcs if dst == node}

    def postset(self, node: str) -> set[str]:
        return {dst for src, dst in self.arcs if src == node}


@dataclass
class AcceptingPetriNet:
    net: PetriNet
    initial: Marking
    final: Marking

    def validate(self) -> None:
        self.net.validate()
        for name, marking in (("initial", self.initial), ("final", self.final)):
            for p, c in marking.items():
                if p not in self.net.places:
                    raise ValueError(f"{name} marking on unknown place {p!r}")
                if c < 0:
                    raise ValueError(f"{name} marking has negative count on {p!r}")

    def alphabet(self) -> set[str]:
        return set(self.net.labels.values())


def splice(host: PetriNet, sub: AcceptingPetriNet, prefix: str, name: str,
           inputs, outputs, t_in: str, t_out: str) -> None:
    """Copy the sub-net into host with every id prefixed, entered by the
    silent transition t_in (from the input places to the sub-net's
    initially marked places) and left by the silent transition t_out (from
    its finally marked places to the output places). name is the sub-net's
    pattern name in errors. An id the splice would add that the host
    already has raises PatternError instead of merging two nodes."""
    for which, marking in (("initial", sub.initial), ("final", sub.final)):
        if any(c > 1 for c in marking.values()):
            raise PatternError(f"pattern {name} has a multi-token {which} marking; "
                               "splicing needs one token per place")
        if not any(marking.values()):
            raise PatternError(f"pattern {name} needs non-empty initial and final markings")
    net = sub.net
    taken = host.places | host.transitions
    for node in [prefix + n for n in sorted(net.places | net.transitions)] + [t_in, t_out]:
        if node in taken:
            raise PatternError(f"id {node!r} of pattern {name} already exists in the net")
        taken.add(node)
    host.places.update(prefix + p for p in net.places)
    host.transitions.update(prefix + t for t in net.transitions)
    host.transitions.update((t_in, t_out))
    host.labels.update((prefix + t, label) for t, label in net.labels.items())
    host.arcs.update((prefix + a, prefix + b) for a, b in net.arcs)
    host.arcs.update((p, t_in) for p in inputs)
    host.arcs.update((t_in, prefix + p) for p, c in sub.initial.items() if c)
    host.arcs.update((prefix + p, t_out) for p, c in sub.final.items() if c)
    host.arcs.update((t_out, p) for p in outputs)


# -------------------------------------------------------- dense replay core

class Replay:
    """Index-based firing engine for one accepting net.

    Markings are dense count tuples interned to small integers; sets of
    markings (used when replaying a word against all its possible runs at
    once) are interned frozensets of those integers. Each place's consuming
    transitions are indexed once, so finding the enabled transitions of a
    marking looks only at the consumers of its marked places (and at
    transitions with an empty preset). The per-net caches make repeated
    replays over the same net cheap:

    - firing: (marking, transition) -> next marking
    - enabled transitions per marking, ascending
    - silent pairs per marking: the (transition, next marking) pairs of
      its enabled silent transitions, in transition order
    - successors per marking (for the aligner): those silent pairs, and
      the visible pairs of its enabled transitions, also grouped by label,
      in transition order; an entry fires every enabled transition of its
      marking
    - set steps and enabled labels per closed marking set (for LPM scoring
      and precision; a step fires only the transitions the stepped label
      names and closes their images over the cached silent pairs, so it
      interns no marking outside the silent closures of those images)
    """

    def __init__(self, apn: AcceptingPetriNet, state_limit: int = DEFAULT_STATE_LIMIT):
        net = apn.net
        self.state_limit = state_limit
        self.places = sorted(net.places)
        self._pidx = {p: i for i, p in enumerate(self.places)}
        self.transitions = sorted(net.transitions)
        tidx = {t: i for i, t in enumerate(self.transitions)}
        n = len(self.transitions)
        self.pre = [[] for _ in range(n)]
        self.post = [[] for _ in range(n)]
        for src, dst in net.arcs:
            if src in self._pidx:
                self.pre[tidx[dst]].append(self._pidx[src])
            else:
                self.post[tidx[src]].append(self._pidx[dst])
        self.labels = [net.labels.get(t) for t in self.transitions]
        self._consumers: list[list[int]] = [[] for _ in self.places]
        for t, pre in enumerate(self.pre):
            for p in pre:
                self._consumers[p].append(t)
        self._unguarded = [t for t, pre in enumerate(self.pre) if not pre]

        # interning tables
        self._mark_ids: dict[tuple[int, ...], int] = {}
        self._marks: list[tuple[int, ...]] = []
        self._fired: dict[tuple[int, int], int] = {}
        self._silent: dict[int, list[tuple[int, int]]] = {}
        self._set_ids: dict[frozenset[int], int] = {}
        self._sets: list[frozenset[int]] = []
        self._set_accepting: list[bool] = []
        self._set_step: dict[tuple[int, str], int] = {}
        self._set_enabled: dict[int, frozenset[str]] = {}
        self._enabled: dict[int, list[int]] = {}
        self._succ: dict[int, tuple[list[tuple[int, int]], list[tuple[int, int]],
                                    dict[str, list[tuple[int, int]]]]] = {}

        self.initial_id = self.intern(self._dense(apn.initial))
        self.final_id = self.intern(self._dense(apn.final))
        self.empty_set_id = self._intern_set(frozenset())
        self.start_set_id = self._intern_set(self._close([self.initial_id]))

    # -- markings

    def _dense(self, marking: Marking) -> tuple[int, ...]:
        counts = [0] * len(self.places)
        for p, c in marking.items():
            counts[self._pidx[p]] = c
        return tuple(counts)

    def intern(self, dense: tuple[int, ...]) -> int:
        mid = self._mark_ids.get(dense)
        if mid is None:
            if len(self._marks) >= self.state_limit:
                raise SearchLimitError(
                    f"state limit {self.state_limit} exceeded while exploring markings")
            mid = len(self._marks)
            self._mark_ids[dense] = mid
            self._marks.append(dense)
        return mid

    def enabled_ts(self, mid: int) -> list[int]:
        cached = self._enabled.get(mid)
        if cached is None:
            m = self._marks[mid]
            pre = self.pre
            candidates = set(self._unguarded)
            for p, c in enumerate(m):
                if c >= 1:
                    candidates.update(self._consumers[p])
            cached = sorted(t for t in candidates if all(m[p] >= 1 for p in pre[t]))
            self._enabled[mid] = cached
        return cached

    def fire_t(self, mid: int, t: int) -> int:
        key = (mid, t)
        got = self._fired.get(key)
        if got is None:
            m = list(self._marks[mid])
            for p in self.pre[t]:
                m[p] -= 1
            for p in self.post[t]:
                m[p] += 1
            got = self._fired[key] = self.intern(tuple(m))
        return got

    def _silent_pairs(self, mid: int) -> list[tuple[int, int]]:
        """(transition, next marking) pairs of the enabled silent
        transitions of mid, in transition order."""
        pairs = self._silent.get(mid)
        if pairs is None:
            labels = self.labels
            pairs = self._silent[mid] = [(t, self.fire_t(mid, t)) for t in self.enabled_ts(mid)
                                         if labels[t] is None]
        return pairs

    def successors(self, mid: int):
        """(silent, visible, visible by label) lists of (transition, next
        marking) pairs over the enabled transitions of mid, in transition
        order; the silent list is the one _silent_pairs caches."""
        entry = self._succ.get(mid)
        if entry is None:
            visible: list[tuple[int, int]] = []
            by_label: dict[str, list[tuple[int, int]]] = {}
            labels = self.labels
            for t in self.enabled_ts(mid):
                label = labels[t]
                if label is not None:
                    pair = (t, self.fire_t(mid, t))
                    visible.append(pair)
                    by_label.setdefault(label, []).append(pair)
            entry = self._succ[mid] = (self._silent_pairs(mid), visible, by_label)
        return entry

    def _close(self, mids) -> frozenset[int]:
        """The given markings and all markings reachable from them by silent
        firings: one depth-first search with one seen set."""
        seen = set(mids)
        stack = list(seen)
        while stack:
            for _, nxt in self._silent_pairs(stack.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    # -- marking sets (subset construction over visible steps)

    def _intern_set(self, mset: frozenset[int]) -> int:
        sid = self._set_ids.get(mset)
        if sid is None:
            sid = len(self._sets)
            self._set_ids[mset] = sid
            self._sets.append(mset)
            self._set_accepting.append(self.final_id in mset)
        return sid

    def step(self, sid: int, activity: str) -> int:
        """Advance a closed marking set by one visible event; empty set = dead."""
        key = (sid, activity)
        cached = self._set_step.get(key)
        if cached is not None:
            return cached
        labels = self.labels
        fire = self.fire_t
        images = [fire(mid, t) for mid in self._sets[sid]
                  for t in self.enabled_ts(mid) if labels[t] == activity]
        out = self._intern_set(self._close(images))
        self._set_step[key] = out
        return out

    def enabled_labels(self, sid: int) -> frozenset[str]:
        """Visible labels enabled in some marking of a closed marking set."""
        cached = self._set_enabled.get(sid)
        if cached is None:
            labels = self.labels
            cached = frozenset(labels[t] for mid in self._sets[sid]
                               for t in self.enabled_ts(mid)) - {None}
            self._set_enabled[sid] = cached
        return cached


# ------------------------------------------------------------- acceptance

def accepts(apn: AcceptingPetriNet, word,
            state_limit: int = DEFAULT_STATE_LIMIT) -> bool:
    """Decide whether the net accepts the word.

    Runs the word through Replay's subset automaton: one closed marking
    set per prefix, accepting when the final marking is in the last set.
    """
    rp = Replay(apn, state_limit=state_limit)
    sid = rp.start_set_id
    for a in word:
        sid = rp.step(sid, a)
        if sid == rp.empty_set_id:
            return False
    return rp._set_accepting[sid]


def language_upto(apn: AcceptingPetriNet, max_visible_len: int,
                  state_limit: int = DEFAULT_STATE_LIMIT) -> set[tuple[str, ...]]:
    """All accepted words of at most the given visible length.

    Test oracle and analysis helper; enumeration is breadth-first over
    (marking, word) pairs, at most state_limit of them.
    """
    rp = Replay(apn, state_limit=state_limit)
    seen: set[tuple[int, tuple[str, ...]]] = set()
    out: set[tuple[str, ...]] = set()
    start = (rp.initial_id, ())
    queue = deque([start])
    seen.add(start)
    while queue:
        mid, word = queue.popleft()
        if mid == rp.final_id:
            out.add(word)
        for t in rp.enabled_ts(mid):
            label = rp.labels[t]
            if label is None:
                new = (rp.fire_t(mid, t), word)
            elif len(word) < max_visible_len:
                new = (rp.fire_t(mid, t), word + (label,))
            else:
                continue
            if new not in seen:
                if len(seen) >= state_limit:
                    raise SearchLimitError(
                        f"state limit {state_limit} exceeded while enumerating the language")
                seen.add(new)
                queue.append(new)
    return out

