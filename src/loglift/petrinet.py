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

import heapq
from collections import deque
from dataclasses import dataclass, field

from .errors import LogliftError, PatternError, SearchLimitError

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

    - one successor entry per marking, built by one scan that fires every
      enabled transition: its silent and its visible (transition, next
      marking) pairs, the visible ones also grouped by label, in transition
      order. The abstraction's aligner, the silent closures, set steps,
      enabled labels and language_upto all read it.
    - set steps and enabled labels per closed marking set (for LPM scoring
      and for conformance, which aligns and measures precision over marking
      sets). A step takes the stepped label's images from the successor
      entries of the set's markings and closes them over their silent
      pairs, so it interns every successor of each marking it reaches,
      visible ones for other labels included.
    - one successor entry per closed marking set (set_successors), shaped
      like a marking's: no silent pairs, and a (label, next set) pair per
      enabled label, so that align runs over sets as over markings.
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
        self._set_ids: dict[frozenset[int], int] = {}
        self._sets: list[frozenset[int]] = []
        self._set_accepting: list[bool] = []
        self._set_step: dict[tuple[int, str], int] = {}
        self._set_enabled: dict[int, frozenset[str]] = {}
        self._set_succ: dict[int, tuple] = {}
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
        """Enabled transitions of mid, ascending; uncached, as successors
        scans each marking once."""
        m = self._marks[mid]
        pre = self.pre
        candidates = set(self._unguarded)
        for p, c in enumerate(m):
            if c >= 1:
                candidates.update(self._consumers[p])
        return sorted(t for t in candidates if all(m[p] >= 1 for p in pre[t]))

    def successors(self, mid: int):
        """(silent, visible, visible by label) lists of (transition, next
        marking) pairs over the enabled transitions of mid, in transition
        order."""
        entry = self._succ.get(mid)
        if entry is None:
            silent: list[tuple[int, int]] = []
            visible: list[tuple[int, int]] = []
            by_label: dict[str, list[tuple[int, int]]] = {}
            m = self._marks[mid]
            pre, post, labels = self.pre, self.post, self.labels
            for t in self.enabled_ts(mid):
                dense = list(m)
                for p in pre[t]:
                    dense[p] -= 1
                for p in post[t]:
                    dense[p] += 1
                pair = (t, self.intern(tuple(dense)))
                label = labels[t]
                if label is None:
                    silent.append(pair)
                else:
                    visible.append(pair)
                    by_label.setdefault(label, []).append(pair)
            entry = self._succ[mid] = (silent, visible, by_label)
        return entry

    def _close(self, mids) -> frozenset[int]:
        """The given markings and all markings reachable from them by silent
        firings: one depth-first search with one seen set."""
        successors = self.successors
        seen = set(mids)
        stack = list(seen)
        while stack:
            for _, nxt in successors(stack.pop())[0]:
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
        successors = self.successors
        images = [nxt for mid in self._sets[sid]
                  for _, nxt in successors(mid)[2].get(activity, ())]
        out = self._intern_set(self._close(images))
        self._set_step[key] = out
        return out

    def enabled_labels(self, sid: int) -> frozenset[str]:
        """Visible labels enabled in some marking of a closed marking set."""
        cached = self._set_enabled.get(sid)
        if cached is None:
            successors = self.successors
            cached = frozenset(label for mid in self._sets[sid]
                               for label in successors(mid)[2])
            self._set_enabled[sid] = cached
        return cached

    def set_successors(self, sid: int):
        """((), visible, visible by label) for a closed marking set: one
        (label, step(sid, label)) pair per enabled label, in label order."""
        entry = self._set_succ.get(sid)
        if entry is None:
            visible = [(b, self.step(sid, b)) for b in sorted(self.enabled_labels(sid))]
            entry = self._set_succ[sid] = ((), visible,
                                           {b: [(b, nxt)] for b, nxt in visible})
        return entry


# -------------------------------------------------------------- alignment

def align(word, rp: Replay, successors, start: int, accepting, gap_oracle=None):
    """Minimum-cost alignment of a word against a node graph of rp's net.

    The nodes are markings (successors = rp.successors, from
    rp.initial_id) or closed marking sets (rp.set_successors, from
    rp.start_set_id); successors(node) gives (silent, visible, visible by
    label) lists of (edge, next node) pairs. From node v at log position
    pos, a synchronous move takes a pair of by_label[word[pos]] to
    position pos + 1 at cost 0, a silent move a silent pair at cost 0, a
    log move keeps v and goes to pos + 1 at cost 1, and a visible model
    move takes a visible pair at cost 1. The goal is any node at position
    n that accepting(node) holds for.

    Lexicographically minimizes (total cost, gap moves, visible model
    moves), where gap_oracle maps a node to the activities whose log move
    counts as a gap move there (none without an oracle). A* pops states
    in the order (total cost + heuristic, gap moves, visible model moves,
    deepest log position first, first pushed first); successors are
    pushed in the order sync, tau, log, visible model. Going deeper first
    on ties keeps a zero-cost run through a concurrent net from expanding
    every interleaving of its silent moves breadth-first. A log move is
    always possible, so the search ends without an alignment only when no
    accepting node is reachable: that raises LogliftError, while settling
    more than rp.state_limit states raises SearchLimitError.

    A state (node, log position) is the int node * (n + 1) + position.
    Each reached state records only its parent state and the edge taken
    (None for a log move). Costs and heap keys are single ints in exact
    mixed radices, so comparing two ints compares the tuples they encode.
    A cost vector (cost, gap moves, visible model moves) is packed as
    (cost * (n + 1) + gap moves) * M + model moves, with M = rp.state_limit
    + 2: gap moves are log moves, so at most n, and the model moves on a path
    are at most the states settled before it ends, so at most state_limit +
    1. A state at log position pos with packed cost d has the pop key d *
    (n + 1) + hw[pos], where hw[pos] = foreign_suffix[pos] * (n + 1) * M *
    (n + 1) + n - pos adds the heuristic (the events the net can never
    mirror) to the cost digit and puts deeper positions first. Heap
    entries are (key, push counter, state); only the goal's cost is
    decoded.

    Returns the cost vector and the path as (log position, edge, advanced)
    steps, advanced telling whether the step consumed the event at that
    position.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(word)
    width = n + 1
    alphabet = set(rp.labels) - {None}
    # admissible heuristic: events the net cannot ever mirror must be log moves
    foreign_suffix = [0] * width
    for i in range(n - 1, -1, -1):
        foreign_suffix[i] = foreign_suffix[i + 1] + (0 if word[i] in alphabet else 1)
    state_limit = rp.state_limit
    model_radix = state_limit + 2
    cost_unit = width * model_radix
    hw = [foreign_suffix[pos] * cost_unit * width + n - pos for pos in range(width)]

    start *= width
    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple] = {}
    counter = 0
    heap = [(hw[0], 0, start)]
    settled: set[int] = set()
    goal = None

    while heap:
        _, _, state = heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        node, pos = divmod(state, width)
        if pos == n and accepting(node):
            goal = state
            break
        if len(settled) > state_limit:
            raise SearchLimitError(f"state limit {state_limit} exceeded during alignment")
        d = dist[state]
        silent, visible, by_label = successors(node)
        if pos < n:
            # sync moves
            nxt_pos = pos + 1
            key = d * width + hw[nxt_pos]
            for edge, v in by_label.get(word[pos], ()):
                nxt = v * width + nxt_pos
                if nxt not in settled:
                    old = dist.get(nxt)
                    if old is None or d < old:
                        dist[nxt] = d
                        parent[nxt] = (state, edge)
                        counter += 1
                        heappush(heap, (key, counter, nxt))
        key = d * width + hw[pos]
        for edge, v in silent:
            nxt = v * width + pos
            if nxt not in settled:
                old = dist.get(nxt)
                if old is None or d < old:
                    dist[nxt] = d
                    parent[nxt] = (state, edge)
                    counter += 1
                    heappush(heap, (key, counter, nxt))
        if pos < n:
            # log move
            nxt = state + 1
            if nxt not in settled:
                new = d + cost_unit
                if gap_oracle is not None and word[pos] in gap_oracle(node):
                    new += model_radix
                old = dist.get(nxt)
                if old is None or new < old:
                    dist[nxt] = new
                    parent[nxt] = (state, None)
                    counter += 1
                    heappush(heap, (new * width + hw[pos + 1], counter, nxt))
        new = d + cost_unit + 1
        key = new * width + hw[pos]
        for edge, v in visible:
            nxt = v * width + pos
            if nxt not in settled:
                old = dist.get(nxt)
                if old is None or new < old:
                    dist[nxt] = new
                    parent[nxt] = (state, edge)
                    counter += 1
                    heappush(heap, (key, counter, nxt))

    if goal is None:
        # every reachable state was settled within the limit: a definite no
        raise LogliftError("final marking is not reachable from the initial marking")
    path = []
    state = goal
    while state != start:
        prev, edge = parent[state]
        pos = prev % width
        path.append((pos, edge, state % width > pos))
        state = prev
    path.reverse()
    cost, rest = divmod(dist[goal], cost_unit)
    gaps, model = divmod(rest, model_radix)
    return (cost, gaps, model), path


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
        silent, visible, _ = rp.successors(mid)
        nexts = [(nxt, word) for _, nxt in silent]
        if len(word) < max_visible_len:
            nexts += [(nxt, word + (rp.labels[t],)) for t, nxt in visible]
        for new in nexts:
            if new not in seen:
                if len(seen) >= state_limit:
                    raise SearchLimitError(
                        f"state limit {state_limit} exceeded while enumerating the language")
                seen.add(new)
                queue.append(new)
    return out

