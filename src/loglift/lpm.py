"""Local process models: small behavioral patterns discovered from a log.

A local process model (LPM) is a process tree over at most a handful of
activities, together with its Petri net form and a support value: the
number of events covered when each trace is projected onto the model's
activities and split into accepted runs (gamma segments) and leftover
noise (lambda segments), maximizing the covered events.

Support is computed by one forward pass per distinct projection over the
pattern's subset automaton (memoised per pattern). Discovery grows and
scores a candidate as its rank shape: the tree with each activity renamed
to its rank in the sorted activity set, as nested int tuples, against the
trace projections renamed the same way. It builds a candidate's
ProcessTree only once the candidate has scored. Shapes equal up to
renaming share one automaton, built once for the tree with its activities
named in the order they first appear, which each shape walks through its
own renaming; candidates over one activity set share one projection
Counter. A beam round gives every distinct renamed
word an int id in one word table, and each shape's forward pass memoises
word id -> coverage, so a shape walks a word at most once per round
however many activity sets project onto it. The memo is the shape's own,
not its shared automaton's: one word id means different words to different
renamings. A memo hit is a word the shape has already walked in full, so
it skips only a walk that would add no transition and step no Replay:
state_limit is hit exactly as without the memo. A candidate covers at most
the events its activity set has in the log, so a beam round scores
activity sets by that bound, highest first, and stops at the first set
whose bound is below the support of every candidate it would keep so far.
Once the round keeps a full top, its lowest support is a floor for each
candidate too: scoring stops, and the candidate is dropped, as soon as the
events its projections have left uncovered show that it cannot reach the
floor. A dropped candidate stops stepping its shape's Replay, so
state_limit, which bounds the markings of the Replay all renamings of a
shape share, can be hit only by work that could still rank. segment()
gets the split from the same forward pass, run backwards: over the
reversed projection on the reversed net, its running totals are the best
coverage of every suffix, and a forward walk from each position picks the
run that keeps that optimum.

Trees use operators seq, xor, and, loop(body, redo); loop means body once,
then zero or more redo-body rounds. xor/and children are kept sorted and
nested same-operator children are flattened, so equal-language duplicates
produced during search collapse to one canonical form.
"""

import bisect
import copy
import heapq
import operator
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import LogFormatError, LogliftError
from .eventlog import EventLog, complete_word
from .petrinet import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, PetriNet,
                       Replay)

SEQ, XOR, AND, LOOP = "seq", "xor", "and", "loop"
_OPS = (SEQ, XOR, AND, LOOP)
_CODE = {op: i for i, op in enumerate(_OPS)}
_OP_RANK = {op: str(i) for i, op in enumerate(_OPS)}
# A rank shape's leaf (_LEAF, rank) sorts after every operator node
# (code, *children), as a letter label's sort_key sorts after every "d(".
_LEAF = len(_OPS)


@dataclass(frozen=True)
class ProcessTree:
    op: str | None = None
    label: str | None = None
    children: tuple["ProcessTree", ...] = ()

    def is_leaf(self) -> bool:
        return self.op is None

    def activities(self) -> frozenset[str]:
        if self.op is None:
            return frozenset() if self.label is None else frozenset([self.label])
        return frozenset().union(*(c.activities() for c in self.children))

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)

    def sort_key(self) -> str:
        """Canonical serialization used for ordering and deduplication.

        Operators are coded by their rank digit (seq < xor < and < loop) so
        ties between equal-support models resolve in that operator order.
        """
        if self.op is None:
            return "~" if self.label is None else self.label
        return _OP_RANK[self.op] + "(" + ",".join(c.sort_key() for c in self.children) + ")"

    def to_text(self) -> str:
        """Readable form, parseable back with parse_tree."""
        if self.op is None:
            if self.label is None:
                return "tau"
            return _quote(self.label)
        return self.op + "(" + ",".join(c.to_text() for c in self.children) + ")"

    def __str__(self) -> str:
        return self.to_text()


def leaf(label: str) -> ProcessTree:
    if not label:
        raise ValueError("activity leaf needs a non-empty label")
    return ProcessTree(label=label)


def tau() -> ProcessTree:
    return ProcessTree()


def _operator(op: str, children, commutative: bool) -> ProcessTree:
    flat: list[ProcessTree] = []
    for c in children:
        if c.op == op and op != LOOP:
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        raise ValueError(f"{op} needs at least one child")
    if len(flat) == 1:
        return flat[0]
    if commutative:
        flat.sort(key=ProcessTree.sort_key)
    return ProcessTree(op=op, children=tuple(flat))


def seq(*children: ProcessTree) -> ProcessTree:
    return _operator(SEQ, children, commutative=False)


def xor(*children: ProcessTree) -> ProcessTree:
    return _operator(XOR, children, commutative=True)


def and_(*children: ProcessTree) -> ProcessTree:
    return _operator(AND, children, commutative=True)


def loop(body: ProcessTree, redo: ProcessTree) -> ProcessTree:
    return ProcessTree(op=LOOP, children=(body, redo))


_BUILD = (seq, xor, and_, loop)


_BARE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:+-.")


def _quote(label: str) -> str:
    if label and set(label) <= _BARE and label not in ("tau", "seq", "xor", "and", "loop"):
        return label
    return "'" + label.replace("'", "''") + "'"


def parse_tree(text: str) -> ProcessTree:
    """Parse a tree expression like "seq(a, xor(b, 'odd name'), tau)"."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_node() -> ProcessTree:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ValueError(f"unexpected end of tree expression: {text!r}")
        if text[pos] == "'":
            pos += 1
            out = []
            while True:
                if pos >= len(text):
                    raise ValueError(f"unterminated quote in tree expression: {text!r}")
                if text[pos] == "'":
                    if pos + 1 < len(text) and text[pos + 1] == "'":
                        out.append("'")
                        pos += 2
                        continue
                    pos += 1
                    break
                out.append(text[pos])
                pos += 1
            return leaf("".join(out))
        start = pos
        while pos < len(text) and text[pos] in _BARE:
            pos += 1
        word = text[start:pos]
        if not word:
            raise ValueError(f"unexpected character {text[pos]!r} at {pos} in {text!r}")
        skip_ws()
        if word in (SEQ, XOR, AND, LOOP) and pos < len(text) and text[pos] == "(":
            pos += 1
            children = [parse_node()]
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse_node())
                skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            pos += 1
            if word == LOOP:
                if len(children) != 2:
                    raise ValueError("loop takes exactly (body, redo)")
                return loop(*children)
            return _operator(word, children, commutative=word in (XOR, AND))
        if word == "tau":
            return tau()
        return leaf(word)

    node = parse_node()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return node


def check_lpm_tree(tree: ProcessTree, max_activities: int = 5) -> None:
    """Validate the structural limits for a pattern tree."""
    labels = [t.label for t in _walk_leaves(tree) if t.label is not None]
    if len(labels) != len(set(labels)):
        raise ValueError(f"duplicate activity leaves in {tree}")
    if not labels:
        raise ValueError(f"pattern tree {tree} has no activity leaves")
    if len(labels) > max_activities:
        raise ValueError(f"{tree} exceeds {max_activities} activities")


def _walk_leaves(tree: ProcessTree):
    if tree.op is None:
        yield tree
    else:
        for c in tree.children:
            yield from _walk_leaves(c)


# ----------------------------------------------------------- tree to net

def tree_to_net(tree: ProcessTree) -> AcceptingPetriNet:
    """Compile a process tree into an accepting workflow net.

    One source and one sink place, a single token each in the initial and
    final marking. Loops get a private entry place so a redo cannot leak
    the token back into a sibling branch.
    """
    places: set[str] = set()
    transitions: set[str] = set()
    arcs: set[tuple[str, str]] = set()
    labels: dict[str, str] = {}
    counter = [0]

    def new_place() -> str:
        counter[0] += 1
        p = f"p{counter[0]}"
        places.add(p)
        return p

    def new_transition(label: str | None) -> str:
        counter[0] += 1
        t = f"t{counter[0]}" if label is not None else f"tau{counter[0]}"
        transitions.add(t)
        if label is not None:
            labels[t] = label
        return t

    def build(node: ProcessTree, pin: str, pout: str) -> None:
        if node.op is None:
            t = new_transition(node.label)
            arcs.add((pin, t))
            arcs.add((t, pout))
        elif node.op == SEQ:
            cur = pin
            for child in node.children[:-1]:
                mid = new_place()
                build(child, cur, mid)
                cur = mid
            build(node.children[-1], cur, pout)
        elif node.op == XOR:
            for child in node.children:
                build(child, pin, pout)
        elif node.op == AND:
            split = new_transition(None)
            join = new_transition(None)
            arcs.add((pin, split))
            arcs.add((join, pout))
            for child in node.children:
                entry = new_place()
                exit_ = new_place()
                arcs.add((split, entry))
                arcs.add((exit_, join))
                build(child, entry, exit_)
        elif node.op == LOOP:
            body, redo = node.children
            enter = new_transition(None)
            start = new_place()
            mid = new_place()
            leave = new_transition(None)
            arcs.add((pin, enter))
            arcs.add((enter, start))
            arcs.add((mid, leave))
            arcs.add((leave, pout))
            build(body, start, mid)
            build(redo, mid, start)
        else:
            raise ValueError(f"unknown operator {node.op!r}")

    source = new_place()
    sink = new_place()
    build(tree, source, sink)
    apn = AcceptingPetriNet(net=PetriNet(places=places, transitions=transitions,
                                         arcs=arcs, labels=labels),
                            initial={source: 1}, final={sink: 1})
    apn.validate()
    return apn


# ------------------------------------------------------------ the model

@dataclass
class LocalProcessModel:
    net: AcceptingPetriNet
    tree: ProcessTree | None = None
    support: int = 0
    rank: int | None = None

    @cached_property
    def activities(self) -> frozenset[str]:
        return frozenset(self.net.alphabet())

    @property
    def key(self) -> str:
        """Stable identity used for ordering ties and caching."""
        if self.tree is not None:
            return self.tree.sort_key()
        return "|".join(sorted(self.net.net.labels.values()))

    def __str__(self) -> str:
        body = self.tree.to_text() if self.tree is not None else self.key
        return f"LPM(rank={self.rank}, support={self.support}, {body})"


def make_lpm(tree: ProcessTree, support: int = 0, rank: int | None = None,
             max_activities: int = 5) -> LocalProcessModel:
    check_lpm_tree(tree, max_activities=max_activities)
    return LocalProcessModel(net=tree_to_net(tree), tree=tree, support=support, rank=rank)


@dataclass
class LpmRanking:
    models: list[LocalProcessModel] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __getitem__(self, i):
        return self.models[i]


# ---------------------------------------------------------- segmentation

@dataclass
class Segmentation:
    """A split of a projected trace into accepted runs and leftovers.

    gammas are [start, end) ranges into the projected trace, in order and
    non-overlapping; every gamma is a word accepted by the model. The
    lambda segments are the gaps (first and last may be empty).
    """
    projected: list[str]
    gammas: list[tuple[int, int]]

    @property
    def lambdas(self) -> list[tuple[int, int]]:
        bounds = [0]
        for s, e in self.gammas:
            bounds.extend((s, e))
        bounds.append(len(self.projected))
        return [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds), 2)]

    @property
    def gamma_events(self) -> list[str]:
        return [a for s, e in self.gammas for a in self.projected[s:e]]

    def gamma_words(self) -> list[list[str]]:
        return [self.projected[s:e] for s, e in self.gammas]

    def lambda_words(self) -> list[list[str]]:
        return [self.projected[s:e] for s, e in self.lambdas]

    def coverage(self) -> int:
        return sum(e - s for s, e in self.gammas)


class _ForwardCoverage:
    """Best coverage of projected words by one forward pass each.

    A Viterbi pass over the replay's subset automaton. After j events the
    pass keeps, for every live subset id, the best value best[i] - i over
    the starts i of runs that reach that subset, stored as its slack over
    best[j] - j. Slack can be negative: a run that started where best was
    low may still end in the optimum, so every live entry is kept and
    entries meeting in one subset merge by max. That state is interned, and
    (state, activity) -> (next state, coverage gain) is memoised, so a word
    costs one dict lookup per event once its transitions are known. Only
    new transitions call Replay.step. The total after j events is the best
    coverage of the word's first j events; running() returns every one.

    Nets equal up to renaming share one automaton: renamed(rename) gives a
    view that shares this Replay, its interned states and its moves, and
    renames every event of a word by rename before the walk. Renaming is a
    bijection on net and words, so a view's coverage is that of its own
    renamed net. Each view keeps its own memo, since the word ids it is
    keyed by mean different words to different renamings. Built from a
    Replay alone, a coverage renames every label to itself.
    """

    def __init__(self, rp: Replay):
        self._rp = rp
        start = ((rp.start_set_id, 0),)
        self._ids = {start: 0}
        self._states = [start]
        self._moves: list[dict[str, tuple[int, int]]] = [{}]
        self._rename = {a: a for a in rp.labels if a is not None}
        # word id -> coverage of a word walked in full, kept by _support;
        # the ids come from the one word table all its callers share
        self.memo: dict[int, int] = {}

    def renamed(self, rename: dict[str, str]) -> "_ForwardCoverage":
        """A view of this automaton over words renamed by rename, with an
        empty memo of its own."""
        view = copy.copy(self)
        view._rename = rename
        view.memo = {}
        return view

    def __call__(self, projected) -> int:
        moves = self._moves
        rename = self._rename
        state = 0
        total = 0
        for a in projected:
            a = rename[a]
            hit = moves[state].get(a)
            if hit is None:
                hit = self._advance(state, a)
            state, gain = hit
            total += gain
        return total

    def running(self, projected) -> list[int]:
        """The coverage of every prefix of projected, the empty one first:
        the totals __call__ passes through."""
        moves = self._moves
        rename = self._rename
        state = 0
        totals = [0]
        for a in projected:
            a = rename[a]
            hit = moves[state].get(a)
            if hit is None:
                hit = self._advance(state, a)
            state, gain = hit
            totals.append(totals[-1] + gain)
        return totals

    def _advance(self, state: int, activity: str) -> tuple[int, int]:
        rp = self._rp
        dead = rp.empty_set_id
        moved: dict[int, int] = {}
        for sid, slack in self._states[state]:
            nxt = rp.step(sid, activity)
            if nxt != dead and (nxt not in moved or slack > moved[nxt]):
                moved[nxt] = slack
        accepting = rp._set_accepting
        gain = max([0] + [s + 1 for sid, s in moved.items() if accepting[sid]])
        entries = {sid: s + 1 - gain for sid, s in moved.items()}
        start = rp.start_set_id
        entries[start] = max(entries.get(start, 0), 0)
        key = tuple(sorted(entries.items()))
        nxt_state = self._ids.get(key)
        if nxt_state is None:
            nxt_state = len(self._states)
            self._ids[key] = nxt_state
            self._states.append(key)
            self._moves.append({})
        hit = (nxt_state, gain)
        self._moves[state][activity] = hit
        return hit


def _projections(traces_acts, names: dict[str, str]) -> Counter:
    """Distinct projections of the traces onto the activities named in
    names, each activity renamed to its name there, with multiplicities."""
    return Counter(tuple(names[a] for a in t if a in names) for t in traces_acts)


def _word_entries(projections: Counter, word_ids: dict[tuple, int]) -> tuple[list, int]:
    """The projections as (word id, word, multiplicity, events) entries,
    and their total events. word_ids is the word table: a word it lacks
    gets the next id. Coverage memos are keyed by these ids, so every
    projection scored on one coverage must come from one table."""
    entries = []
    total = 0
    for word, n in projections.items():
        events = len(word) * n
        total += events
        entries.append((word_ids.setdefault(word, len(word_ids)), word, n, events))
    return entries, total


def _support(entries, total: int, coverage: _ForwardCoverage,
             floor: int | None = None) -> int | None:
    """Events covered in the entries of _word_entries, or None when that is
    below floor.

    A word already in the coverage's memo is not walked again. With a
    floor, scoring stops at the first word after which the events left
    uncovered exceed total - floor: covering every event still to come
    cannot reach floor then. A support equal to floor is returned exactly.
    """
    allowed = total if floor is None else total - floor
    if allowed < 0:
        return None
    memo = coverage.memo
    lost = 0
    for wid, word, n, events in entries:
        covered = memo.get(wid)
        if covered is None:
            covered = memo[wid] = coverage(word)
        lost += events - covered * n
        if lost > allowed:
            return None
    return total - lost


# segment()'s backward pass for each Replay it is given, built once
# however many words that Replay segments
_BACKWARD: "weakref.WeakKeyDictionary[Replay, _ForwardCoverage]" = weakref.WeakKeyDictionary()


def _backward(rp: Replay, apn: AcceptingPetriNet) -> _ForwardCoverage:
    """The forward pass over apn reversed, for rp, a Replay of apn. The
    reversed net turns every arc round and swaps the initial and final
    markings, so it accepts exactly the reversed words. Its Replay has
    rp's state limit."""
    coverage = _BACKWARD.get(rp)
    if coverage is None:
        net = apn.net
        reversed_net = AcceptingPetriNet(
            net=PetriNet(places=net.places, transitions=net.transitions,
                         arcs={(b, a) for a, b in net.arcs}, labels=net.labels),
            initial=apn.final, final=apn.initial)
        coverage = _BACKWARD[rp] = _ForwardCoverage(
            Replay(reversed_net, state_limit=rp.state_limit))
    return coverage


def segment(trace, lpm: LocalProcessModel, replay: Replay | None = None) -> Segmentation:
    """Split a trace (projected onto the model's activities) into accepted
    runs and leftover segments, maximizing the events inside accepted runs.

    Among maximal splits, runs start as early as possible (a run is always
    preferred over skipping at the same position, shortest first).

    best[p], the most events runs can cover in the projection from p on,
    is the forward coverage pass's running total over the reversed
    projection on the reversed net. From each position p, a walk on the
    replay takes the shortest accepted run to a j with (j - p) + best[j]
    == best[p], if there is one. replay (a Replay of lpm.net, whose limit
    bounds both passes) defaults to one with the default state limit.
    """
    rp = replay if replay is not None else Replay(lpm.net)
    acts = lpm.activities
    projected = [a for a in complete_word(trace) if a in acts]
    best = _backward(rp, lpm.net).running(reversed(projected))[::-1]
    start, dead, step, accepting = (rp.start_set_id, rp.empty_set_id, rp.step,
                                    rp._set_accepting)
    gammas: list[tuple[int, int]] = []
    p = 0
    while p < len(projected):
        end = p + 1  # skip p unless a run from it keeps the optimum
        sid = start
        # such a run covers best[p] - best[j] events, so at most best[p]
        for j in range(p + 1, p + best[p] + 1):
            sid = step(sid, projected[j - 1])
            if sid == dead:
                break
            if accepting[sid] and (j - p) + best[j] == best[p]:
                gammas.append((p, j))
                end = j
                break
        p = end
    return Segmentation(projected=projected, gammas=gammas)


def support(log: EventLog, lpm: LocalProcessModel,
            state_limit: int = DEFAULT_STATE_LIMIT) -> int:
    """Total events covered by accepted runs, summed over the whole log.

    One forward pass per distinct projection over the pattern's subset
    automaton, the pass that segment() runs backwards.
    """
    entries, total = _word_entries(_projections((complete_word(t) for t in log),
                                                {a: a for a in lpm.activities}), {})
    return _support(entries, total,
                    _ForwardCoverage(Replay(lpm.net, state_limit=state_limit)))


# -------------------------------------------------------------- discovery

def discover_lpms(log: EventLog, max_activities: int = 4, beam_width: int = 50,
                  min_support: int = 1, max_results: int = 20,
                  state_limit: int = DEFAULT_STATE_LIMIT) -> LpmRanking:
    """Beam search over pattern trees, ranked by support.

    Seeds are single-activity leaves for every activity occurring at least
    min_support times. Each round keeps the beam_width best trees of the
    current size and grows each by replacing one activity leaf x with
    op(x, y) or op(y, x) for op in {seq, xor, and, loop} and every eligible
    activity y not yet in the tree. Ties by support break toward fewer
    activities, then fewer nodes, then the canonical serialization.

    A round keeps only its best keep = max(beam_width, max_results)
    candidates, and only the running top max_results is carried. A
    candidate over activity set A covers at most freq(A) events, the number
    of events of A in the log, so a round scores its activity sets in
    descending freq(A) order (ties by the sorted activities) and stops at
    the first set whose freq(A) is below the keep-th best support scored so
    far. Once the round has scored keep candidates, a candidate of set A
    is also abandoned as soon as lost > freq(A) - floor, where lost is the
    events of the projections walked so far that it leaves uncovered and
    floor is the keep-th best support so far: even covering the rest, it
    stays strictly below floor. A candidate that ties floor is scored in
    full, since support ties are broken as above. Every skipped or
    abandoned candidate ranks strictly below keep scored ones, so the
    ranking is the one scoring every candidate gives.

    A candidate is grown and scored as its rank shape: the tree with every
    activity renamed to its rank in the sorted activity set (0, 1, ...),
    as nested int tuples, over the projections renamed the same way. A
    beam tree becomes a rank shape once per rank its new activity y can
    take, and growth rebuilds only the path to the leaf x it replaces.
    Renaming is a bijection on both
    net and words, so the support is the candidate's own. Shapes equal up
    to renaming share one forward automaton and its Replay: it is built
    for the tree with the k-th distinct activity met among its leaves named
    "k", and each shape walks it through its own rank -> appearance
    renaming. So state_limit bounds the markings of the Replay that all
    renamings of a shape share, which explores the words of all their
    candidates, not the markings of a Replay per candidate. A skipped
    activity set builds no projections and no Replay, and an abandoned
    candidate stops stepping its shape's Replay, so the limit can be hit
    only by work that could still rank. Within one
    activity set the renaming is a bijection, so candidates are
    deduplicated on their rank shape, and a ProcessTree is built only for
    a candidate that keeps its support, a net only for a new automaton.
    Each distinct renamed word gets an int id from a word table shared by
    all activity sets of the round, built with each set's projections and
    their total events. A shape's forward pass memoises word id ->
    coverage in a memo of its own, not its shared automaton's, since one
    word id means different words to different renamings. So a shape that
    meets a word again, in another activity set, reads its coverage
    instead of walking it. Only fully walked words are
    memoised, and such a walk would add no transition, so the memo changes
    neither the Replay steps nor where state_limit is hit.
    Round k scores only k-activity trees, so no tree, shape or activity set
    recurs in a later round: the shape and automaton caches and the word
    table live for one round.
    """
    for name, value in (("max_activities", max_activities),
                        ("beam_width", beam_width), ("max_results", max_results)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not isinstance(log, EventLog) or len(log) == 0:
        raise LogliftError("LPM discovery needs a non-empty event log")
    freqs: Counter[str] = Counter()
    traces_acts: list[tuple[str, ...]] = []
    for trace in log:
        acts = complete_word(trace)
        traces_acts.append(acts)
        freqs.update(acts)
    eligible = sorted(a for a, n in freqs.items() if n >= min_support)
    if not eligible:
        raise LogliftError(f"no activity reaches min_support={min_support}")

    def entry(tree: ProcessTree, s: int, n_acts: int):
        """A ranked entry (order key, tree), its key computed once: (-support,
        activities, nodes, canonical serialization)."""
        return (-s, n_acts, tree.node_count(), tree.sort_key()), tree

    order_key = operator.itemgetter(0)
    # Trees are immutable, so every candidate shares one leaf per activity.
    leaves = {a: leaf(a) for a in eligible}
    # the order key is a total order, so keeping only a round's first entries
    # is exact: nothing reads past the first max(beam_width, max_results)
    keep = max(beam_width, max_results)
    # the six op(x, y) variants of every pair of leaf ranks x != y, in the
    # order growth tries them, and the leaves "0", "1", ... of the automata
    span = range(min(max_activities, len(eligible)))
    variants = {(x, y): _variants((_LEAF, x), (_LEAF, y))
                for x in span for y in span if x != y}
    appearance_leaves = [leaf(str(k)) for k in span]

    def bounded(beam):
        """The new trees one activity larger than a beam tree, scored, up
        to the first activity set that cannot reach the round's top keep."""
        # Growth steps per activity set, each a beam tree's rank shape in
        # that set and the rank p of the activity y it grows by. A step's
        # candidates have exactly the activities have | {y}, so no tree is
        # grown from two sets, and the rank shape depends on y only by p.
        steps: dict[frozenset[str], list[tuple[tuple, int]]] = {}
        for _key, tree in beam:
            acts = tree.activities()
            have = sorted(acts)
            by_p = [_rank_shape(tree, {a: i + (i >= p) for i, a in enumerate(have)})
                    for p in range(len(have) + 1)]
            for y in eligible:
                if y not in acts:
                    p = bisect.bisect(have, y)
                    steps.setdefault(acts | {y}, []).append((by_p[p], p))
        by_bound = sorted((-sum(freqs[a] for a in acts), sorted(acts), acts)
                          for acts in steps)
        shapes: dict[tuple, _ForwardCoverage] = {}  # rank shape -> its view
        automata: dict[tuple, _ForwardCoverage] = {}  # shape up to renaming
        word_ids: dict[tuple[int, ...], int] = {}  # the round's word table
        top: list[int] = []  # min-heap of the best keep supports so far
        for neg_bound, ordered, acts in by_bound:
            if len(top) == keep and -neg_bound < top[0]:
                return
            rank = {a: i for i, a in enumerate(ordered)}
            entries, total = _word_entries(_projections(traces_acts, rank), word_ids)
            act_leaves = [leaves[a] for a in ordered]
            seen: set[tuple] = set()
            for shape, p in steps[acts]:
                for x in range(len(ordered)):
                    if x == p:
                        continue
                    for candidate in _grow(shape, (_LEAF, x), variants[x, p]):
                        if candidate in seen:
                            continue
                        seen.add(candidate)
                        coverage = shapes.get(candidate)
                        if coverage is None:
                            order: dict[int, int] = {}
                            automaton_key = _by_appearance(candidate, order)
                            automaton = automata.get(automaton_key)
                            if automaton is None:
                                automaton = automata[automaton_key] = _ForwardCoverage(Replay(
                                    tree_to_net(_tree_of(automaton_key, appearance_leaves)),
                                    state_limit=state_limit))
                            coverage = shapes[candidate] = automaton.renamed(
                                {r: str(k) for r, k in order.items()})
                        floor = top[0] if len(top) == keep else None
                        s = _support(entries, total, coverage, floor)
                        if s is None:
                            continue
                        if floor is None:
                            heapq.heappush(top, s)
                        elif s > floor:
                            heapq.heapreplace(top, s)
                        yield entry(_tree_of(candidate, act_leaves), s, len(ordered))

    current = sorted((entry(leaves[a], freqs[a], 1) for a in eligible), key=order_key)
    ranked = current[:max_results]
    for _size in range(2, max_activities + 1):
        current = heapq.nsmallest(keep, bounded(current[:beam_width]), key=order_key)
        if not current:
            break
        ranked = sorted(ranked + current[:max_results], key=order_key)[:max_results]

    models = [LocalProcessModel(net=tree_to_net(t), tree=t, support=-key[0], rank=i + 1)
              for i, (key, t) in enumerate(ranked)]
    return LpmRanking(models=models)


# Rank shapes: a discovery tree over an activity set with every activity
# renamed to its rank in the sorted set, as nested int tuples. An operator
# node is (code, *children) with children flattened and sorted as the tree
# constructors do, but in tuple order; a leaf is (_LEAF, rank). Shapes are
# hashed and compared in C, so growth builds them, not ProcessTrees.

def _rank_shape(tree: ProcessTree, rank: dict[str, int]) -> tuple:
    """The rank shape of a discovery tree, each label named by rank."""
    if tree.op is None:
        return (_LEAF, rank[tree.label])
    children = [_rank_shape(c, rank) for c in tree.children]
    if tree.op in (XOR, AND):
        children.sort()
    return (_CODE[tree.op], *children)


def _variants(x: tuple, y: tuple) -> tuple[tuple, ...]:
    """seq(x,y), seq(y,x), xor(x,y), and(x,y), loop(x,y), loop(y,x) as
    shapes, for two leaves."""
    lo, hi = sorted((x, y))
    return ((_CODE[SEQ], x, y), (_CODE[SEQ], y, x), (_CODE[XOR], lo, hi),
            (_CODE[AND], lo, hi), (_CODE[LOOP], x, y), (_CODE[LOOP], y, x))


def _grow(shape: tuple, x: tuple, variants: tuple[tuple, ...]) -> list[tuple] | None:
    """shape with its leaf x replaced by each of variants in turn, or None
    when shape has no leaf x. Only the nodes on the path to x are rebuilt:
    a variant is flattened into a parent of its own operator other than
    loop, and xor/and children are sorted again."""
    code = shape[0]
    if code == _LEAF:
        return list(variants) if shape == x else None
    for i in range(1, len(shape)):
        grown = _grow(shape[i], x, variants)
        if grown is not None:
            break
    else:
        return None
    before, after = shape[1:i], shape[i + 1:]
    flattens = code != _CODE[LOOP]
    commutative = code in (_CODE[XOR], _CODE[AND])
    out = []
    for g in grown:
        children = (before + g[1:] + after if g[0] == code and flattens
                    else before + (g,) + after)
        out.append((code, *sorted(children)) if commutative else (code, *children))
    return out


def _by_appearance(shape: tuple, order: dict[int, int]) -> tuple:
    """shape with its k-th leaf renamed k, structure kept as it is; order
    gets each leaf's rank -> k. A discovery tree's leaves are distinct
    activities, so shapes that differ, node for node, only in their ranks
    come out equal."""
    if shape[0] == _LEAF:
        k = order[shape[1]] = len(order)
        return (_LEAF, k)
    return (shape[0], *(_by_appearance(c, order) for c in shape[1:]))


def _tree_of(shape: tuple, leaves: list[ProcessTree]) -> ProcessTree:
    """The canonical ProcessTree of a shape, leaf rank r becoming leaves[r]."""
    if shape[0] == _LEAF:
        return leaves[shape[1]]
    return _BUILD[shape[0]](*(_tree_of(c, leaves) for c in shape[1:]))


# -------------------------------------------------------------- diversity

# the orders filter_diverse can apply its cut and its filter in
ORDERS = ("topk_then_filter", "filter_then_topk")


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def diversity(ranking: LpmRanking, i: int) -> float:
    """Diversity of the i-th model (1-based) against all earlier models."""
    if i < 1 or i > len(ranking):
        raise IndexError(f"rank {i} out of range 1..{len(ranking)}")
    if i == 1:
        return 1.0
    acts = ranking[i - 1].activities
    return 1.0 - max(jaccard(acts, ranking[j].activities) for j in range(i - 1))


def filter_diverse(ranking: LpmRanking, t_div: float, k: int | None = None,
                   order: str = "topk_then_filter") -> list[LocalProcessModel]:
    """Keep models whose activity sets differ enough from those already kept.

    A model is dropped when 1 - max Jaccard similarity against the *kept*
    predecessors is <= t_div; the first model always stays. With
    topk_then_filter the ranking is cut to k first; with filter_then_topk
    the whole ranking is filtered and the first k survivors returned.
    """
    if not 0.0 <= t_div <= 1.0:
        raise ValueError(f"t_div must be in [0, 1], got {t_div}")
    if order not in ORDERS:
        raise ValueError(f"unknown filter order {order!r}")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    candidates = list(ranking)
    if order == "topk_then_filter" and k is not None:
        candidates = candidates[:k]
    kept: list[LocalProcessModel] = []
    for model in candidates:
        if not kept:
            kept.append(model)
            continue
        div = 1.0 - max(jaccard(model.activities, m.activities) for m in kept)
        if div > t_div:
            kept.append(model)
    if order == "filter_then_topk" and k is not None:
        kept = kept[:k]
    return kept


# ------------------------------------------------------------ persistence

INDEX_FILE = "index.tsv"
_INDEX_HEADER = "rank\tsupport\tdiversity\tactivities\ttree\tfile"


def save_ranking(ranking: LpmRanking, dirpath: str) -> None:
    """Write one PNML per model plus an index.tsv with the ranking metadata."""
    import os

    from .pnml import save_pnml
    os.makedirs(dirpath, exist_ok=True)
    lines = [_INDEX_HEADER]
    for i, model in enumerate(ranking, start=1):
        fname = f"lpm_{i}.pnml"
        save_pnml(model.net, os.path.join(dirpath, fname))
        div = diversity(ranking, i)
        tree_text = model.tree.to_text() if model.tree is not None else "-"
        acts = ",".join(sorted(model.activities))
        lines.append(f"{i}\t{model.support}\t{div:.6f}\t{acts}\t{tree_text}\t{fname}")
    with open(os.path.join(dirpath, INDEX_FILE), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ranking(dirpath: str) -> LpmRanking:
    """Read a ranking written by save_ranking; a missing index header, a
    malformed index line or model file raises LogFormatError naming the
    file."""
    import os

    from .pnml import parse_pnml
    index_path = os.path.join(dirpath, INDEX_FILE)
    if not os.path.exists(index_path):
        raise LogliftError(f"no {INDEX_FILE} in {dirpath}")
    models: list[LocalProcessModel] = []
    with open(index_path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if not rows or rows[0] != _INDEX_HEADER:
        raise LogFormatError(f"{index_path} does not start with the index header "
                             f"{_INDEX_HEADER!r}")
    for row in rows[1:]:
        if not row.strip():
            continue
        parts = row.split("\t")
        if len(parts) != 6:
            raise LogFormatError(f"bad index line in {index_path}: {row!r}")
        rank_s, support_s, _div, _acts, tree_text, fname = parts
        try:
            rank, support = int(rank_s), int(support_s)
            tree = parse_tree(tree_text) if tree_text != "-" else None
        except ValueError as exc:
            raise LogFormatError(f"bad index line in {index_path}: {row!r}: {exc}") from exc
        if tree is not None:
            net = tree_to_net(tree)
        else:
            net = parse_pnml(os.path.join(dirpath, fname))
        models.append(LocalProcessModel(net=net, tree=tree, support=support, rank=rank))
    return LpmRanking(models=models)
