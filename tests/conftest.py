"""Shared fixtures: the running-example pattern, small log builders, and
the enumeration helpers used by the oracle-equivalence tests."""

import heapq
import itertools
from collections import Counter

import pytest

from loglift import (DEFAULT_STATE_LIMIT, AcceptingPetriNet, Event, EventLog,
                     LogliftError, QualityReport, Replay, SearchLimitError,
                     Trace, and_, f_score, leaf, loop, make_lpm, parse_tree,
                     seq, tau, xor)
# the set search reference_evaluate runs on every distinct word
from loglift.conformance import align_words
from loglift.eventlog import complete_word
from loglift.petrinet import reduce_silent

N1_TEXT = "seq(xor(A,loop(B,tau)),C)"

# Running example trace; X is foreign to the pattern.
GOLDEN = list("ABXBCCABCBBXAC")

GOLDEN_GAMMAS = [["B", "B", "C"], ["B", "C"], ["A", "C"]]
GOLDEN_LAMBDAS = [["A"], ["C", "A"], ["B", "B"], []]
GOLDEN_ABSTRACTED = ["A", "H", "C", "A", "H", "B", "B", "H"]


def mk_trace(word, case_id="c1", lifecycle=None):
    return Trace(case_id=case_id,
                 events=[Event(activity=a, lifecycle=lifecycle) for a in word])


def mk_log(words):
    return EventLog(traces=[mk_trace(w, case_id=f"c{i}")
                            for i, w in enumerate(words, start=1)])


def activities_of(trace) -> list[str]:
    """The activities of a trace's events in order, whatever their lifecycle."""
    return [e.activity for e in trace]


def alphabet_of(log) -> set[str]:
    return {e.activity for trace in log for e in trace}


@pytest.fixture(scope="session")
def n1_lpm():
    return make_lpm(parse_tree(N1_TEXT))


def all_words(alphabet, max_len):
    """Every word up to max_len over the alphabet, shortest first."""
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=length))
    return out


def random_tree(rng, depth):
    """A random process tree over a-d and tau, nested at most depth deep."""
    if depth == 0 or rng.random() < 0.3:
        return tau() if rng.random() < 0.3 else leaf(rng.choice("abcd"))
    op = rng.choice((seq, xor, and_, loop))
    arity = 2 if op is loop else rng.choice((2, 3))
    return op(*(random_tree(rng, depth - 1) for _ in range(arity)))


def tree_size(t):
    return 1 + sum(tree_size(c) for c in t.children)


def enumerate_pattern_trees(budget=5, alphabet=("a", "b", "c"), max_activities=3):
    """All canonical pattern trees within the node budget.

    Leaves are the alphabet letters and tau; operators are seq/xor/and with
    two or three children and binary loop. The constructors canonicalize
    (flatten, sort commutative children, collapse single-child operators),
    so deduplication by the text form is enough.
    """
    from loglift.lpm import check_lpm_tree

    by_size = {1: [leaf(x) for x in alphabet] + [tau()]}
    seen = {str(t) for t in by_size[1]}
    trees = list(by_size[1])

    def consider(t, s, level):
        if tree_size(t) != s or str(t) in seen:
            return
        seen.add(str(t))
        level.append(t)
        trees.append(t)

    for s in range(2, budget + 1):
        level = []
        for i in range(1, s - 1):
            j = s - 1 - i
            for a in by_size.get(i, []):
                for b in by_size.get(j, []):
                    for ctor in (seq, xor, and_, loop):
                        try:
                            consider(ctor(a, b), s, level)
                        except ValueError:
                            pass
        for i in range(1, s - 2):
            for j in range(1, s - 1 - i):
                k = s - 1 - i - j
                for a in by_size.get(i, []):
                    for b in by_size.get(j, []):
                        for c in by_size.get(k, []):
                            for ctor in (seq, xor, and_):
                                try:
                                    consider(ctor(a, b, c), s, level)
                                except ValueError:
                                    pass
        by_size[s] = level

    valid = []
    for t in trees:
        try:
            check_lpm_tree(t, max_activities=max_activities)
        except ValueError:
            continue
        valid.append(t)
    return valid


def coverage_oracle(projected, language):
    """Best event coverage by non-overlapping contiguous runs from language."""
    n = len(projected)
    word = tuple(projected)
    best = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        b = best[p + 1]
        for j in range(p + 1, n + 1):
            if word[p:j] in language:
                v = (j - p) + best[j]
                if v > b:
                    b = v
        best[p] = b
    return best[0]


def split_oracle(projected, language):
    """The runs segment() must choose, by brute force over the language:
    among the splits covering the most events, the one whose list of
    (start, end) runs is smallest, so runs start as early as possible,
    shortest first."""
    n = len(projected)
    word = tuple(projected)
    # preferred[p] = (-covered events, runs) of the chosen split of word[p:]
    preferred = [(0, [])] * (n + 1)
    for p in range(n - 1, -1, -1):
        options = [preferred[p + 1]]
        for j in range(p + 1, n + 1):
            if word[p:j] in language:
                lost, runs = preferred[j]
                options.append((lost - (j - p), [(p, j)] + runs))
        preferred[p] = min(options)
    return preferred[0][1]


PLANTED = ("seq(a,b,c)", "and(d,e)", "loop(f,g)")


def planted_alignment_cases(composition, seed=5, traces=10):
    """A seeded noisy log with the planted patterns and the three nets a
    pipeline run aligns it against: the composed abstraction model, the
    expanded model of the lifted log and the mined baseline."""
    from loglift import (abstract_log, compose, discover_model, expand_model,
                         generate_log, patterns_from_models, tree_to_net)

    trees = [parse_tree(t) for t in PLANTED]
    log = generate_log(trees, instances=2, traces=traces, composition=composition,
                       noise_rate=0.3, seed=seed)
    model = compose(patterns_from_models([make_lpm(t) for t in trees]), composition)
    lifted = abstract_log(log, model)
    expanded = expand_model(tree_to_net(discover_model(lifted, noise=0.2)),
                            model.patterns)
    baseline = tree_to_net(discover_model(log, noise=0.2))
    return log, {"abstraction": model, "expanded": expanded, "baseline": baseline}


def align_trace(trace, net):
    """A trace's complete word aligned against a net; against an
    abstraction model, on its Replay and with its gap oracle, as
    abstract_trace aligns it."""
    from loglift import AbstractionModel, Replay, align_words
    from loglift.abstraction import _GapOracle
    from loglift.eventlog import complete_word

    word = complete_word(trace)
    if isinstance(net, AbstractionModel):
        rp = Replay(net.net)
        return align_words(word, rp, _GapOracle(net, rp))
    return align_words(word, Replay(net))


def reference_align(word, rp: Replay, successors, start: int, accepting, gap_oracle=None):
    """petrinet.align as one A* over a single heap, kept verbatim as the
    oracle its two-phase search must agree with: the minimum-cost
    alignment of a word against a node graph of rp's net.

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


def reference_evaluate(log: EventLog, net: AcceptingPetriNet,
                       state_limit: int = DEFAULT_STATE_LIMIT) -> QualityReport:
    """conformance.evaluate as it aligned every distinct word, kept
    verbatim as the oracle its walk must agree with: fitness, precision,
    and F-score in one pass (alignments are shared).

    One Replay serves every alignment, the empty word's for the shortest
    visible run among them, and the precision marking sets. It is built
    from reduce_silent(net), which keeps the visible language and the
    labels enabled after each prefix, so scores are the net's. Each
    alignment is petrinet.align over that Replay's marking sets, stepping
    them through Replay.set_successors, and a set step interns every
    marking of its silent closure, so state_limit bounds the markings of
    the reduced net the shared Replay interns, whole closures included,
    and also the (marking set, log position) states each alignment
    settles. A SearchLimitError from building the Replay says so; one from
    aligning a trace's word names the first case with it; one from the
    empty word's search says it was searching the shortest visible run.
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
