"""Process model discovery via recursive directly-follows cut detection.

A simplified inductive-style miner: build a directly-follows graph with
frequency-based noise filtering, find the first applicable cut (xor,
sequence, parallel, loop, in that order), split the log accordingly and
recurse; single activities and empty traces are base cases, and a flower
model over the remaining alphabet is the total fallback. The result is a
process tree, convertible to a workflow net with tree_to_net. At noise 0
every input trace fits the discovered model.
"""

from collections import Counter
from dataclasses import dataclass, field

from .eventlog import EventLog, complete_word
from .lpm import ProcessTree, and_, leaf, loop, seq, tau, xor


@dataclass
class DirectlyFollowsGraph:
    """Activity nodes with frequencies, immediate-succession edge counts, and
    start/end activity counts. Unfiltered, start and end counts both sum to
    the number of nonempty traces; noise filtering prunes edge/start/end
    entries below a fraction of their local maximum."""
    nodes: dict[str, int] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    start_counts: dict[str, int] = field(default_factory=dict)
    end_counts: dict[str, int] = field(default_factory=dict)


def _dfg_of_counter(traces: Counter) -> DirectlyFollowsGraph:
    g = DirectlyFollowsGraph()
    nodes: Counter = Counter()
    edges: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    for word, mult in traces.items():
        if not word:
            continue
        starts[word[0]] += mult
        ends[word[-1]] += mult
        for a in word:
            nodes[a] += mult
        for a, b in zip(word, word[1:]):
            edges[(a, b)] += mult
    g.nodes = dict(nodes)
    g.edges = dict(edges)
    g.start_counts = dict(starts)
    g.end_counts = dict(ends)
    return g


def _filter_noise(g: DirectlyFollowsGraph, noise: float) -> DirectlyFollowsGraph:
    if noise <= 0:
        return g
    strongest: dict[str, int] = {}
    for (a, _), c in g.edges.items():
        strongest[a] = max(strongest.get(a, 0), c)
    edges = {(a, b): c for (a, b), c in g.edges.items() if c >= noise * strongest[a]}
    s_max = max(g.start_counts.values(), default=0)
    e_max = max(g.end_counts.values(), default=0)
    starts = {a: c for a, c in g.start_counts.items() if c >= noise * s_max}
    ends = {a: c for a, c in g.end_counts.items() if c >= noise * e_max}
    return DirectlyFollowsGraph(nodes=dict(g.nodes), edges=edges,
                                start_counts=starts, end_counts=ends)


# ------------------------------------------------------------------- cuts

def _components(nodes: set[str], adjacent: dict[str, set[str]]) -> list[list[str]]:
    """Connected components, each sorted, in order of smallest member."""
    seen: set[str] = set()
    comps = []
    for seed in sorted(nodes):
        if seed in seen:
            continue
        comp = []
        stack = [seed]
        seen.add(seed)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adjacent.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _undirected(nodes: set[str], edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {a: set() for a in nodes}
    for a, b in edges:
        if a in adj and b in adj and a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _xor_cut(nodes: set[str], g: DirectlyFollowsGraph) -> list[list[str]] | None:
    comps = _components(nodes, _undirected(nodes, g.edges))
    return comps if len(comps) >= 2 else None


def _reachability(nodes: set[str], g: DirectlyFollowsGraph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {a: set() for a in nodes}
    for a, b in g.edges:
        if a in adj and b in adj:
            adj[a].add(b)
    reach: dict[str, set[str]] = {}
    for seed in nodes:
        seen: set[str] = set()
        stack = list(adj[seed])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x])
        reach[seed] = seen
    return reach


def _sequence_cut(nodes: set[str], g: DirectlyFollowsGraph) -> list[list[str]] | None:
    reach = _reachability(nodes, g)
    groups = [{a} for a in sorted(nodes)]

    def reaches(ga: set[str], gb: set[str]) -> bool:
        return any(b in reach[a] for a in ga for b in gb)

    # merge mutually reachable or incomparable groups until totally ordered
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                ij = reaches(groups[i], groups[j])
                ji = reaches(groups[j], groups[i])
                if ij == ji:
                    groups[i] = groups[i] | groups[j]
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    if len(groups) < 2:
        return None
    preds = [sum(1 for j, other in enumerate(groups) if j != i and reaches(other, gr))
             for i, gr in enumerate(groups)]
    return [sorted(gr) for _, gr in sorted(zip(preds, groups),
                                           key=lambda item: item[0])]


def _parallel_cut(nodes: set[str], g: DirectlyFollowsGraph) -> list[list[str]] | None:
    # groups must be pairwise fully mutual, i.e. components once every
    # non-mutual pair is tied together
    adj: dict[str, set[str]] = {a: set() for a in nodes}
    for a in nodes:
        for b in nodes:
            if a < b and not ((a, b) in g.edges and (b, a) in g.edges):
                adj[a].add(b)
                adj[b].add(a)
    comps = _components(nodes, adj)
    if len(comps) < 2:
        return None
    starts, ends = set(g.start_counts), set(g.end_counts)
    for comp in comps:
        if not (starts & set(comp)) or not (ends & set(comp)):
            return None
    return comps


def _loop_cut(nodes: set[str], g: DirectlyFollowsGraph) -> list[list[str]] | None:
    starts, ends = set(g.start_counts) & nodes, set(g.end_counts) & nodes
    body = starts | ends
    rest = nodes - body
    if not rest or not body:
        return None
    comps = _components(rest, _undirected(rest, g.edges))
    for comp in comps:
        members = set(comp)
        for a, b in g.edges:
            # redo parts may only leave from body ends and re-enter at starts
            if a in body and b in members and a not in ends:
                return None
            if a in members and b in body and b not in starts:
                return None
    return [sorted(body)] + comps


# ------------------------------------------------------------------ splits

def _project(word: tuple[str, ...], keep: set[str]) -> tuple[str, ...]:
    return tuple(a for a in word if a in keep)


def _split_xor(traces: Counter, groups: list[list[str]]) -> list[Counter]:
    sets = [set(gr) for gr in groups]
    parts = [Counter() for _ in groups]
    for word, mult in traces.items():
        overlaps = [sum(1 for a in word if a in s) for s in sets]
        best = max(range(len(sets)), key=lambda i: (overlaps[i], -i))
        parts[best][_project(word, sets[best])] += mult
    return parts


def _split_projection(traces: Counter, groups: list[list[str]]) -> list[Counter]:
    parts = []
    for gr in groups:
        s = set(gr)
        part = Counter()
        for word, mult in traces.items():
            part[_project(word, s)] += mult
        parts.append(part)
    return parts


def _split_loop(traces: Counter, groups: list[list[str]]) -> list[Counter]:
    """Body and redo chunks from maximal runs; alternation is padded with
    empty body chunks so a redo run never starts or ends a trace unguarded."""
    sets = [set(gr) for gr in groups]

    def group_of(a: str) -> int:
        for i, s in enumerate(sets):
            if a in s:
                return i
        return 0
    parts = [Counter() for _ in groups]
    for word, mult in traces.items():
        runs: list[tuple[int, list[str]]] = []
        for a in word:
            gi = group_of(a)
            if runs and runs[-1][0] == gi:
                runs[-1][1].append(a)
            else:
                runs.append((gi, [a]))
        if not runs or runs[0][0] != 0:
            runs.insert(0, (0, []))
        if runs[-1][0] != 0:
            runs.append((0, []))
        for gi, chunk in runs:
            parts[gi][tuple(chunk)] += mult
    return parts


# --------------------------------------------------------------- discovery

def _flower(nodes: set[str]) -> ProcessTree:
    petals = [leaf(a) for a in sorted(nodes)]
    return loop(petals[0] if len(petals) == 1 else xor(*petals), tau())


def _discover(traces: Counter, noise: float) -> ProcessTree:
    if not traces:
        return tau()
    if () in traces:
        rest = Counter({w: m for w, m in traces.items() if w})
        if not rest:
            return tau()
        return xor(tau(), _discover(rest, noise))
    g = _filter_noise(_dfg_of_counter(traces), noise)
    nodes = set(g.nodes)
    if len(nodes) == 1:
        a = next(iter(nodes))
        if all(len(w) == 1 for w in traces):
            return leaf(a)
        return loop(leaf(a), tau())

    for cut, split in ((_xor_cut, _split_xor),
                       (_sequence_cut, _split_projection),
                       (_parallel_cut, _split_projection),
                       (_loop_cut, _split_loop)):
        groups = cut(nodes, g)
        if groups is None:
            continue
        subtrees = [_discover(part, noise) for part in split(traces, groups)]
        if cut is _xor_cut:
            return xor(*subtrees)
        if cut is _sequence_cut:
            return seq(*subtrees)
        if cut is _parallel_cut:
            return and_(*subtrees)
        body, redos = subtrees[0], subtrees[1:]
        return loop(body, redos[0] if len(redos) == 1 else xor(*redos))
    return _flower(nodes)


def discover_model(log: EventLog, noise: float = 0.0) -> ProcessTree:
    """Discover a process tree for the log's complete-lifecycle behavior."""
    if not 0 <= noise < 1:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    traces = Counter(complete_word(t) for t in log)
    return _discover(traces, noise)
