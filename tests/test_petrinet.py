"""Net semantics, the replay engine, language oracles, PNML round-trip."""

import copy
import inspect
import random
from collections import Counter, defaultdict

import pytest

import loglift.abstraction
import loglift.conformance
from loglift import (INTERLEAVING, PARALLEL, AbstractionModel, AcceptingPetriNet,
                     LogliftError, PetriNet, Replay, SearchLimitError,
                     abstract_log, accepts, align_words, compose, evaluate,
                     language_upto, make_lpm, parse_pnml, parse_tree,
                     patterns_from_models, save_pnml, tree_to_net, write_pnml)
from loglift import petrinet
from loglift.abstraction import _GapOracle
from loglift.eventlog import complete_word
from loglift.petrinet import DEFAULT_STATE_LIMIT, align, reduce_silent
from conftest import (N1_TEXT, all_words, mk_log, planted_alignment_cases,
                      random_tree, reference_align)


def hand_net():
    net = PetriNet(places={"p1", "p2", "p3"},
                   transitions={"t1", "t2"},
                   arcs={("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3")},
                   labels={"t1": "a", "t2": "b"})
    return AcceptingPetriNet(net=net, initial={"p1": 1}, final={"p3": 1})


def test_enabled_and_fire():
    rp = Replay(hand_net())
    t1, t2 = rp.transitions.index("t1"), rp.transitions.index("t2")
    m0 = rp.initial_id
    assert rp.enabled_ts(m0) == [t1]
    m1 = rp.intern(tuple(int(p == "p2") for p in rp.places))
    assert rp.successors(m0) == ([], [(t1, m1)], {"a": [(t1, m1)]})
    assert rp.enabled_ts(m1) == [t2]
    assert rp.successors(m1) == ([], [(t2, rp.final_id)], {"b": [(t2, rp.final_id)]})


def brute_enabled(rp, m):
    return [t for t in range(len(rp.transitions)) if all(m[p] >= 1 for p in rp.pre[t])]


def brute_fire(rp, m, t):
    dense = list(m)
    for p in rp.pre[t]:
        dense[p] -= 1
    for p in rp.post[t]:
        dense[p] += 1
    return tuple(dense)


def brute_closure(rp, m):
    """Dense markings reachable from m by silent firings, m included."""
    seen = {m}
    todo = [m]
    while todo:
        cur = todo.pop()
        for t in brute_enabled(rp, cur):
            if rp.labels[t] is None:
                nxt = brute_fire(rp, cur, t)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def check_replay_caches(rp):
    """enabled_ts and the successor entry of every marking the replay has
    interned, its start set, every set step it has taken and every set
    successor entry it has built, against brute-force scans over all
    transitions."""
    for mid in range(len(rp._marks)):
        m = rp._marks[mid]
        enabled = brute_enabled(rp, m)
        assert rp.enabled_ts(mid) == enabled
        silent, visible, by_label = rp.successors(mid)
        pairs = [(t, rp._mark_ids[brute_fire(rp, m, t)]) for t in enabled]
        assert silent == [(t, n) for t, n in pairs if rp.labels[t] is None]
        assert visible == [(t, n) for t, n in pairs if rp.labels[t] is not None]
        want = {}
        for t, n in visible:
            want.setdefault(rp.labels[t], []).append((t, n))
        assert by_label == want

    def dense_set(sid):
        return {rp._marks[mid] for mid in rp._sets[sid]}

    def brute_step(sid, activity):
        want = set()
        for m in dense_set(sid):
            for t in brute_enabled(rp, m):
                if rp.labels[t] == activity:
                    want |= brute_closure(rp, brute_fire(rp, m, t))
        return want

    assert dense_set(rp.start_set_id) == brute_closure(rp, rp._marks[rp.initial_id])
    for (sid, activity), out in rp._set_step.items():
        assert dense_set(out) == brute_step(sid, activity), activity
    for sid, (silent, visible, by_label) in rp._set_succ.items():
        assert silent == ()
        labels = sorted({rp.labels[t] for m in dense_set(sid) for t in brute_enabled(rp, m)}
                        - {None})
        assert [b for b, _ in visible] == labels
        assert [dense_set(nxt) for _, nxt in visible] == [brute_step(sid, b) for b in labels]
        assert by_label == {b: [(b, nxt)] for b, nxt in visible}


def step_words(rp, words):
    """Run every prefix of the words through the replay's set steps."""
    for word in words:
        sid = rp.start_set_id
        for a in word:
            sid = rp.step(sid, a)


@pytest.mark.parametrize("composition", ["interleaving", "parallel"])
def test_replay_caches_match_brute_force_on_aligned_markings(composition, monkeypatch):
    # abstract_log aligns over markings and evaluate over marking sets:
    # check the Replays they build too
    log, nets = planted_alignment_cases(composition)
    built = []

    def recording(apn, state_limit):
        built.append(Replay(apn, state_limit=state_limit))
        return built[-1]

    monkeypatch.setattr(loglift.abstraction, "Replay", recording)
    monkeypatch.setattr(loglift.conformance, "Replay", recording)
    for name, net in nets.items():
        if name == "abstraction":
            abstract_log(log, net)
            rp = built[-1]
        else:
            rp = Replay(net)
            for trace in log:
                align_words(complete_word(trace), rp)
            evaluate(log, net)
            assert built[-1]._set_succ, name
            check_replay_caches(built[-1])
        step_words(rp, [complete_word(t) for t in log])
        assert len(rp._marks) > 1, name
        assert rp._set_step, name
        check_replay_caches(rp)
    assert len(built) == 3


@pytest.mark.parametrize("composition", ["interleaving", "parallel"])
def test_each_marking_is_scanned_once(composition, monkeypatch):
    # alignment, set steps, precision and the language oracle all read a
    # marking's one successor entry, so no Replay scans a marking twice
    scans = defaultdict(Counter)  # keyed by the Replay itself: ids get reused
    enabled_ts = Replay.enabled_ts

    def counting(rp, mid):
        scans[rp][mid] += 1
        return enabled_ts(rp, mid)

    monkeypatch.setattr(Replay, "enabled_ts", counting)
    log, nets = planted_alignment_cases(composition)
    words = [complete_word(t) for t in log]
    for name, net in nets.items():
        if name == "abstraction":
            abstract_log(log, net)
            apn = net.net
        else:
            evaluate(log, net)
            apn = net
        rp = Replay(apn)
        for word in words:
            align_words(word, rp)
        step_words(rp, words)
        language_upto(apn, 3)
    assert len(scans) > 6
    for counts in scans.values():
        assert max(counts.values()) == 1


def test_replay_caches_match_brute_force_on_hand_nets():
    # gen has an empty preset (always enabled); t reads p through a self-loop
    unguarded = PetriNet(places={"p", "q"}, transitions={"gen", "eat"},
                         arcs={("gen", "p"), ("p", "eat"), ("eat", "q")},
                         labels={"gen": "a", "eat": "b"})
    self_loop = PetriNet(places={"p", "q"}, transitions={"t", "u", "s"},
                         arcs={("p", "t"), ("t", "p"), ("p", "u"), ("u", "q"),
                               ("p", "s"), ("s", "p")},
                         labels={"t": "a", "u": "b"})
    for net, initial in ((unguarded, {}), (self_loop, {"p": 1})):
        apn = AcceptingPetriNet(net=net, initial=initial, final={"q": 1})
        rp = Replay(apn)
        words = (["a", "b"], ["a", "a", "b"], ["b"], ["c", "a"])
        for word in words:
            align_words(word, rp)
        step_words(rp, words)
        check_replay_caches(rp)
    rp = Replay(AcceptingPetriNet(net=unguarded, initial={}, final={"q": 1}))
    assert rp.enabled_ts(rp.initial_id) == [rp.transitions.index("gen")]


def test_validate_rejects_bad_nets():
    net = PetriNet(places={"p"}, transitions={"t"},
                   arcs={("p", "q")}, labels={})
    with pytest.raises(ValueError):
        net.validate()
    overlap = PetriNet(places={"x"}, transitions={"x"}, arcs=set(), labels={})
    with pytest.raises(ValueError):
        overlap.validate()
    apn = AcceptingPetriNet(net=PetriNet(places={"p"}, transitions=set(),
                                         arcs=set(), labels={}),
                            initial={"nope": 1}, final={})
    with pytest.raises(ValueError):
        apn.validate()


def test_accepts_simple_sequence():
    apn = hand_net()
    assert accepts(apn, ["a", "b"])
    assert not accepts(apn, ["a"])
    assert not accepts(apn, ["b", "a"])
    assert not accepts(apn, [])
    assert not accepts(apn, ["a", "b", "b"])


def test_language_upto_simple():
    apn = hand_net()
    assert language_upto(apn, 3) == {("a", "b")}
    assert language_upto(apn, 1) == set()


def test_language_upto_n1():
    apn = tree_to_net(parse_tree(N1_TEXT))
    lang = language_upto(apn, 4)
    assert lang == {("A", "C"), ("B", "C"), ("B", "B", "C"),
                    ("B", "B", "B", "C")}


def test_language_upto_counts_prefixes_not_silent_interleavings():
    # 36 places, three silent and-splits and silent loop redos: its (marking,
    # word) pairs up to length 5 exceed 100,000, but it has 303 prefixes of
    # at most 5 events (and 6,914 markings), none of them accepted
    apn = tree_to_net(parse_tree(
        "and(seq(xor(a,c,d),and(a,d,d),and(tau,tau,tau)),seq(d,tau,c),loop(d,tau),"
        "loop(tau,loop(tau,c)),tau,tau)"))
    assert len(apn.net.places) == 36
    assert language_upto(apn, 5) == set()
    assert language_upto(apn, 5, state_limit=10_000) == set()
    # every word over a, b, c: 1 + 3 + ... + 3**5 = 364 prefixes, 4 markings
    flower = tree_to_net(parse_tree("loop(xor(a,b,c),tau)"))
    assert len(language_upto(flower, 5, state_limit=364)) == 363
    with pytest.raises(SearchLimitError, match="enumerating the language"):
        language_upto(flower, 5, state_limit=363)


def brute_language(apn, max_len):
    """language_upto by the firing rule alone: breadth-first over (dense
    marking, word) pairs, every silent interleaving its own pair."""
    rp = Replay(apn)
    start = (rp._marks[rp.initial_id], ())
    final = rp._marks[rp.final_id]
    seen = {start}
    todo = [start]
    words = set()
    while todo:
        m, word = todo.pop()
        if m == final:
            words.add(word)
        for t in brute_enabled(rp, m):
            label = rp.labels[t]
            if label is None or len(word) < max_len:
                nxt = (brute_fire(rp, m, t), word if label is None else word + (label,))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return words


def test_language_upto_matches_the_firing_rule():
    # language_upto walks Replay's set steps, as accepts does, so criterion
    # 5's agreement between the two needs this independent oracle
    for apn, _words in reduction_cases():
        assert language_upto(apn, 4) == brute_language(apn, 4)


def test_replay_state_limit_guard():
    # Unbounded token growth: t produces into p without consuming.
    net = PetriNet(places={"p", "q"}, transitions={"t", "u"},
                   arcs={("q", "t"), ("t", "q"), ("t", "p"), ("p", "u")},
                   labels={"t": "a", "u": "b"})
    apn = AcceptingPetriNet(net=net, initial={"q": 1}, final={})
    with pytest.raises(SearchLimitError):
        language_upto(apn, 50, state_limit=30)


def test_multi_token_final_marking():
    net = PetriNet(places={"p", "q"}, transitions={"t"},
                   arcs={("p", "t"), ("t", "q")}, labels={"t": "a"})
    apn = AcceptingPetriNet(net=net, initial={"p": 2}, final={"q": 2})
    assert language_upto(apn, 3) == {("a", "a")}
    assert accepts(apn, ["a", "a"])
    assert not accepts(apn, ["a"])


# ------------------------------------------------------- silent reduction

# criterion 5's trees
CRITERION_5_TREES = [
    N1_TEXT, "seq(a,b)", "xor(a,b,c)", "and(a,b)", "and(a,b,c)",
    "loop(a,b)", "loop(a,tau)", "loop(xor(a,b),tau)",
    "seq(a,and(b,c))", "seq(a,xor(b,tau),c)", "and(seq(a,b),c)",
    "loop(seq(a,b),xor(c,tau))",
]

# the shape of the keep_foreign=true models, whose places rule C merges
AND_OF_OPTIONAL_LOOPS = "and(xor(loop(a,tau),tau),xor(loop(b,tau),tau))"


def accepting(places, arcs, labels, initial, final):
    transitions = {n for arc in arcs for n in arc} - set(places)
    return AcceptingPetriNet(net=PetriNet(places=set(places), transitions=transitions,
                                          arcs=set(arcs), labels=labels),
                             initial=initial, final=final)


def guarded_nets():
    """Nets that only one precondition of reduce_silent keeps as they are:
    tau's input place is final (rule A), its output place is initial (rule
    B), and a producing into both of tau's places (the guard, as a merged
    arc would carry one token for two)."""
    return [
        accepting("sfg", {("s", "a"), ("a", "f"), ("s", "c"), ("c", "g"),
                          ("f", "tau"), ("tau", "g")},
                  {"a": "a", "c": "c"}, {"s": 1}, {"f": 1}),
        accepting("pqr", {("p", "tau"), ("tau", "q"), ("p", "b"), ("b", "r"),
                          ("q", "a"), ("a", "r")},
                  {"a": "a", "b": "b"}, {"q": 1}, {"r": 1}),
        accepting("spqf", {("s", "a"), ("a", "p"), ("a", "q"), ("p", "tau"),
                           ("tau", "q"), ("q", "b"), ("b", "f")},
                  {"a": "a", "b": "b"}, {"s": 1}, {"f": 2}),
    ]


def reduction_cases():
    """(net, words): criterion 5's nets, an and of optional loops, 150
    seeded random trees of at most 12 nodes with tau leaves, nested up to 3
    deep, and guarded_nets, each with random words over its alphabet and a
    foreign letter."""
    rng = random.Random(21)
    nets = [tree_to_net(parse_tree(text))
            for text in CRITERION_5_TREES + [AND_OF_OPTIONAL_LOOPS]]
    nets.append(accepting("pq", {("p", "t"), ("t", "q")}, {"t": "a"}, {"p": 2}, {"q": 2}))
    trees = (random_tree(rng, 3) for _ in iter(int, 1))
    nets += [tree_to_net(t) for t, _ in zip((t for t in trees if t.node_count() <= 12),
                                            range(150))]
    nets += guarded_nets()
    cases = []
    for apn in nets:
        letters = sorted(apn.alphabet()) + ["x"]
        words = [""] + ["".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                        for _ in range(5)]
        cases.append((apn, words))
    return cases


def keeps_behaviour(reduce, apn, words):
    """Whether reduce(apn) has apn's words up to length 5, and evaluate
    gives it apn's fitness, precision and trace costs on the words."""
    try:
        reduced = reduce(apn)
        if language_upto(reduced, 5) != language_upto(apn, 5):
            return False
        log = mk_log(words)
        want, got = evaluate(log, apn), evaluate(log, reduced)
    except LogliftError:
        return False
    return ((got.fitness, got.precision, got.trace_costs)
            == (want.fitness, want.precision, want.trace_costs))


def test_reduce_silent_keeps_language_and_evaluate(monkeypatch):
    monkeypatch.setattr(loglift.conformance, "reduce_silent", lambda apn: apn)
    shrunk = 0
    for apn, words in reduction_cases():
        before = copy.deepcopy(apn)
        assert keeps_behaviour(reduce_silent, apn, words), (apn, words)
        assert apn == before  # the net is read, not changed
        reduced = reduce_silent(apn)
        reduced.validate()
        shrunk += len(reduced.net.places) < len(apn.net.places)
    assert shrunk >= 50


# each rule with one of its preconditions dropped
MUTANTS = {
    "A without p• = {t}": ("post[p] == {t} and p not in final and merge(p, q, {t})",
                           "p not in final and merge(p, q, {t})"),
    "A without p not final": ("post[p] == {t} and p not in final and",
                              "post[p] == {t} and"),
    "B without •q = {t}": ("pre[q] == {t} and q not in initial and",
                           "q not in initial and"),
    "B without q not initial": ("pre[q] == {t} and q not in initial and",
                                "pre[q] == {t} and"),
    "C without equal exits": ("groups.setdefault(exits, [])",
                              "groups.setdefault(frozenset(), [])"),
    "C without silent consumers": ("t in silent and len(pre[t]) == 1",
                                   "len(pre[t]) == 1"),
    "C without one input": ("len(pre[t]) == 1 and len(post[t]) == 1 for t in post[p]",
                            "len(post[t]) == 1 for t in post[p]"),
    "without the arc guard": ("if ins & pre[dst] or outs & post[dst]:", "if False:"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_reduce_silent_mutant_is_caught(name, monkeypatch):
    old, new = MUTANTS[name]
    source = inspect.getsource(petrinet.reduce_silent)
    assert source.count(old) == 1
    namespace = dict(vars(petrinet))
    exec(compile(source.replace(old, new), petrinet.__file__, "exec"), namespace)
    mutant = namespace["reduce_silent"]
    monkeypatch.setattr(loglift.conformance, "reduce_silent", lambda apn: apn)
    assert not all(keeps_behaviour(mutant, apn, words)
                   for apn, words in reduction_cases())


# ------------------------------------------------------- alignment search

def noisy(rng, word, letters):
    """word with each event dropped, replaced or followed by a random
    letter, each with probability 0.15."""
    out = []
    for a in word:
        r = rng.random()
        if r < 0.15:
            continue
        out.append(rng.choice(letters) if r < 0.3 else a)
        if r > 0.85:
            out.append(rng.choice(letters))
    return tuple(out)


def pattern_models(rng, count):
    """count seeded compositions of one to three random patterns over a-d,
    interleaving and parallel in turn."""
    models = []
    while len(models) < count:
        lpms = []
        for _ in range(rng.randint(1, 3)):
            try:
                lpms.append(make_lpm(random_tree(rng, 2)))
            except ValueError:  # a repeated or no activity leaf
                pass
        if lpms:
            composition = (INTERLEAVING, PARALLEL)[len(models) % 2]
            models.append(compose(patterns_from_models(lpms), composition))
    return models


def align_oracle_cases():
    """(search, net, words): the marking search and the reduced net's set
    search over criterion 5's nets, a net whose final marking is
    unreachable and 40 seeded random trees with tau leaves, and the
    marking search with its gap oracle over 24 compositions of random
    patterns. The words are all words up to length 3 over the net's
    alphabet and a foreign letter, and ten noisy copies of one or two
    words of at most 4 letters that the net accepts, run together."""
    rng = random.Random(22)
    nets = [tree_to_net(parse_tree(text)) for text in CRITERION_5_TREES]
    nets.append(accepting("pq", {("p", "t"), ("t", "q")}, {"t": "a"}, {"p": 2}, {"q": 2}))
    nets.append(accepting("pqr", {("p", "t"), ("t", "q")}, {"t": "a"}, {"p": 1},
                          {"q": 1, "r": 1}))
    trees = (random_tree(rng, 3) for _ in iter(int, 1))
    nets += [tree_to_net(t) for t, _ in zip((t for t in trees if t.node_count() <= 12),
                                            range(40))]
    cases = []
    for net in nets + pattern_models(rng, 24):
        apn = net.net if isinstance(net, AbstractionModel) else net
        letters = sorted(apn.alphabet()) + ["x"]
        accepted = sorted(language_upto(apn, 4)) or [()]
        words = all_words(letters, 3) + [noisy(rng, rng.choice(accepted) * rng.randint(1, 2),
                                               letters) for _ in range(10)]
        if isinstance(net, AbstractionModel):
            cases.append(("gap", net, words))
        else:
            cases += [("marking", net, words), ("set", net, words)]
    return cases


def align_outcomes(align_fn, search, net, words, state_limit):
    """align_fn's (cost vector, path), or its error, for each word in turn
    on one Replay, and how many markings that Replay interned."""
    apn = net.net if search == "gap" else reduce_silent(net) if search == "set" else net
    try:
        rp = Replay(apn, state_limit=state_limit)
    except SearchLimitError as err:
        return str(err)
    if search == "set":
        args = (rp.set_successors, rp.start_set_id, rp._set_accepting.__getitem__)
    else:
        args = (rp.successors, rp.initial_id, lambda mid: mid == rp.final_id,
                _GapOracle(net, rp) if search == "gap" else None)
    out = []
    for word in words:
        try:
            out.append(align_fn(word, rp, *args))
        except LogliftError as err:
            out.append((type(err).__name__, str(err)))
    return out, len(rp._marks)


ALIGN_LIMITS = (DEFAULT_STATE_LIMIT, 25, 8)


def disagreements(align_fn):
    """The (search, net, state limit) cases where align_fn's outcomes
    differ from reference_align's."""
    return ((search, net, limit) for search, net, words in align_oracle_cases()
            for limit in ALIGN_LIMITS
            if align_outcomes(align_fn, search, net, words, limit)
            != align_outcomes(reference_align, search, net, words, limit))


def test_align_matches_the_single_heap_search():
    # the two phases return the alignment one A* over a single heap
    # returns among ties, hit the state limit where it does, and leave the
    # Replay with the same markings
    assert next(disagreements(align), None) is None


# phase 1 popping last reached first, phase 2 pushing the costed moves of
# phase 1's states in reverse settle order, and phase 1 settling one state
# over the limit
ALIGN_MUTANTS = {
    "LIFO within a position": ("state = queue.popleft()", "state = queue.pop()"),
    "phase 1 replayed in reverse": ("state = order[i]", "state = order[-1 - i]"),
    "phase 1 over the limit": ("len(order) > state_limit", "len(order) > state_limit + 1"),
}


@pytest.mark.parametrize("name", sorted(ALIGN_MUTANTS))
def test_align_mutant_is_caught(name):
    old, new = ALIGN_MUTANTS[name]
    source = inspect.getsource(petrinet.align)
    assert source.count(old) == 1
    namespace = dict(vars(petrinet))
    exec(compile(source.replace(old, new), petrinet.__file__, "exec"), namespace)
    assert next(disagreements(namespace["align"]), None) is not None


# ------------------------------------------------------------------- PNML

def test_pnml_round_trip_tree_net(tmp_path):
    apn = tree_to_net(parse_tree("seq(a,xor(b,tau),loop(c,d))"))
    path = tmp_path / "net.pnml"
    save_pnml(apn, str(path))
    back = parse_pnml(str(path))
    assert back.net.places == apn.net.places
    assert back.net.transitions == apn.net.transitions
    assert back.net.arcs == apn.net.arcs
    assert back.net.labels == apn.net.labels
    assert back.initial == apn.initial
    assert back.final == apn.final


def test_pnml_round_trip_languages_agree(tmp_path):
    for text in ("seq(a,b)", "and(a,b,c)", N1_TEXT, "loop(a,b)"):
        apn = tree_to_net(parse_tree(text))
        back = parse_pnml(write_pnml(apn))
        assert language_upto(back, 4) == language_upto(apn, 4), text


def test_pnml_final_marking_reference_entries_are_not_places():
    # The final marking travels as <place idref=...> entries inside a
    # toolspecific block; those must not be read back as net places.
    apn = hand_net()
    back = parse_pnml(write_pnml(apn))
    assert back.net.places == {"p1", "p2", "p3"}
    assert back.final == {"p3": 1}


def test_pnml_is_deterministic():
    apn = tree_to_net(parse_tree("and(a,b)"))
    assert write_pnml(apn) == write_pnml(apn)


def test_pnml_transition_tags_round_trip(tmp_path):
    apn = hand_net()
    data = write_pnml(apn, transition_tags={"t1": "H:start"})
    assert b"H:start" in data
    back = parse_pnml(data)
    assert back.net.labels == {"t1": "a", "t2": "b"}


def test_write_pnml_golden_bytes():
    assert write_pnml(hand_net(), transition_tags={"t1": "pattern=H;role=start"}) == \
        b"""<?xml version='1.0' encoding='utf-8'?>
<pnml>
  <net id="net1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="page1">
      <place id="p1">
        <initialMarking>
          <text>1</text>
        </initialMarking>
      </place>
      <place id="p2" />
      <place id="p3" />
      <transition id="t1">
        <name>
          <text>a</text>
        </name>
        <toolspecific tool="loglift" version="0.1">
          <text>pattern=H;role=start</text>
        </toolspecific>
      </transition>
      <transition id="t2">
        <name>
          <text>b</text>
        </name>
      </transition>
      <arc id="arc0" source="p1" target="t1" />
      <arc id="arc1" source="p2" target="t2" />
      <arc id="arc2" source="t1" target="p2" />
      <arc id="arc3" source="t2" target="p3" />
    </page>
    <toolspecific tool="loglift" version="0.1">
      <finalMarking>
        <place idref="p3" tokens="1" />
      </finalMarking>
    </toolspecific>
  </net>
</pnml>"""


def test_parse_pnml_accepts_bytes_path_and_binary_file(tmp_path):
    data = write_pnml(hand_net())
    path = tmp_path / "net.pnml"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        nets = [parse_pnml(data), parse_pnml(str(path)), parse_pnml(fh)]
    for back in nets:
        assert back == hand_net()


def test_pnml_rejects_malformed_input(tmp_path):
    from loglift import LogFormatError
    with pytest.raises(LogFormatError, match="malformed PNML at line 2, column 7"):
        parse_pnml(b"<pnml>\n  <net>")
    with pytest.raises(LogFormatError):
        parse_pnml(b"<pnml><net><page><arc id='a1' source='x'/></page></net></pnml>")
    place = b"<place id='p'><initialMarking><text>%s</text></initialMarking></place>"
    trans = b"<transition id='t'/><arc id='a1' source='p' target='t'/>"
    with pytest.raises(LogFormatError, match="bad token count 'x' in the initial marking of 'p'"):
        parse_pnml(b"<pnml><net><page>" + place % b"x" + trans + b"</page></net></pnml>")
    with pytest.raises(LogFormatError, match="does not connect a place and a transition"):
        parse_pnml(b"<pnml><net><page>" + place % b"1" + b"<place id='q'/>"
                   b"<arc id='a1' source='p' target='q'/></page></net></pnml>")
    with pytest.raises(LogFormatError, match="bad token count 'y' in the final marking of 'p'"):
        parse_pnml(b"<pnml><net><page>" + place % b"1" + trans + b"</page>"
                   b"<toolspecific tool='loglift'><finalMarking>"
                   b"<place idref='p' tokens='y'/></finalMarking></toolspecific></net></pnml>")
    path = tmp_path / "bad.pnml"
    path.write_bytes(b"<pnml><net><page><place id='p'><initialMarking><text>x</text>"
                     b"</initialMarking></place></page></net></pnml>")
    with pytest.raises(LogFormatError, match=r"bad\.pnml: bad token count 'x'"):
        parse_pnml(str(path))
    with pytest.raises(LogFormatError, match=r"missing\.pnml"):
        parse_pnml(str(tmp_path / "missing.pnml"))
