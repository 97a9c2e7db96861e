"""Fitness, precision, F-score, and high-level model expansion."""

import hashlib
import inspect
import random
from collections import Counter, defaultdict
from contextlib import contextmanager

import pytest

import loglift.conformance
from loglift import (INTERLEAVING, AcceptingPetriNet, EventLog, LogliftError,
                     PatternError, PetriNet, PipelineConfig, Replay,
                     SearchLimitError, accepts, compose, evaluate,
                     expand_model, f_score, generate_log, language_upto,
                     make_lpm, make_pattern, parse_tree, run_stages,
                     save_pnml, save_xes, tree_to_net)
from loglift.eventlog import complete_word
from loglift.petrinet import reduce_silent
from loglift.cli import main
from loglift.abstraction import LOG, MODEL, SYNC, align_words
from conftest import (PLANTED, align_trace, all_words, mk_log, mk_trace,
                      planted_alignment_cases, random_tree, reference_evaluate)


def pattern(text, name):
    return make_pattern(name, make_lpm(parse_tree(text)))


# ----------------------------------------------------------------- f-score

def test_f_score_reported_improvement():
    assert f_score(0.65, 0.86) == pytest.approx(0.74, abs=0.005)


def test_f_score_edges():
    assert f_score(0.0, 0.0) == 0.0
    assert f_score(1.0, 1.0) == 1.0
    assert f_score(0.0, 1.0) == 0.0
    assert f_score(0.5, 0.5) == pytest.approx(0.5)


def test_f_score_is_symmetric_and_bounded():
    vals = [0.0, 0.2, 0.5, 0.8, 1.0]
    for a in vals:
        for b in vals:
            assert f_score(a, b) == pytest.approx(f_score(b, a))
            assert 0.0 <= f_score(a, b) <= max(a, b) + 1e-12


# --------------------------------------------------------------- expansion

def test_expand_model_replaces_pattern_transitions():
    high = tree_to_net(parse_tree("seq(H,x)"))
    expanded = expand_model(high, [pattern("seq(a,b)", "H")])
    lang = language_upto(expanded, 4)
    assert lang == {("a", "b", "x")}
    # H is gone as a label, x stays
    assert "H" not in set(expanded.net.labels.values())


def test_expand_model_loop_of_pattern():
    high = tree_to_net(parse_tree("loop(H,tau)"))
    expanded = expand_model(high, [pattern("seq(a,b)", "H")])
    lang = language_upto(expanded, 4)
    assert lang == {("a", "b"), ("a", "b", "a", "b")}


def test_expand_model_keeps_foreign_labels():
    high = tree_to_net(parse_tree("seq(H,xor(u,v))"))
    expanded = expand_model(high, [pattern("c", "H")])
    assert language_upto(expanded, 3) == {("c", "u"), ("c", "v")}


def test_expand_model_multiple_patterns():
    high = tree_to_net(parse_tree("seq(P,Q)"))
    expanded = expand_model(high, [pattern("seq(a,b)", "P"),
                                   pattern("xor(c,d)", "Q")])
    assert language_upto(expanded, 4) == {("a", "b", "c"), ("a", "b", "d")}


def test_expand_model_rejects_multi_token_pattern_marking():
    # also empty markings; compose splices patterns the same way
    from loglift import AcceptingPetriNet, PetriNet
    from loglift.abstraction import ActivityPattern
    net = PetriNet(places={"p", "q"}, transitions={"t"},
                   arcs={("p", "t"), ("t", "q")}, labels={"t": "a"})
    high = tree_to_net(parse_tree("H"))
    for initial, final in (({"p": 2}, {"q": 2}), ({"p": 1}, {"q": 2}),
                           ({}, {"q": 1}), ({"p": 1}, {"q": 0})):
        bad = ActivityPattern(name="H",
                              net=AcceptingPetriNet(net=net, initial=initial,
                                                    final=final),
                              lifecycle={"t": "complete"})
        with pytest.raises(PatternError):
            expand_model(high, [bad])
        with pytest.raises(PatternError):
            compose([bad], INTERLEAVING)


def test_expand_model_rejects_taken_ids():
    # t__in is the id expand_model gives the entry of pattern transition t
    from loglift import AcceptingPetriNet, PetriNet
    high = PetriNet(places={"i", "m", "o"}, transitions={"t", "t__in"},
                    arcs={("i", "t"), ("t", "m"), ("m", "t__in"), ("t__in", "o")},
                    labels={"t": "P", "t__in": "b"})
    apn = AcceptingPetriNet(net=high, initial={"i": 1}, final={"o": 1})
    with pytest.raises(PatternError, match="t__in"):
        expand_model(apn, [pattern("seq(a,c)", "P")])


# -------------------------------------------------------------- evaluation

def test_fitness_perfect_and_degraded():
    apn = tree_to_net(parse_tree("seq(a,b)"))
    assert evaluate(mk_log(["ab", "ab"]), apn).fitness == pytest.approx(1.0)
    # one log move against |trace| + shortest-run normalization: 1 - 1/(3+2)
    assert evaluate(mk_log(["axb"]), apn).fitness == pytest.approx(1 - 1 / 5)
    # completely foreign trace of length 2: cost 4, denom 2 + 2
    assert evaluate(mk_log(["xy"]), apn).fitness == pytest.approx(0.0)


def test_fitness_empty_trace_against_tau_accepting_net():
    apn = tree_to_net(parse_tree("xor(a,tau)"))
    assert evaluate(mk_log([""]), apn).fitness == pytest.approx(1.0)


def test_evaluate_empty_log_is_perfect():
    report = evaluate(mk_log([]), tree_to_net(parse_tree("a")))
    assert (report.fitness, report.precision, report.f_score) == (1.0, 1.0, 1.0)


def test_precision_perfect_for_exact_model():
    apn = tree_to_net(parse_tree("seq(a,b)"))
    assert evaluate(mk_log(["ab", "ab"]), apn).precision == pytest.approx(1.0)


def test_precision_flower_regression_constant():
    # flower over {a, b} scored against [<a, b>]: exactly 1/3 escaping-based
    flower = tree_to_net(parse_tree("loop(xor(a,b),tau)"))
    assert evaluate(mk_log(["ab"]), flower).precision == pytest.approx(1 / 3)


def test_precision_antitone_under_added_behavior():
    log = mk_log(["ab", "ab", "ab"])
    tight = tree_to_net(parse_tree("seq(a,b)"))
    loose = tree_to_net(parse_tree("seq(a,xor(b,c))"))
    flower = tree_to_net(parse_tree("loop(xor(a,b,c),tau)"))
    p_tight = evaluate(log, tight).precision
    p_loose = evaluate(log, loose).precision
    p_flower = evaluate(log, flower).precision
    assert p_tight > p_loose > p_flower


def test_evaluate_trace_costs_follow_log_order():
    apn = tree_to_net(parse_tree("seq(a,b)"))
    report = evaluate(mk_log(["ab", "axb", "ab", "zz"]), apn)
    assert report.trace_costs == [0, 1, 0, 4]


def test_evaluate_f_score_consistency():
    apn = tree_to_net(parse_tree("seq(a,b)"))
    report = evaluate(mk_log(["ab", "axb"]), apn)
    assert report.f_score == pytest.approx(
        f_score(report.fitness, report.precision))


def test_to_kv_format():
    apn = tree_to_net(parse_tree("seq(a,b)"))
    text = evaluate(mk_log(["ab"]), apn).to_kv()
    lines = text.strip().splitlines()
    assert lines[0] == "fitness=1.000000"
    assert lines[1] == "precision=1.000000"
    assert lines[2] == "f_score=1.000000"
    assert lines[3] == "trace_costs=0"


def test_expanded_n1_language():
    # the running example as a high-level activity inside a bigger model
    high = tree_to_net(parse_tree("seq(s,H)"))
    expanded = expand_model(high, [pattern("seq(xor(A,loop(B,tau)),C)", "H")])
    lang = language_upto(expanded, 4)
    assert lang == {("s", "A", "C"), ("s", "B", "C"), ("s", "B", "B", "C")}


# ------------------------------------------------- precision, set semantics

# loop-free trees with silent choices, duplicate labels and concurrency,
# each with a small log mixing fitting and non-fitting traces
PRECISION_CASES = [
    ("xor(seq(a,b),seq(a,c))", ["ab", "ab", "abx", "xab"]),
    ("and(a,seq(b,c))", ["abc", "bac", "bca", "bc"]),
    ("xor(tau,and(a,b))", ["", "ab", "ab", "a"]),
    ("and(xor(tau,c),b)", ["b", "b", "bx"]),
    ("seq(xor(a,tau),and(b,xor(c,tau)))", ["ab", "bc", "acb", "b", "cab"]),
    # "a" has optimal alignments through either "a" transition
    ("xor(seq(a,b),seq(a,xor(c,d)))", ["a", "a", "x"]),
]


def brute_force_precision(words, apn, max_len=6):
    """Escaping edges over the prefix automaton of the aligned visible
    model words; at prefix w the model enables every next label of an
    accepted word that extends w."""
    lang = language_upto(apn, max_len)
    weight: Counter = Counter()
    taken = defaultdict(set)
    for word in words:
        moves = align_words(list(word), Replay(apn)).moves
        run = tuple(m.activity for m in moves if m.kind in (SYNC, MODEL))
        for i in range(len(run) + 1):
            weight[run[:i]] += 1
            if i < len(run):
                taken[run[:i]].add(run[i])
    escaping = enabled_total = 0
    for w, n in weight.items():
        enabled = {u[len(w)] for u in lang if len(u) > len(w) and u[:len(w)] == w}
        escaping += n * len(enabled - taken[w])
        enabled_total += n * len(enabled)
    return 1.0 - escaping / enabled_total if enabled_total else 1.0


def renamed_transitions(apn):
    """The same net with transition ids renamed so their sorted order is
    reversed, which reverses the order A* expands tied moves in."""
    net = apn.net
    order = sorted(net.transitions)
    new = {t: f"t{len(order) - i:03d}" for i, t in enumerate(order)}
    return AcceptingPetriNet(
        net=PetriNet(places=set(net.places), transitions=set(new.values()),
                     arcs={(new.get(a, a), new.get(b, b)) for a, b in net.arcs},
                     labels={new[t]: lab for t, lab in net.labels.items()}),
        initial=dict(apn.initial), final=dict(apn.final))


@pytest.mark.parametrize("text,words", PRECISION_CASES)
def test_precision_matches_language_oracle(text, words):
    apn = tree_to_net(parse_tree(text))
    assert evaluate(mk_log(words), apn).precision == pytest.approx(
        brute_force_precision(words, apn))


@pytest.mark.parametrize("text,words", PRECISION_CASES)
def test_precision_is_invariant_under_search_order(text, words):
    apn = tree_to_net(parse_tree(text))
    want = evaluate(mk_log(words), apn)
    assert evaluate(mk_log(words[::-1]), apn).precision == want.precision
    other = evaluate(mk_log(words), renamed_transitions(apn))
    assert (other.precision, other.trace_costs) == (want.precision, want.trace_costs)


AND_OF_LOOPS = "and(loop(a,tau),loop(b,tau),loop(c,tau),loop(d,tau))"


def set_search_cases():
    """(name, net, longest word checked): the precision nets, a four-wide
    and of loops, and the expanded net of the lift-shaped log of seed 1 (an
    and of three pattern loops). Marking-level alignment of every 4-letter
    word against the last takes about 40 s, so it stops at 3 letters."""
    cases = [(text, tree_to_net(parse_tree(text)), 4)
             for text in [t for t, _ in PRECISION_CASES] + [AND_OF_LOOPS]]
    _, nets = planted_alignment_cases("parallel", seed=1, traces=25)
    return cases + [("lift seed 1, expanded", nets["expanded"], 3)]


def test_set_search_costs_equal_marking_search_costs():
    # evaluate aligns over marking sets; its trace costs must be align_words'
    # costs, the empty word's (the shortest visible run) included
    for name, apn, max_len in set_search_cases():
        words = all_words(sorted(apn.alphabet()) + ["x"], max_len)
        rp = Replay(apn)
        want = [align_words(list(w), rp).cost for w in words]
        assert words[0] == ()
        assert evaluate(mk_log(words), apn).trace_costs == want, name


def test_set_search_settles_within_a_limit_the_marking_search_exceeds():
    # the marking search expands every interleaving of the loops' silent
    # moves; the set search settles (marking set, position) states, and the
    # shared Replay interns 258 markings
    apn = tree_to_net(parse_tree(AND_OF_LOOPS))
    word = "aaaaaaaa"
    with pytest.raises(SearchLimitError, match="during alignment"):
        align_words(list(word), Replay(apn, state_limit=1000))
    report = evaluate(mk_log([word]), apn, state_limit=1000)
    assert report.trace_costs == [align_words(list(word), Replay(apn)).cost]


def recorded_replays(monkeypatch):
    """The Replays loglift.conformance builds from now on, in order."""
    built = []

    def recording(apn, state_limit):
        built.append(Replay(apn, state_limit=state_limit))
        return built[-1]

    monkeypatch.setattr(loglift.conformance, "Replay", recording)
    return built


def test_evaluate_builds_one_replay_of_the_reduced_net(monkeypatch):
    built = recorded_replays(monkeypatch)
    apn = tree_to_net(parse_tree(AND_OF_LOOPS))
    evaluate(mk_log(["abcd", "ba", "x"]), apn)
    assert len(built) == 1
    assert built[0].places == sorted(reduce_silent(apn).net.places)
    assert len(built[0].places) < len(apn.net.places)


def test_evaluate_limit_counts_markings_of_the_reduced_net():
    # unreduced, the set steps of abcd intern 258 markings of the and of loops
    apn = tree_to_net(parse_tree(AND_OF_LOOPS))
    assert evaluate(mk_log(["abcd"]), apn, state_limit=30).trace_costs == [0]


def test_keep_foreign_model_evaluates_at_a_small_limit(monkeypatch):
    # a search-shaped log kept with its foreign activities lifts to a model
    # around an and of seven loops, five of them optional; unreduced, its
    # start set holds 973 markings
    log = generate_log([parse_tree(t) for t in PLANTED], instances=2, traces=40,
                       composition="interleaving", noise_rate=0.3, seed=2028)
    result = run_stages(log, PipelineConfig(keep_foreign=True, k=3, t_div=0.5))
    built = recorded_replays(monkeypatch)
    report = evaluate(log, result.expanded, state_limit=500)
    assert report == result.report
    (rp,) = built
    assert len(rp._sets[rp.start_set_id]) == 2


def test_evaluate_search_limit_names_first_case_of_word():
    apn = tree_to_net(parse_tree("and(a,b,c)"))
    log = EventLog(traces=[mk_trace("abc", case_id="fits"),
                           mk_trace("aabbcc", case_id="long-7"),
                           mk_trace("aabbcc", case_id="long-8")])
    with pytest.raises(SearchLimitError, match=r"during alignment \(case long-7\)"):
        evaluate(log, apn, state_limit=20)


def test_evaluate_search_limit_names_the_replay_build():
    # below 6 the limit is hit while the Replay of the model is built
    apn = tree_to_net(parse_tree("and(a,b,c)"))
    log = EventLog(traces=[mk_trace("abc", case_id="fits")])
    for state_limit in range(1, 6):
        with pytest.raises(SearchLimitError,
                           match=r"\(building the Replay of the model\)$"):
            evaluate(log, apn, state_limit=state_limit)


def test_evaluate_search_limit_names_the_shortest_visible_run_search():
    # at these limits the Replay builds, but aligning the empty word (the
    # shortest visible run) interns more markings than allowed, before any
    # trace is aligned
    apn = tree_to_net(parse_tree("and(a,b,c)"))
    log = EventLog(traces=[mk_trace("abc", case_id="fits")])
    for state_limit in range(6, 10):
        with pytest.raises(SearchLimitError,
                           match=r"\(searching the shortest visible run of the model\)$"):
            evaluate(log, apn, state_limit=state_limit)
    assert evaluate(log, apn, state_limit=10).trace_costs == [0]


# ------------------------------------------- walked words, searched words

@contextmanager
def searched_words(evaluate_fn):
    """A context in which the align_words evaluate_fn calls, the one of its
    own module's namespace, records the words it is given, in order."""
    namespace = evaluate_fn.__globals__
    search = namespace["align_words"]
    searched = []

    def recording(word, rp):
        searched.append(word)
        return search(word, rp)

    namespace["align_words"] = recording
    try:
        yield searched
    finally:
        namespace["align_words"] = search


def rejected_words(log, apn):
    """The distinct words of log, in order, that apn does not accept once
    their foreign events are dropped."""
    alphabet = apn.alphabet()
    return [w for w in dict.fromkeys(complete_word(t) for t in log)
            if not accepts(apn, [a for a in w if a in alphabet])]


def evaluates_like_reference(evaluate_fn, log, apn):
    """Whether evaluate_fn gives reference_evaluate's report, which
    searches every distinct word, while it searches only the empty word
    (the shortest visible run) and then the words apn rejects."""
    with searched_words(evaluate_fn) as searched:
        report = evaluate_fn(log, apn)
    return (report == reference_evaluate(log, apn)
            and searched == [()] + rejected_words(log, apn))


def walk_cases():
    """(name, log, net): the precision cases, the and of loops and 30
    seeded random trees with tau leaves, each on every word of up to 3
    letters over its alphabet and a foreign letter, and the expanded and
    baseline nets of the lift-shaped log of seed 1 on that log."""
    rng = random.Random(25)
    trees = (random_tree(rng, 3) for _ in iter(int, 1))
    texts = [t for t, _ in PRECISION_CASES] + [AND_OF_LOOPS] + [
        str(t) for t, _ in zip((t for t in trees if t.node_count() <= 12), range(30))]
    for text in texts:
        apn = tree_to_net(parse_tree(text))
        yield text, mk_log(all_words(sorted(apn.alphabet()) + ["x"], 3)), apn
    for text, words in PRECISION_CASES:
        yield text + " on its log", mk_log(words), tree_to_net(parse_tree(text))
    log, nets = planted_alignment_cases("parallel", seed=1, traces=25)
    for name in ("expanded", "baseline"):
        yield f"lift seed 1, {name}", log, nets[name]


def test_evaluate_walks_the_words_the_search_would_not_leave_phase_1_for():
    cases = list(walk_cases())
    assert any("tau" in name for name, _, _ in cases)
    for name, log, apn in cases:
        assert evaluates_like_reference(evaluate, log, apn), name


# a walk stepping foreign events never ends accepting, so its reports are
# right but every word with a foreign event is searched; a walk ending in
# a set that does not accept is not an alignment
WALK_MUTANTS = {
    "walk keeps foreign events": ("run = [a for a in word if a in alphabet]",
                                  "run = list(word)"),
    "walk ignores acceptance": ("len(states) > len(run) and accepting[marks[states[-1]]]",
                                "len(states) > len(run)"),
}


@pytest.mark.parametrize("name", sorted(WALK_MUTANTS))
def test_evaluate_walk_mutant_is_caught(name):
    old, new = WALK_MUTANTS[name]
    source = inspect.getsource(loglift.conformance.evaluate)
    assert source.count(old) == 1
    namespace = dict(vars(loglift.conformance))
    exec(compile(source.replace(old, new), loglift.conformance.__file__, "exec"), namespace)
    mutant = namespace["evaluate"]
    assert not all(evaluates_like_reference(mutant, log, apn)
                   for _, log, apn in walk_cases())


def test_evaluate_searches_the_empty_word_and_the_rejected_words():
    # ab fits, axb fits once x is dropped; ba and the empty word do not
    apn = tree_to_net(parse_tree("seq(a,b)"))
    log = mk_log(["ab", "axb", "ba", "", "ab", "ba"])
    with searched_words(evaluate) as searched:
        report = evaluate(log, apn)
    assert searched == [(), ("b", "a"), ()]
    assert report.trace_costs == [0, 1, 2, 2, 0, 2]
    assert report == reference_evaluate(log, apn)


def test_evaluate_search_limit_in_a_walk_names_the_case():
    # at these limits the empty word's search fits, but stepping the sets
    # of bcde interns more markings than allowed; bcde is walked, not searched
    apn = tree_to_net(parse_tree("xor(a,and(b,c,d,e))"))
    log = EventLog(traces=[mk_trace("a", case_id="short"),
                           mk_trace("bcde", case_id="walked")])
    for state_limit in (13, 14, 15):
        with searched_words(evaluate) as searched:
            with pytest.raises(SearchLimitError,
                               match=r"exploring markings \(case walked\)$"):
                evaluate(log, apn, state_limit=state_limit)
        assert searched == [()]
    assert evaluate(log, apn, state_limit=16).trace_costs == [0, 0]


def test_evaluate_walks_an_accepted_word_longer_than_the_limit():
    # a search settles a state per event of a fitting word, and the limit
    # bounds the states it settles; a walk settles none
    apn = tree_to_net(parse_tree("loop(a,tau)"))
    log = mk_log(["a" * 30, "ab" * 15])
    with pytest.raises(SearchLimitError, match="during alignment"):
        reference_evaluate(log, apn, state_limit=20)
    assert evaluate(log, apn, state_limit=20).trace_costs == [0, 15]


def test_unreachable_final_marking_is_a_no_not_a_search_limit(tmp_path, capsys):
    # the final marking {q, r} is unreachable: a search that settles every
    # reachable state within the limit answers "no", not "could not decide"
    net = PetriNet(places={"p", "q", "r"}, transitions={"t"},
                   arcs={("p", "t"), ("t", "q")}, labels={"t": "a"})
    apn = AcceptingPetriNet(net=net, initial={"p": 1}, final={"q": 1, "r": 1})
    log = mk_log(["a"])
    for run in (lambda: align_words(["a"], Replay(apn)), lambda: evaluate(log, apn)):
        with pytest.raises(LogliftError, match="not reachable") as err:
            run()
        assert not isinstance(err.value, SearchLimitError)
    model, log_path = tmp_path / "m.pnml", tmp_path / "log.xes"
    save_pnml(apn, str(model))
    save_xes(log, str(log_path))
    assert main(["evaluate", "--input", str(log_path), "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "[evaluate]" in err and "not reachable" in err, err


# sha256 of every (cost vector, moves) of the alignments of one seeded noisy
# log per composition against the three nets a run aligns it with: a faster
# aligner must return the same optimal alignment among ties, not just one
# of equal cost
ALIGNMENT_DIGESTS = {
    ("interleaving", "abstraction"):
        "dbf4c02b6122256259232fd14159c396250c33674c17d52c510c96be18cb33be",
    ("interleaving", "expanded"):
        "e15451029c6373e672f4582014477feca941df9bd5eeda88bfc35acd4c489f4e",
    ("interleaving", "baseline"):
        "0d1b88173eb37515474decf9ecd55448e018cca912b140cee50531f0d88e6b49",
    ("parallel", "abstraction"):
        "efc953787c5b0ecd9165ab83da5ca8f85a6fdcd64b8b9b1fe28bfcb1faa0f103",
    ("parallel", "expanded"):
        "bd0d166727634f0bd84fc0211c4212ed2839ce0b412b6023222068a4f5970862",
    ("parallel", "baseline"):
        "96af5e183f642b3b62a8cad51df44827b68225e91c97a78755d1718f0a0a4cb9",
}


@pytest.mark.parametrize("composition", ["interleaving", "parallel"])
def test_alignment_moves_golden(composition):
    log, nets = planted_alignment_cases(composition)
    for name, net in nets.items():
        text = repr([(a.cost_vector, [(m.kind, m.log_index, m.transition, m.activity)
                                      for m in a.moves])
                     for a in (align_trace(t, net) for t in log)])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == ALIGNMENT_DIGESTS[(composition, name)], name


@pytest.mark.parametrize("composition", ["interleaving", "parallel"])
def test_alignment_cost_vector_counts_its_moves(composition):
    # the packed cost vector, decoded, must say what the moves say
    log, nets = planted_alignment_cases(composition)
    for name, net in nets.items():
        for trace in log:
            a = align_trace(trace, net)
            log_moves = sum(m.kind == LOG for m in a.moves)
            model_moves = sum(m.kind == MODEL for m in a.moves)
            assert a.cost_vector[2] == model_moves, (name, trace.case_id)
            assert a.cost == a.cost_vector[0] == log_moves + model_moves, name
            assert a.cost_vector[1] <= log_moves, name
