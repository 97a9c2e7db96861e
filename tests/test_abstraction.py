"""Lifecycle roles, composition, gap-aware alignment, trace abstraction."""

import heapq
import types

import pytest

import loglift.petrinet
from loglift import (INTERLEAVING, PARALLEL, EventLog, PatternError, Replay,
                     SearchLimitError, abstract_log, abstract_trace, compose,
                     derive_lifecycle, language_upto, leaf, make_lpm,
                     make_pattern, parse_tree, patterns_from_models, seq,
                     tree_to_net)
from loglift.abstraction import align_words
from conftest import (GOLDEN, GOLDEN_ABSTRACTED, N1_TEXT, align_trace,
                      all_words, mk_log, mk_trace, planted_alignment_cases)


def pattern(text, name="H"):
    return make_pattern(name, make_lpm(parse_tree(text)))


@pytest.fixture(scope="module")
def n1_model():
    return compose([pattern(N1_TEXT)], INTERLEAVING)


# ---------------------------------------------------------------- lifecycle

def test_derive_lifecycle_sequence():
    apn = tree_to_net(parse_tree("seq(a,b)"))
    roles = derive_lifecycle(apn)
    by_label = {apn.net.labels.get(t): r for t, r in roles.items()
                if t in apn.net.labels}
    assert by_label == {"a": "start", "b": "complete"}


def test_derive_lifecycle_single_transition_is_complete():
    apn = tree_to_net(parse_tree("a"))
    roles = derive_lifecycle(apn)
    assert list(roles.values()) == ["complete"]


def test_derive_lifecycle_n1_start_is_tau_for_loop_branch(n1_lpm):
    roles = derive_lifecycle(n1_lpm.net)
    labels = n1_lpm.net.net.labels
    start_labels = {labels.get(t) for t, r in roles.items() if r == "start"}
    complete_labels = {labels.get(t) for t, r in roles.items() if r == "complete"}
    assert "A" in start_labels
    assert None in start_labels  # the loop branch opens silently
    assert complete_labels == {"C"}


# -------------------------------------------------------------- composition

def test_patterns_from_models_names_in_order():
    models = [make_lpm(parse_tree("seq(a,b)")), make_lpm(parse_tree("c"))]
    pats = patterns_from_models(models)
    assert [p.name for p in pats] == ["LPM_1", "LPM_2"]


def test_compose_rejects_bad_input():
    with pytest.raises(ValueError):
        compose([], INTERLEAVING)
    with pytest.raises(ValueError):
        compose([pattern("a"), pattern("b")], INTERLEAVING)  # duplicate names
    with pytest.raises(ValueError):
        compose([pattern("a")], "sideways")


def test_compose_rejects_id_collisions_between_patterns():
    # seq(a,b) compiles to places p1..p3 and transitions t4, t5; spliced
    # under "<name>__", pattern "hub" owns place hub__p1, which is also the
    # parallel hub place of a pattern named p1, and pattern "open" owns
    # transition open__t4, the interleaving entry of a pattern named t4
    cases = ((PARALLEL, "hub", "p1", "hub__p1"),
             (INTERLEAVING, "open", "t4", "open__t4"))
    for composition, first, second, clash in cases:
        for names in ((first, second), (second, first)):
            pats = [pattern("seq(a,b)", names[0]), pattern("seq(c,d)", names[1])]
            with pytest.raises(PatternError, match=clash):
                compose(pats, composition)
    model = compose([pattern("seq(a,b)", "A"), pattern("seq(c,d)", "B")], PARALLEL)
    assert len(model.net.net.places) == 10


def test_compose_empty_run_always_accepted():
    for comp in (INTERLEAVING, PARALLEL):
        model = compose([pattern("seq(a,b)")], comp)
        assert () in language_upto(model.net, 2)


def test_interleaving_keeps_occurrences_atomic():
    pats = [pattern("seq(a,b)", "P"), pattern("c", "Q")]
    inter = compose(pats, INTERLEAVING).net
    par = compose(pats, PARALLEL).net
    lang_inter = language_upto(inter, 3)
    lang_par = language_upto(par, 3)
    assert ("a", "b", "c") in lang_inter
    assert ("a", "c", "b") not in lang_inter
    assert ("a", "c", "b") in lang_par
    assert lang_inter <= lang_par


def test_parallel_same_pattern_occurrences_stay_sequential():
    model = compose([pattern("seq(a,b)", "P")], PARALLEL)
    lang = language_upto(model.net, 4)
    assert ("a", "b", "a", "b") in lang
    assert ("a", "a", "b", "b") not in lang


def test_transition_tags_cover_embedded_transitions(n1_model):
    tags = n1_model.transition_tags()
    assert set(tags) <= n1_model.net.net.transitions
    assert any(v.endswith("role=open") for v in tags.values())
    assert any(v.endswith("role=close") for v in tags.values())
    assert any("role=complete" in v for v in tags.values())


def test_pattern_alphabet(n1_model):
    assert n1_model.pattern_alphabet == frozenset("ABC")


# ---------------------------------------------------------------- alignment

def test_align_golden_cost_vector(n1_model):
    a = align_trace(mk_trace(GOLDEN), n1_model)
    assert a.cost_vector == (6, 0, 1)
    assert a.cost == 6


def test_align_plain_net_has_no_gap_component(n1_lpm):
    a = align_words(["B", "B", "C"], Replay(n1_lpm.net))
    assert a.cost == 0
    assert a.cost_vector == (0, 0, 0)
    b = align_words(["B", "X", "C"], Replay(n1_lpm.net))
    assert b.cost == 1
    assert b.cost_vector[1] == 0


def test_align_prefers_contiguous_occurrence():
    model = compose([pattern("seq(a,b)")], INTERLEAVING)
    a = align_trace(list("aab"), model)
    assert a.cost_vector == (1, 0, 0)
    kinds = [(m.kind, m.activity) for m in a.moves if m.kind in ("log", "sync")]
    # the leftover is the first a, the occurrence is contiguous at the end
    assert kinds == [("log", "a"), ("sync", "a"), ("sync", "b")]


def test_align_empty_trace(n1_model):
    a = align_trace([], n1_model)
    assert a.cost == 0
    assert all(m.kind == "tau" for m in a.moves)


def test_align_empty_word_costs_the_shortest_run():
    # evaluate's shortest visible run: silent firings are free
    assert align_words((), Replay(tree_to_net(parse_tree(N1_TEXT)))).cost == 2
    assert align_words((), Replay(tree_to_net(parse_tree("xor(a,tau)")))).cost == 0
    assert align_words((), Replay(tree_to_net(parse_tree("and(a,b,c)")))).cost == 3


def test_align_cost_vector_at_the_model_move_radix_edge():
    # the empty word against a 30-step sequence is 30 visible model moves
    # over 31 markings, so 31 is the smallest state limit its Replay
    # interns them all with; the model moves then come within three of
    # the radix (state limit + 2) the cost vector is packed with
    net = tree_to_net(seq(*[leaf(f"a{i:02d}") for i in range(30)]))
    a = align_words([], Replay(net, state_limit=31))
    assert a.cost_vector == (30, 0, 30)
    assert a.cost == 30
    with pytest.raises(SearchLimitError, match="exploring markings"):
        align_words([], Replay(net, state_limit=30))


# -------------------------------------------------------------- abstraction

def test_abstract_golden_complete_sequence(n1_model):
    out = abstract_trace(mk_trace(GOLDEN), n1_model, keep_foreign=False)
    completes = [e.activity for e in out.events if e.is_complete()]
    assert completes == GOLDEN_ABSTRACTED
    assert completes.count("H") == 3


def test_abstract_golden_keep_foreign(n1_model):
    out = abstract_trace(mk_trace(GOLDEN), n1_model, keep_foreign=True)
    completes = [e.activity for e in out.events if e.is_complete()]
    assert completes == ["A", "X", "H", "C", "A", "H", "B", "B", "X", "H"]


def test_abstract_golden_start_events(n1_model):
    out = abstract_trace(mk_trace(GOLDEN), n1_model)
    pairs = [(e.activity, e.lifecycle) for e in out.events if e.activity == "H"]
    # only the third occurrence opens with a synchronous start-role firing (A)
    assert pairs == [("H", "complete"), ("H", "complete"),
                     ("H", "start"), ("H", "complete")]


def test_abstract_missing_middle_is_an_occurrence():
    model = compose([pattern("seq(a,b,c)")], INTERLEAVING)
    out = abstract_trace(mk_trace("ac"), model)
    assert [e.activity for e in out.events if e.is_complete()] == ["H"]


def test_abstract_demotes_model_move_completion():
    # "ab" against seq(a,b,c): completing needs a visible model move on c,
    # so the occurrence is demoted and its events stay low-level.
    model = compose([pattern("seq(a,b,c)")], INTERLEAVING)
    out = abstract_trace(mk_trace("ab"), model)
    assert [e.activity for e in out.events if e.is_complete()] == ["a", "b"]


def test_abstract_lone_event_of_parallel_pattern_stays():
    model = compose([pattern("and(d,e)")], INTERLEAVING)
    out = abstract_trace(mk_trace("d"), model)
    assert [e.activity for e in out.events if e.is_complete()] == ["d"]


def test_abstract_crossing_patterns_interleaving_picks_one():
    pats = [pattern("seq(a,b)", "P"), pattern("seq(c,d)", "Q")]
    model = compose(pats, INTERLEAVING)
    out = abstract_trace(mk_trace("acbd"), model)
    completes = [e.activity for e in out.events if e.is_complete()]
    assert sum(1 for x in completes if x in ("P", "Q")) == 1
    assert len(completes) == 3


def test_abstract_crossing_patterns_parallel_takes_both():
    pats = [pattern("seq(a,b)", "P"), pattern("seq(c,d)", "Q")]
    model = compose(pats, PARALLEL)
    out = abstract_trace(mk_trace("acbd"), model)
    completes = [e.activity for e in out.events if e.is_complete()]
    assert sorted(completes) == ["P", "Q"]


def test_abstract_foreign_inside_occurrence_kept_in_place():
    model = compose([pattern("seq(a,b)")], INTERLEAVING)
    out = abstract_trace(mk_trace("axb"), model, keep_foreign=True)
    assert [e.activity for e in out.events if e.is_complete()] == ["x", "H"]


def test_abstract_log_shares_replay(n1_model):
    log = mk_log([GOLDEN, "AC", "XY"])
    out = abstract_log(log, n1_model)
    seqs = [[e.activity for e in t.events if e.is_complete()] for t in out]
    assert seqs[0] == GOLDEN_ABSTRACTED
    assert seqs[1] == ["H"]
    assert seqs[2] == []
    assert [t.case_id for t in out] == [t.case_id for t in log]


def test_abstraction_is_invariant_under_pattern_renaming():
    # "A_" extends "A" + "_", so a name-prefix match would give pattern A
    # the places of pattern A_ as well and change which events are gaps
    for composition in (INTERLEAVING, PARALLEL):
        lifted = {}
        for name in ("Z", "A_"):
            model = compose([pattern("seq(a,b)", "A"), pattern("seq(c,d)", name)],
                            composition)
            lifted[name] = [[("Q" if e.activity == name else e.activity)
                             for e in abstract_trace(mk_trace(w), model).events]
                            for w in all_words("abcd", 4)]
        assert lifted["Z"] == lifted["A_"], composition
    model = compose([pattern("seq(a,b)", "A"), pattern("seq(c,d)", "A_")], INTERLEAVING)
    out = abstract_trace(mk_trace("cadb"), model)
    assert [e.activity for e in out.events if e.is_complete()] == ["a", "A_", "b"]


def test_align_goes_deep_on_zero_cost_ties(monkeypatch):
    # six concurrent loops with silent redo: every (position, marking) pair
    # on the way ties at cost 0; breadth-first tie order pops 10,821 states.
    # The search is petrinet.align, so its pops are counted there.
    pops = 0

    def counting_pop(heap):
        nonlocal pops
        pops += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(loglift.petrinet, "heapq",
                        types.SimpleNamespace(heappush=heapq.heappush,
                                              heappop=counting_pop))
    net = tree_to_net(parse_tree(
        "and(" + ",".join(f"loop({a},tau)" for a in "abcdef") + ")"))
    alignment = align_words(list("abcdef" * 3), Replay(net))
    assert alignment.cost_vector == (0, 0, 0)
    assert 0 < pops < 2000


def test_abstract_log_search_limit_names_case():
    model = compose([pattern("and(a,b,c)", "P")], PARALLEL)
    log = EventLog(traces=[mk_trace("ab", case_id="short"),
                           mk_trace("abcabcabc", case_id="long-7")])
    with pytest.raises(SearchLimitError, match=r"during alignment \(case long-7\)"):
        abstract_log(log, model, state_limit=20)


def test_abstract_log_search_limit_names_the_replay_build():
    # below 8 the limit is hit while the Replay of the model is built,
    # before any trace is aligned
    model = compose([pattern("and(a,b,c)", "P")], PARALLEL)
    log = EventLog(traces=[mk_trace("abc", case_id="fits")])
    for state_limit in range(1, 8):
        with pytest.raises(SearchLimitError,
                           match=r"\(building the Replay of the abstraction model\)$"):
            abstract_log(log, model, state_limit=state_limit)
    with pytest.raises(SearchLimitError, match=r"\(case fits\)$"):
        abstract_log(log, model, state_limit=8)


@pytest.mark.parametrize("composition", [INTERLEAVING, PARALLEL])
def test_abstract_trace_is_abstract_log_of_one_trace(composition):
    log, nets = planted_alignment_cases(composition)
    model = nets["abstraction"]
    for keep_foreign in (False, True):
        lifted = abstract_log(log, model, keep_foreign=keep_foreign)
        assert [abstract_trace(t, model, keep_foreign=keep_foreign) for t in log] \
            == lifted.traces, keep_foreign
