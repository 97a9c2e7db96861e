"""Process trees, pattern nets, segmentation, LPM mining and filtering."""

import hashlib
import inspect
import itertools
import random
from collections import Counter

import pytest

import loglift.lpm
from loglift import (LocalProcessModel, LogliftError, LpmRanking,
                     SearchLimitError, and_,
                     discover_lpms, diversity, filter_diverse, generate_log,
                     jaccard, language_upto, leaf, load_ranking, loop,
                     make_lpm, parse_tree, save_ranking, segment, seq, support,
                     tau, tree_to_net, xor)
from loglift.eventlog import complete_word
from loglift.lpm import ProcessTree, check_lpm_tree
from loglift.petrinet import Replay
from conftest import (GOLDEN, GOLDEN_GAMMAS, GOLDEN_LAMBDAS, N1_TEXT, all_words,
                      alphabet_of, enumerate_pattern_trees, mk_log, mk_trace, random_tree,
                      split_oracle)


# ----------------------------------------------------------------- trees

def test_tree_text_round_trip():
    for text in ("a", "tau", "seq(a,b)", "xor(a,tau)", "loop(b,tau)",
                 "seq(xor(loop(B,tau),A),C)", "seq(and(a,b),c)",
                 "loop(seq(a,b),xor(c,tau))"):
        assert str(parse_tree(text)) == text
    # non-canonical spellings parse to the same tree as their canonical form
    assert parse_tree(N1_TEXT) == parse_tree("seq(xor(loop(B,tau),A),C)")


def test_constructors_canonicalize():
    assert str(seq(seq(leaf("a"), leaf("b")), leaf("c"))) == "seq(a,b,c)"
    assert str(xor(leaf("b"), leaf("a"))) == str(xor(leaf("a"), leaf("b")))
    assert str(and_(leaf("b"), leaf("a"))) == "and(a,b)"
    # single-child operators collapse
    assert str(seq(leaf("a"))) == "a"


def test_parse_tree_quoted_labels():
    t = parse_tree("seq('odd name',b)")
    assert t.children[0].label == "odd name"
    assert str(parse_tree(str(t))) == str(t)


def test_parse_tree_errors():
    for bad in ("", "seq(", "seq(a,)", "loop(a)", "loop(a,b,c)", "a b", "(a)"):
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_check_lpm_tree_limits():
    with pytest.raises(ValueError):
        check_lpm_tree(parse_tree("seq(a,a)"))
    with pytest.raises(ValueError):
        check_lpm_tree(parse_tree("tau"))
    with pytest.raises(ValueError):
        check_lpm_tree(parse_tree("seq(a,b,c)"), max_activities=2)
    check_lpm_tree(parse_tree("seq(a,b,c)"), max_activities=3)


def test_tree_to_net_languages():
    cases = {
        "seq(a,b)": {("a", "b")},
        "xor(a,b)": {("a",), ("b",)},
        "and(a,b)": {("a", "b"), ("b", "a")},
        "xor(a,tau)": {(), ("a",)},
        "loop(a,b)": {("a",), ("a", "b", "a"), ("a", "b", "a", "b", "a")},
        N1_TEXT: {("A", "C"), ("B", "C"), ("B", "B", "C"),
                  ("B", "B", "B", "C"), ("B", "B", "B", "B", "C")},
    }
    for text, expected in cases.items():
        apn = tree_to_net(parse_tree(text))
        assert language_upto(apn, 5) == expected, text


def test_tree_to_net_is_a_workflow_net():
    apn = tree_to_net(parse_tree(N1_TEXT))
    apn.validate()
    assert sum(apn.initial.values()) == 1
    assert sum(apn.final.values()) == 1


# ----------------------------------------------------------- segmentation

def test_segment_golden(n1_lpm):
    s = segment(GOLDEN, n1_lpm)
    assert s.projected == [a for a in GOLDEN if a != "X"]
    assert s.gamma_words() == GOLDEN_GAMMAS
    assert s.lambda_words() == GOLDEN_LAMBDAS
    assert s.gamma_events == [a for g in GOLDEN_GAMMAS for a in g]
    assert s.coverage() == 7


def test_segment_accepts_trace_objects(n1_lpm):
    s = segment(mk_trace(GOLDEN), n1_lpm)
    assert s.gamma_words() == GOLDEN_GAMMAS


def test_segment_empty_and_foreign_only(n1_lpm):
    assert segment([], n1_lpm).gammas == []
    s = segment(list("XYZ"), n1_lpm)
    assert s.projected == []
    assert s.gammas == []


def test_segment_prefers_early_runs():
    lpm = make_lpm(parse_tree("seq(a,b)"))
    s = segment(list("abab"), lpm)
    assert s.gammas == [(0, 2), (2, 4)]


def test_segment_gammas_are_accepted_and_disjoint(n1_lpm):
    rng = random.Random(5)
    lang = language_upto(n1_lpm.net, 8)
    for _ in range(200):
        word = [rng.choice("ABCX") for _ in range(rng.randrange(0, 10))]
        s = segment(word, n1_lpm)
        prev_end = 0
        for start, end in s.gammas:
            assert prev_end <= start < end
            prev_end = end
            assert tuple(s.projected[start:end]) in lang


def test_segment_gammas_match_the_split_oracle(n1_lpm):
    # where the runs fall, not only how many events they cover: every
    # criterion-4 tree on every word of up to 5 letters, and N1 on long
    # random words
    words = all_words(("a", "b", "c"), 5)
    for tree in enumerate_pattern_trees(budget=5, alphabet=("a", "b", "c"),
                                        max_activities=3):
        lpm = make_lpm(tree, max_activities=3)
        rp = Replay(lpm.net)
        lang = language_upto(lpm.net, 5)
        for word in words:
            projected = [a for a in word if a in lpm.activities]
            assert (segment(list(word), lpm, replay=rp).gammas
                    == split_oracle(projected, lang)), (tree, word)
    rng = random.Random(14)
    rp = Replay(n1_lpm.net)
    lang = language_upto(n1_lpm.net, 60)
    for _ in range(200):
        word = [rng.choice("ABCX") for _ in range(rng.randrange(20, 61))]
        projected = [a for a in word if a != "X"]
        assert segment(word, n1_lpm, replay=rp).gammas == split_oracle(projected, lang), word


def test_support_counts_covered_events(n1_lpm):
    log = mk_log([GOLDEN, "AC", "XY"])
    assert support(log, n1_lpm) == 7 + 2 + 0
    # the only optimal run is bacb (gamma (1, 5)); the run starting at b
    # lags the best prefix coverage after ab and must still be kept
    assert support(mk_log(["abacb"]),
                   make_lpm(parse_tree("and(loop(b,c),a)"))) == 4


# ------------------------------------------------------------- discovery

def test_discover_lpms_finds_planted_pattern():
    log = mk_log(["abcx", "xabc", "abyc", "abc"] * 5)
    ranking = discover_lpms(log, max_activities=3, beam_width=20,
                            max_results=10)
    assert len(ranking) >= 1
    assert ranking[0].rank == 1
    trees = [str(m.tree) for m in ranking]
    assert "seq(a,b,c)" in trees[:3]
    supports = [m.support for m in ranking]
    assert supports == sorted(supports, reverse=True)


def test_discover_lpms_respects_min_support():
    log = mk_log(["ab"] * 3 + ["cd"])
    ranking = discover_lpms(log, max_activities=2, beam_width=10,
                            max_results=10, min_support=3)
    # c and d occur once each, below the threshold, so no model uses them
    assert len(ranking) > 0
    for model in ranking:
        assert model.tree.activities() <= {"a", "b"}
    with pytest.raises(LogliftError, match="min_support=5"):
        discover_lpms(log, max_activities=2, min_support=5)


def test_lpm_scoring_state_limit_raises():
    # "could not decide" must surface as an error, never as a lower support
    log = mk_log(["abcab", "bca"])
    with pytest.raises(SearchLimitError):
        discover_lpms(log, max_activities=3, state_limit=3)
    with pytest.raises(SearchLimitError):
        support(log, make_lpm(parse_tree("and(a,b,c)")), state_limit=3)


def _planted_log(traces, instances, seed):
    return generate_log([parse_tree(t) for t in ("seq(a,b,c)", "and(d,e)", "loop(f,g)")],
                        instances=instances, traces=traces, noise_rate=0.3, seed=seed)


def test_discover_lpms_support_matches_per_net_scoring():
    # candidates are scored on automata shared per shape; every returned
    # support must equal the model's own net scored alone, by the forward
    # pass and by segment's pass over the reversed net
    log = _planted_log(traces=6, instances=1, seed=3)
    ranking = discover_lpms(log, max_activities=4, beam_width=10, max_results=10**6)
    assert {len(m.activities) for m in ranking} == {1, 2, 3, 4}
    for model in ranking:
        assert support(log, model) == model.support, model
        assert sum(segment(t, model).coverage() for t in log) == model.support, model


def _shape_text(tree, names):
    if tree.op is None:
        return "tau" if tree.label is None else names[tree.label]
    return tree.op + "(" + ",".join(_shape_text(c, names) for c in tree.children) + ")"


def _first_appearance(tree):
    """Each activity renamed to the order it first appears in among the leaves."""
    names = {}
    for t in loglift.lpm._walk_leaves(tree):
        if t.label is not None:
            names.setdefault(t.label, str(len(names)))
    return names


def _counting_replays(monkeypatch):
    built = []

    class CountingReplay(loglift.lpm.Replay):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(loglift.lpm, "Replay", CountingReplay)
    return built


def _is_flat_xor(tree):
    return tree.op == "xor" and all(c.op is None for c in tree.children)


def test_discover_lpms_builds_one_replay_per_shape(monkeypatch):
    # a shape is a tree up to renaming: shapes equal once activities are
    # named by first appearance share one Replay, however their activities
    # rank in the sorted activity set; a flat xor is scored without a walk,
    # so only the shapes that were walked build one
    built = _counting_replays(monkeypatch)
    walked_replays = []
    walk = loglift.lpm._ForwardCoverage.__call__

    def recording_walk(self, projected):
        walked_replays.append(self._rp)
        return walk(self, projected)

    monkeypatch.setattr(loglift.lpm._ForwardCoverage, "__call__", recording_walk)
    log = _planted_log(traces=10, instances=2, seed=11)
    ranking = discover_lpms(log, max_results=10**6)
    candidates = [m for m in ranking if len(m.activities) > 1]
    rank_shapes = set()
    shapes = set()
    for m in candidates:
        names = {a: str(i) for i, a in enumerate(sorted(m.activities))}
        rank_shapes.add(_shape_text(m.tree, names))
        shapes.add(_shape_text(m.tree, _first_appearance(m.tree)))
    walked = {s for s in shapes if not _is_flat_xor(parse_tree(s))}
    assert len(shapes) - len(walked) == 3  # xor(0,1), xor(0,1,2), xor(0,1,2,3)
    assert len(built) == len({id(rp) for rp in walked_replays}) == len(walked)
    assert len(built) < len(rank_shapes)
    assert len(built) * 10 < len(candidates)


def test_discover_lpms_renamings_of_one_shape_keep_their_own_supports(monkeypatch):
    # seq(a,b) and seq(b,a) walk one automaton, over the same word ids of
    # their activity set; each must still read the coverage of its own net
    built = _counting_replays(monkeypatch)
    log = generate_log([parse_tree("seq(a,b)")], instances=1, traces=5,
                       noise_rate=0, seed=1)
    ranking = discover_lpms(log, max_activities=2, max_results=10**6)
    pairs = [m for m in ranking if len(m.activities) == 2]
    assert len(pairs) == 6
    # the seq, and and loop shapes; xor(a,b) is scored without a walk
    assert len(built) == 3
    by_tree = {str(m.tree): m.support for m in ranking}
    assert by_tree["seq(a,b)"] == 10
    assert by_tree["seq(b,a)"] == 0
    for model in ranking:
        assert support(log, model) == model.support, model


def _relabel(tree, names):
    """The same tree, structure kept as it is, with every label renamed."""
    if tree.op is None:
        return tree if tree.label is None else ProcessTree(label=names[tree.label])
    return ProcessTree(op=tree.op, children=tuple(_relabel(c, names) for c in tree.children))


@pytest.mark.parametrize("text", ["seq(a,xor(b,c))", "and(a,loop(b,c))",
                                  "loop(seq(a,b),xor(c,d))", "xor(seq(a,b),and(c,d))",
                                  "seq(and(a,loop(b,c)),d)", "loop(and(a,b),seq(c,xor(d,tau)))"])
def test_renamed_view_matches_the_renamed_net(text):
    # every renaming walks the one automaton of the tree, in turn, so the
    # views also meet states and moves that other views added
    tree = parse_tree(text)
    acts = sorted(tree.activities())
    shared = loglift.lpm._ForwardCoverage(Replay(tree_to_net(tree)))
    cases = []
    for perm in itertools.permutations(acts):
        pi = dict(zip(acts, perm))
        view = shared.renamed({new: old for old, new in pi.items()})
        own = loglift.lpm._ForwardCoverage(
            Replay(tree_to_net(_relabel(tree, pi))))
        cases.append((view, own))
    for word in all_words(acts, 5):
        for view, own in cases:
            assert view(word) == own(word), (text, word)


def _replace_leaf(tree, label, replacement):
    if tree.op is None:
        return replacement if tree.label == label else tree
    children = [_replace_leaf(c, label, replacement) for c in tree.children]
    return {"seq": seq, "xor": xor, "and": and_, "loop": loop}[tree.op](*children)


def _every_candidate_ranked(log, max_activities):
    """What discover_lpms returns when nothing is cut: every tree it can
    grow, grown with the tree constructors, each scored alone by support(),
    as (tree text, support, rank)."""
    freqs = Counter(a for t in log for a in complete_word(t))
    level = [leaf(a) for a in sorted(freqs)]
    scored = [(t, freqs[t.label]) for t in level]
    for _size in range(2, max_activities + 1):
        grown = {}
        for tree in level:
            have = tree.activities()
            for x in sorted(have):
                for y in sorted(freqs.keys() - have):
                    lx, ly = leaf(x), leaf(y)
                    for variant in (seq(lx, ly), seq(ly, lx), xor(lx, ly),
                                    and_(lx, ly), loop(lx, ly), loop(ly, lx)):
                        grown.setdefault(_replace_leaf(tree, x, variant), None)
        level = list(grown)
        scored += [(t, support(log, make_lpm(t))) for t in level]
    scored.sort(key=lambda e: (-e[1], len(e[0].activities()), e[0].node_count(),
                               e[0].sort_key()))
    return [(t.to_text(), s, i) for i, (t, s) in enumerate(scored, start=1)]


def test_discover_lpms_grows_every_candidate_the_constructors_grow(monkeypatch):
    # labels whose sort_key order is unlike letters': "0x" sorts before an
    # xor node's "1(", "10" between the xor and the and nodes' "1(" and
    # "2(", "a b" before "a" inside a node; "x,y" holds a separator
    built = []
    tree_of = loglift.lpm._tree_of

    def recording(shape, leaves):
        tree = tree_of(shape, leaves)
        built.append((shape, {t.label: r for r, t in enumerate(leaves)}, tree))
        return tree

    monkeypatch.setattr(loglift.lpm, "_tree_of", recording)
    labels = ["B", "a b", "0x", "10", "9", "x,y"]
    rng = random.Random(7)
    words = [[rng.choice(labels) for _ in range(rng.randint(2, 6))] for _ in range(12)]
    words += [["0x", "a b", "10"], ["0x", "10", "a b"], ["9", "x,y", "9"]] * 3
    four = ["0x", "10", "a b", "9"]
    for log, max_activities in ((mk_log(words), 3),
                                (mk_log([[a for a in w if a in four] for w in words]), 4)):
        ranking = discover_lpms(log, max_activities=max_activities,
                                beam_width=10**6, max_results=10**6)
        assert ([(t.to_text(), s, r) for t, s, r in _ranked(ranking)]
                == _every_candidate_ranked(log, max_activities))
    # a beam tree's rank shape is the shape growth builds for it, whose
    # xor/and children are in tuple order, not in sort_key's
    assert built
    for shape, rank, tree in built:
        assert loglift.lpm._rank_shape(tree, rank) == shape, tree


def test_discover_lpms_builds_a_tree_only_for_a_candidate_it_keeps(monkeypatch):
    # growth dedups and scores candidates without building them; a
    # ProcessTree is built for a candidate once _support has returned its
    # support, or for a flat xor the round seeds at its bound, and for no
    # other
    built = []

    class CountingTree(ProcessTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    kept = []
    scored = loglift.lpm._support

    def counting(*args):
        s = scored(*args)
        if s is not None:
            kept.append(s)
        return s

    log = _planted_log(traces=10, instances=2, seed=11)
    monkeypatch.setattr(loglift.lpm, "ProcessTree", CountingTree)
    monkeypatch.setattr(loglift.lpm, "_support", counting)
    discover_lpms(log)
    children = {id(c) for t in built for c in t.children}
    # roots over the log's activities; the automata's trees are over "0", "1", ...
    candidates = [t for t in built if t.op is not None and id(t) not in children
                  and t.activities() <= alphabet_of(log)]
    seeded = [t for t in candidates if _is_flat_xor(t)]
    assert kept and seeded
    assert len(candidates) == len(kept) + len(seeded)


# sha256 of index.tsv (rank, support, diversity, activities, tree) of one
# seeded discovery with the default search parameters
RANKING_DIGEST = "3407e30eec0e1128d6dfead077a2fd02f1efaa7f5e781ae4671538ea9b2be64a"


def test_discover_lpms_ranking_golden(tmp_path):
    save_ranking(discover_lpms(_planted_log(traces=10, instances=2, seed=11)),
                 str(tmp_path))
    data = (tmp_path / "index.tsv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RANKING_DIGEST


def test_discover_lpms_rejects_search_parameters_below_one():
    log = mk_log(["abc"])
    for name in ("max_activities", "beam_width", "max_results"):
        for value in (0, -3):
            with pytest.raises(ValueError, match=name):
                discover_lpms(log, **{name: value})


def _ranked(ranking):
    return [(m.tree, m.support, m.rank) for m in ranking]


@pytest.mark.parametrize("composition", ["interleaving", "parallel"])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_discover_lpms_bound_keeps_unpruned_ranking(seed, composition):
    # with max_results=10**6 every round keeps all its candidates, so no
    # activity set is skipped; a run that skips by the support bound must
    # return the first max_results entries of that run, both at the default
    # max_results=20 and at max_results=beam_width, where every kept
    # candidate reaches the ranking
    log = generate_log([parse_tree(t) for t in ("seq(a,b,c)", "and(d,e)", "loop(f,g)")],
                       instances=2, traces=10, composition=composition,
                       noise_rate=0.3, seed=seed)
    full = _ranked(discover_lpms(log, max_results=10**6))
    assert _ranked(discover_lpms(log)) == full[:20]
    assert _ranked(discover_lpms(log, max_results=50)) == full[:50]


def test_discover_lpms_bound_skips_candidates(monkeypatch):
    calls = []
    scored = loglift.lpm._support

    def counting(*args):
        calls.append(1)
        return scored(*args)

    monkeypatch.setattr(loglift.lpm, "_support", counting)
    log = _planted_log(traces=10, instances=2, seed=11)
    discover_lpms(log)
    bounded = len(calls)
    calls.clear()
    discover_lpms(log, max_results=10**6)
    assert bounded * 2 < len(calls)


def test_discover_lpms_floor_stops_scoring_candidates(monkeypatch):
    # once a round's top is full, a candidate stops walking its projections
    # as soon as it cannot reach the lowest kept support
    walked = []
    offered = []
    walk = loglift.lpm._ForwardCoverage.__call__
    scored = loglift.lpm._support

    def counting_walk(self, projected):
        walked.append(1)
        return walk(self, projected)

    def counting_support(projections, *args):
        offered.append(len(projections))
        return scored(projections, *args)

    monkeypatch.setattr(loglift.lpm._ForwardCoverage, "__call__", counting_walk)
    monkeypatch.setattr(loglift.lpm, "_support", counting_support)
    discover_lpms(_planted_log(traces=10, instances=2, seed=11))
    assert len(walked) * 2 < sum(offered)


def _random_log(seed):
    rng = random.Random(seed)
    return mk_log(["".join(rng.choice("abcdef") for _ in range(rng.randint(1, 8)))
                   for _ in range(rng.randint(5, 15))])


def _flat_xors_score_their_walked_support(discover, log):
    """Every flat xor discover ranks has the support its own net walks to,
    with and without a full top to prune by."""
    for kwargs in ({}, {"beam_width": 3, "max_results": 3}):
        flat = [m for m in discover(log, **kwargs) if _is_flat_xor(m.tree)]
        assert flat
        if any(m.support != support(log, make_lpm(m.tree)) for m in flat):
            return False
    return True


@pytest.mark.parametrize("seed", range(6))
def test_discover_lpms_seeds_flat_xors_at_their_walked_support(seed, monkeypatch):
    # a flat xor is ranked at its set's event count without a walk; that is
    # the support the forward pass gives its own net, and no automaton is
    # ever built for one
    log = _random_log(seed)
    automata = []
    to_net = loglift.lpm.tree_to_net

    def recording(tree):
        automata.append(tree)
        return to_net(tree)

    monkeypatch.setattr(loglift.lpm, "tree_to_net", recording)
    for kwargs in ({}, {"beam_width": 3, "max_results": 3}):
        discover_lpms(log, **kwargs)
    # automata are over the leaves "0", "1", ...; the rest are ranked models
    shapes = [t for t in automata if not t.activities() & alphabet_of(log)]
    assert shapes
    assert not any(_is_flat_xor(t) for t in shapes)
    monkeypatch.undo()
    assert _flat_xors_score_their_walked_support(discover_lpms, log)


def _discover_mutant(old, new):
    """The namespace of a copy of discover_lpms compiled with old replaced
    by new in its source."""
    source = inspect.getsource(loglift.lpm.discover_lpms)
    assert source.count(old) == 1
    namespace = dict(vars(loglift.lpm))
    exec(compile(source.replace(old, new), loglift.lpm.__file__, "exec"), namespace)
    return namespace


def _keeps_unpruned_ranking(discover, log):
    full = _ranked(discover_lpms(log, max_results=10**6))
    return all(_ranked(discover(log, max_results=n)) == full[:n] for n in (20, 50))


def _seq_skip_log():
    # its round 3 has and(x,y) candidates tying the floor whose seq(x,y)
    # ties it too and ranks ahead of them, by the operator order
    return generate_log([parse_tree(t) for t in ("seq(a,b,c)", "and(d,e)", "loop(f,g)")],
                        instances=2, traces=10, composition="interleaving",
                        noise_rate=0.3, seed=15)


def test_discover_lpms_skips_seqs_under_an_and_below_the_floor(monkeypatch):
    # seq(x,y) and seq(y,x) accept a subset of and(x,y)'s language, so they
    # are not scored once the and falls below the floor; each skip is one
    # _support call the search saves
    log = _seq_skip_log()
    calls = []
    scored = loglift.lpm._support

    def counting(*args):
        calls.append(1)
        return scored(*args)

    monkeypatch.setattr(loglift.lpm, "_support", counting)
    no_skip = _discover_mutant("elif i in (1, 2) and below:", "elif False:")
    no_skip["_support"] = counting
    for n in (20, 50):
        calls.clear()
        ranking = _ranked(discover_lpms(log, max_results=n))
        skipping = len(calls)
        calls.clear()
        assert _ranked(no_skip["discover_lpms"](log, max_results=n)) == ranking
        assert len(calls) - skipping > 100
    assert _keeps_unpruned_ranking(discover_lpms, log)


SEARCH_MUTANTS = {
    "flat xor seeded below its bound": ("s = -neg_bound  #", "s = -neg_bound - 1  #"),
    "seqs skipped when the and ties the floor": ("s < top[0])", "s <= top[0])"),
}


@pytest.mark.parametrize("name", sorted(SEARCH_MUTANTS))
def test_discover_lpms_mutant_is_caught(name):
    discover = _discover_mutant(*SEARCH_MUTANTS[name])["discover_lpms"]
    planted = [generate_log([parse_tree(t) for t in ("seq(a,b,c)", "and(d,e)", "loop(f,g)")],
                            instances=2, traces=10, composition=composition,
                            noise_rate=0.3, seed=seed)
               for seed in (11, 12, 13) for composition in ("interleaving", "parallel")]
    assert not (all(_flat_xors_score_their_walked_support(discover, _random_log(seed))
                    for seed in range(6))
                and all(_keeps_unpruned_ranking(discover, log)
                        for log in [_seq_skip_log()] + planted))


def test_discover_lpms_walks_each_word_once_per_shape(monkeypatch):
    # a shape meets the same renamed word again in other activity sets of
    # its round; its coverage memo must answer those without a new walk
    walks = []
    walk = loglift.lpm._ForwardCoverage.__call__

    def recording_walk(self, projected):
        # the tuple holds the coverage, so no freed object's id is reused
        walks.append((self, tuple(projected)))
        return walk(self, projected)

    monkeypatch.setattr(loglift.lpm._ForwardCoverage, "__call__", recording_walk)
    discover_lpms(_planted_log(traces=10, instances=2, seed=11))
    assert walks
    assert len(set(walks)) == len(walks)


def test_discover_lpms_memo_does_not_alias_words():
    # renamed, {a,b} projects onto (0,1), (0,), (1,0) and {a,c} onto (0,),
    # (1,0), (0,1), in that order: ids counted per set would name different
    # words alike, and a shape scored in both sets would read the coverage
    # of the wrong word
    log = mk_log(["ab", "ca", "ab", "ca", "ba", "ac"])
    ranking = discover_lpms(log, max_activities=3, beam_width=10**3,
                            max_results=10**6)
    assert {len(m.activities) for m in ranking} == {1, 2, 3}
    for model in ranking:
        assert support(log, model) == model.support, model


def test_support_floor_boundary():
    # the exact support at or above the floor, None strictly below it
    lpm = make_lpm(parse_tree("seq(a,b)"))
    projections = Counter({("a", "b", "a"): 3, ("b",): 2, ("a", "b"): 1, (): 4})
    coverage = loglift.lpm._ForwardCoverage(Replay(lpm.net))
    words = loglift.lpm._word_entries(projections, {})
    exact = loglift.lpm._support(*words, coverage)
    assert exact == 2 * 3 + 0 * 2 + 2 * 1
    for floor in (exact - 1, exact):
        assert loglift.lpm._support(*words, coverage, floor) == exact
    assert loglift.lpm._support(*words, coverage, exact + 1) is None
    assert loglift.lpm._support(*words, coverage, 0) == exact
    assert loglift.lpm._support(*loglift.lpm._word_entries(Counter(), {}), coverage, 1) is None


def test_discover_lpms_empty_log():
    with pytest.raises(LogliftError, match="non-empty"):
        discover_lpms(mk_log([]), max_activities=3)


# ------------------------------------------------------ diversity filter

def _lpm_with_acts(acts, support_value=0, rank=None):
    children = [leaf(a) for a in sorted(acts)]
    tree = children[0] if len(children) == 1 else seq(*children)
    return make_lpm(tree, support=support_value, rank=rank)


def test_jaccard_basics():
    assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0
    assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset("ab"), frozenset("bc")) == pytest.approx(1 / 3)


def test_diversity_against_earlier_models():
    ranking = LpmRanking(models=[_lpm_with_acts("ab"), _lpm_with_acts("bc"),
                                 _lpm_with_acts("ab")])
    assert diversity(ranking, 1) == 1.0
    assert diversity(ranking, 2) == pytest.approx(2 / 3)
    assert diversity(ranking, 3) == 0.0
    with pytest.raises(IndexError):
        diversity(ranking, 4)


def test_filter_diverse_drops_duplicates():
    ranking = LpmRanking(models=[_lpm_with_acts("ab"), _lpm_with_acts("ab"),
                                 _lpm_with_acts("cd")])
    kept = filter_diverse(ranking, 0.0)
    assert [sorted(m.activities) for m in kept] == [["a", "b"], ["c", "d"]]


def test_filter_diverse_orders():
    ranking = LpmRanking(models=[_lpm_with_acts("ab"), _lpm_with_acts("ab"),
                                 _lpm_with_acts("cd"), _lpm_with_acts("ef")])
    # top-2 slice first: the duplicate dies, one survivor
    assert len(filter_diverse(ranking, 0.5, k=2, order="topk_then_filter")) == 1
    # filter first, then take 2 survivors
    kept = filter_diverse(ranking, 0.5, k=2, order="filter_then_topk")
    assert [sorted(m.activities) for m in kept] == [["a", "b"], ["c", "d"]]


def test_filter_diverse_validates_arguments():
    ranking = LpmRanking(models=[_lpm_with_acts("ab")])
    with pytest.raises(ValueError):
        filter_diverse(ranking, -0.1)
    with pytest.raises(ValueError):
        filter_diverse(ranking, 1.1)
    with pytest.raises(ValueError):
        filter_diverse(ranking, 0.5, k=0)
    with pytest.raises(ValueError):
        filter_diverse(ranking, 0.5, order="sideways")


# ------------------------------------------------------------ persistence

def test_ranking_save_load_round_trip(tmp_path):
    models = [make_lpm(parse_tree("seq(a,b,c)"), support=9, rank=1),
              make_lpm(parse_tree("and(d,e)"), support=4, rank=2)]
    save_ranking(LpmRanking(models=models), str(tmp_path / "lpms"))
    back = load_ranking(str(tmp_path / "lpms"))
    assert len(back) == 2
    assert [m.rank for m in back] == [1, 2]
    assert [m.support for m in back] == [9, 4]
    assert [str(m.tree) for m in back] == ["seq(a,b,c)", "and(d,e)"]
    assert language_upto(back[0].net, 3) == {("a", "b", "c")}
    index = (tmp_path / "lpms" / "index.tsv").read_text()
    assert index.splitlines()[0] == "rank\tsupport\tdiversity\tactivities\ttree\tfile"


def test_ranking_round_trip_keeps_every_tree(tmp_path):
    # the index holds every tree as parse_tree text, so a leaf named "-",
    # quoted labels and tau leaves come back as they were saved
    trees = [leaf("-"), seq(leaf("-"), leaf("a")), seq(leaf("odd name"), leaf("it's")),
             xor(leaf("b"), tau()), loop(and_(leaf("c"), leaf("d")), tau())]
    models = [make_lpm(t, support=10 - i, rank=i + 1) for i, t in enumerate(trees)]
    save_ranking(LpmRanking(models=models), str(tmp_path / "lpms"))
    back = load_ranking(str(tmp_path / "lpms"))
    assert [(m.tree, m.support, m.rank, m.key) for m in back] == \
        [(m.tree, m.support, m.rank, m.key) for m in models]
    rows = (tmp_path / "lpms" / "index.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[5] for row in rows] == [f"lpm_{i}.pnml" for i in range(1, 6)]
    assert all((tmp_path / "lpms" / f"lpm_{i}.pnml").exists() for i in range(1, 6))


def test_model_derives_its_net_activities_and_key_from_its_tree():
    rng = random.Random(26)
    trees = [random_tree(rng, 3) for _ in range(80)]
    assert any("tau" in str(t) for t in trees)
    for tree in trees:
        model = LocalProcessModel(tree=tree)
        assert model.activities == frozenset(model.net.alphabet()), tree
        assert model.key == tree.sort_key()


def test_discovery_and_filter_build_no_net():
    ranking = discover_lpms(_planted_log(traces=10, instances=2, seed=11))
    filter_diverse(ranking, 0.5, k=3)
    assert len(ranking) > 0
    assert [m.rank for m in ranking if "net" in vars(m)] == []


def test_load_ranking_missing_dir(tmp_path):
    with pytest.raises(LogliftError):
        load_ranking(str(tmp_path / "nothing"))
