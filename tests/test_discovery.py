"""Discovery from directly-follows graphs: cuts, noise filtering, rediscovery."""

import random

import pytest

from loglift import accepts, discover_model, parse_tree, tree_to_net
from loglift.pipeline import sample_word
from conftest import mk_log


def test_discover_skippable_middle_activity():
    # a -> b 2, b -> c 2 and a -> c 1: the directly-follows counts make b
    # optional between a and c
    tree = discover_model(mk_log(["abc", "abc", "ac"]))
    assert tree == parse_tree("seq(a,xor(b,tau),c)")
    apn = tree_to_net(tree)
    assert accepts(apn, list("abc")) and accepts(apn, list("ac"))
    assert not accepts(apn, list("acb"))


def test_discover_noise_prunes_weak_edges():
    log = mk_log(["ab"] * 9 + ["ac"])
    assert accepts(tree_to_net(discover_model(log)), list("ac"))
    for noise in (0.2, 0.99):
        # a -> c (1 < noise * 9) is pruned, and the strongest outgoing
        # edge a -> b always survives
        apn = tree_to_net(discover_model(log, noise=noise))
        assert accepts(apn, list("ab")), noise
        assert not accepts(apn, list("ac")), noise


def test_discover_noise_validation():
    with pytest.raises(ValueError):
        discover_model(mk_log(["ab"]), noise=1.0)
    with pytest.raises(ValueError):
        discover_model(mk_log(["ab"]), noise=-0.1)


def test_discover_pinned_examples():
    cases = {
        ("abc", "abc", "bac", "bac", "bac"): "seq(and(a,b),c)",
        ("ab", "ac"): "seq(a,xor(b,c))",
        ("a", "aba", "ababa"): "loop(a,b)",
        ("ab", "ba"): "and(a,b)",
        ("a", "b"): "xor(a,b)",
        ("ab",): "seq(a,b)",
    }
    for words, expected in cases.items():
        tree = discover_model(mk_log(list(words)))
        assert tree == parse_tree(expected), f"{words} -> {tree}"


def test_discover_base_cases():
    assert discover_model(mk_log([])) == parse_tree("tau")
    assert discover_model(mk_log([""])) == parse_tree("tau")
    assert discover_model(mk_log(["a"])) == parse_tree("a")
    assert discover_model(mk_log(["a", ""])) == parse_tree("xor(a,tau)")
    assert discover_model(mk_log(["a", "aa"])) == parse_tree("loop(a,tau)")


def test_discover_flower_fallback():
    # No cut separates this tangle; the fallback must still fit everything.
    log = mk_log(["abcb", "bca", "cab", "acbca"])
    tree = discover_model(log)
    apn = tree_to_net(tree)
    for trace in log:
        assert accepts(apn, trace.activities())


def test_discover_noise_drops_rare_variant():
    # one stray trace bridges two otherwise independent behaviors; at noise
    # 0.2 the bridge edge is pruned and the crossing trace no longer fits
    log = mk_log(["abca"] * 40 + ["de"] * 40 + ["abcae"])
    clean = discover_model(log, noise=0.2)
    assert clean == parse_tree("xor(seq(d,e),loop(a,seq(b,c)))")
    assert not accepts(tree_to_net(clean), list("abcae"))
    full = tree_to_net(discover_model(log, noise=0.0))
    for word in ("abca", "de", "abcae"):
        assert accepts(full, list(word))


def test_discover_fitness_guarantee_at_noise_zero():
    # Random trees -> sampled logs -> rediscovered model accepts every trace.
    rng = random.Random(11)
    trees = [
        "seq(a,b,c)", "xor(a,seq(b,c))", "and(a,b,c)", "loop(seq(a,b),c)",
        "seq(xor(a,tau),and(b,c))", "loop(xor(a,b),tau)",
        "seq(a,loop(b,tau),c)", "and(seq(a,b),xor(c,d))",
        "seq(and(a,b),loop(c,d))", "xor(and(a,b),seq(c,d))",
    ]
    for text in trees:
        source = parse_tree(text)
        for _ in range(12):
            words = [sample_word(source, rng) for _ in range(rng.randrange(1, 12))]
            log = mk_log(words)
            apn = tree_to_net(discover_model(log, noise=0.0))
            for word in words:
                assert accepts(apn, word), (text, word)


def test_discover_is_deterministic():
    log = mk_log(["abcd", "acbd", "abd", "dcba"])
    assert str(discover_model(log)) == str(discover_model(log))
