"""Shared fixtures: the running-example pattern, small log builders, and
the enumeration helpers used by the oracle-equivalence tests."""

import itertools

import pytest

from loglift import (Event, EventLog, Trace, and_, leaf, loop, make_lpm,
                     parse_tree, seq, tau, xor)

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


@pytest.fixture(scope="session")
def n1_lpm():
    return make_lpm(parse_tree(N1_TEXT))


def all_words(alphabet, max_len):
    """Every word up to max_len over the alphabet, shortest first."""
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=length))
    return out


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
