"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible even
under captured output) and asserts the same condition. Tolerances and time
bounds are pinned here and nowhere else.
"""

import random
import time

import pytest

from loglift import (INTERLEAVING, LpmRanking, PetriNet, AcceptingPetriNet,
                     abstract_trace, accepts, compose, discover_model,
                     f_score, filter_diverse, generate_log, language_upto,
                     make_lpm, make_pattern, parse_tree, run_stages, segment,
                     tree_to_net, PipelineConfig, Replay, save_xes, seq, leaf)
from loglift.cli import main as cli_main
from loglift.lpm import _ForwardCoverage
from conftest import (GOLDEN, GOLDEN_ABSTRACTED, GOLDEN_GAMMAS,
                      GOLDEN_LAMBDAS, N1_TEXT, all_words, coverage_oracle,
                      enumerate_pattern_trees, mk_trace)


def _verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        extra = f" [{detail}]" if detail else ""
        print(f"\ncriterion {num} {name}: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, f"criterion {num} ({name}) failed{(' ' + detail) if detail else ''}"


def test_criterion_1_segmentation_golden(capsys, n1_lpm):
    t0 = time.perf_counter()
    s = segment(list(GOLDEN), n1_lpm)
    elapsed = time.perf_counter() - t0
    ok = (s.gamma_words() == GOLDEN_GAMMAS
          and s.lambda_words() == GOLDEN_LAMBDAS
          and s.gamma_events == [a for g in GOLDEN_GAMMAS for a in g]
          and elapsed < 1.0)
    _verdict(capsys, 1, "worked-example segmentation", ok,
             f"{elapsed * 1000:.0f} ms")


def test_criterion_2_abstraction_golden(capsys):
    model = compose([make_pattern("H", make_lpm(parse_tree(N1_TEXT)))],
                    INTERLEAVING)
    out = abstract_trace(mk_trace(GOLDEN), model, keep_foreign=False)
    completes = [e.activity for e in out.events if e.is_complete()]
    ok = completes == GOLDEN_ABSTRACTED and completes.count("H") == 3
    _verdict(capsys, 2, "worked-example abstraction", ok,
             "".join(completes))


def test_criterion_3_f_score_arithmetic(capsys):
    value = f_score(0.65, 0.86)
    ok = abs(value - 0.74) <= 0.005
    _verdict(capsys, 3, "f-score arithmetic", ok, f"{value:.6f}")


def test_criterion_4_segmentation_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    trees = enumerate_pattern_trees(budget=5, alphabet=("a", "b", "c"),
                                    max_activities=3)
    traces = all_words(("a", "b", "c"), 8)
    checked = 0
    mismatches = 0
    for tree in trees:
        lpm = make_lpm(tree, max_activities=3)
        rp = Replay(lpm.net)
        scorer = _ForwardCoverage(rp)
        lang = language_upto(lpm.net, 8)
        acts = lpm.activities
        for word in traces:
            got = segment(list(word), lpm, replay=rp).coverage()
            projected = [a for a in word if a in acts]
            want = coverage_oracle(projected, lang)
            checked += 1
            if got != want or scorer(projected) != want:
                mismatches += 1
        if mismatches:
            break
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300.0
    _verdict(capsys, 4, "segmentation oracle equivalence", ok,
             f"{len(trees)} trees x {len(traces)} traces, "
             f"{checked} checks, {elapsed:.1f} s")


def test_criterion_5_acceptance_oracle_equivalence(capsys):
    fixtures = [
        N1_TEXT, "seq(a,b)", "xor(a,b,c)", "and(a,b)", "and(a,b,c)",
        "loop(a,b)", "loop(a,tau)", "loop(xor(a,b),tau)",
        "seq(a,and(b,c))", "seq(a,xor(b,tau),c)", "and(seq(a,b),c)",
        "loop(seq(a,b),xor(c,tau))",
    ]
    nets = [tree_to_net(parse_tree(text)) for text in fixtures]
    # one non-workflow net: two tokens to move, language {aa}
    hand = PetriNet(places={"p", "q"}, transitions={"t"},
                    arcs={("p", "t"), ("t", "q")}, labels={"t": "a"})
    nets.append(AcceptingPetriNet(net=hand, initial={"p": 2}, final={"q": 2}))

    checked = 0
    bad = None
    for apn in nets:
        lang = language_upto(apn, 6)
        letters = tuple(sorted(apn.alphabet())) + ("z",)
        for word in all_words(letters, 6):
            if accepts(apn, word) != (tuple(word) in lang):
                bad = (apn, word)
                break
            checked += 1
        if bad:
            break
    ok = bad is None and len(nets) >= 10
    _verdict(capsys, 5, "acceptance oracle equivalence", ok,
             f"{len(nets)} nets, {checked} words")


def test_criterion_6_diversity_filter_properties(capsys):
    rng = random.Random(42)
    letters = "abcdef"

    def random_model():
        acts = rng.sample(letters, rng.randint(1, 4))
        tree = leaf(acts[0]) if len(acts) == 1 else seq(*map(leaf, sorted(acts)))
        return make_lpm(tree)

    failures = 0
    runs = 1000
    for _ in range(runs):
        ranking = LpmRanking(models=[random_model()
                                     for _ in range(rng.randint(1, 10))])
        t_div = rng.random()  # [0, 1)
        k = rng.choice([None, 1, 2, 3, 5])
        order = rng.choice(["topk_then_filter", "filter_then_topk"])
        kept = filter_diverse(ranking, t_div, k=k, order=order)
        # first-ranked model always retained
        if not kept or kept[0] is not ranking[0]:
            failures += 1
            continue
        # no two retained models share an activity set
        sets = [m.activities for m in kept]
        if len(set(sets)) != len(sets):
            failures += 1
            continue
        # retained sequence preserves ranking order
        pos = [ranking.models.index(m) for m in kept]
        if pos != sorted(pos):
            failures += 1
    ok = failures == 0
    _verdict(capsys, 6, "diversity filter properties", ok,
             f"{runs} rankings, {failures} violations")


def test_criterion_7_end_to_end_improvement(capsys):
    t0 = time.perf_counter()
    log = generate_log([parse_tree("seq(a,b,c)"), parse_tree("and(d,e)")],
                       instances=2, traces=40, composition="interleaving",
                       noise_rate=0.3, seed=7)
    config = PipelineConfig(k=2, t_div=0.5, composition="interleaving",
                            noise=0.2, max_activities=3, beam_width=20,
                            max_results=10)
    result = run_stages(log, config)
    elapsed = time.perf_counter() - t0
    margin = result.report.f_score - result.baseline_report.f_score
    ok = margin > 0.05 and elapsed < 120.0
    _verdict(capsys, 7, "end-to-end improvement", ok,
             f"expanded {result.report.f_score:.4f} vs baseline "
             f"{result.baseline_report.f_score:.4f}, margin {margin:.4f}, "
             f"{elapsed:.1f} s")


def test_criterion_8_sweep_structure(capsys, tmp_path):
    log_path = tmp_path / "gen.xes"
    save_xes(generate_log([parse_tree("seq(a,b,c)"), parse_tree("and(d,e)")],
                          instances=2, traces=25, noise_rate=0.2, seed=11),
             str(log_path))
    out_path = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--input", str(log_path), "--out",
                     str(out_path), "--max-activities", "3",
                     "--beam-width", "10", "--max-results", "8"])
    lines = out_path.read_text().strip().splitlines() if out_path.exists() else []
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:]]
    combos = {(r[2], r[1], r[3]) for r in rows if len(r) == len(header)}
    expected_combos = {(f"{0.2 + 0.1 * i:.1f}", str(k), comp)
                       for i in range(8) for k in range(1, 6)
                       for comp in ("interleaving", "parallel")}
    complete = all(len(r) == len(header) and r[8] == "ok" and r[6] != ""
                   for r in rows)
    ok = (code == 0 and header == ["log", "k", "t_div", "composition",
                                   "fitness", "precision", "f_score",
                                   "baseline_f_score", "status", "error"]
          and len(rows) == 80 and combos == expected_combos and complete)
    _verdict(capsys, 8, "sweep structure", ok,
             f"{len(rows)} rows, complete={complete}")


def test_criterion_9_discovery_sanity(capsys):
    from conftest import mk_log
    words = ["abc", "abc", "bac", "bac", "bac"]
    log = mk_log(words)
    tree = discover_model(log, noise=0.0)
    apn = tree_to_net(tree)
    fits = all(accepts(apn, list(w)) for w in set(words))
    ok = str(tree) == "seq(and(a,b),c)" and fits
    _verdict(capsys, 9, "discovery sanity", ok, str(tree))
