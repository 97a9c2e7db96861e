"""Pipeline stages, artifacts, the sweep grid, the generator, and the CLI."""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import fields

import pytest

from loglift import (ConfigError, LpmRanking, PipelineConfig, StageError,
                     filter_diverse, generate_log, load_log, parse_pnml,
                     parse_tree, run_pipeline, run_stages, run_sweep,
                     sample_word, save_xes, sweep_csv, tree_to_net, accepts)
from loglift.cli import _read_config, main
from loglift.pipeline import config_text
from conftest import mk_log


def planted_log(traces=30, noise_rate=0.0, seed=3):
    return generate_log([parse_tree("seq(a,b,c)"), parse_tree("and(d,e)")],
                        instances=2, traces=traces, noise_rate=noise_rate,
                        seed=seed)


def small_config(**kw):
    base = dict(k=2, t_div=0.5, max_activities=3, beam_width=10,
                max_results=8, noise=0.2)
    base.update(kw)
    return PipelineConfig(**base)


# ----------------------------------------------------------------- config

def test_run_config_text_golden_and_reload(tmp_path):
    config = PipelineConfig(input="in.xes", out_dir="run", k=2, t_div=0.25,
                            composition="parallel", noise=0.1,
                            keep_foreign=True, order="filter_then_topk",
                            state_limit=5000, max_activities=3, beam_width=7,
                            max_results=9, min_support=2, case_col="c",
                            activity_col="a", time_col="t")
    text = config_text(config)
    assert text == ("k=2\n"
                    "t_div=0.25\n"
                    "composition=parallel\n"
                    "noise=0.1\n"
                    "keep_foreign=true\n"
                    "order=filter_then_topk\n"
                    "state_limit=5000\n"
                    "max_activities=3\n"
                    "beam_width=7\n"
                    "max_results=9\n"
                    "min_support=2\n")
    path = tmp_path / "run_config.txt"
    path.write_text(text)
    back = PipelineConfig(input="in.xes", out_dir="run", case_col="c",
                          activity_col="a", time_col="t",
                          **_read_config(str(path)))
    assert back == config
    for f in fields(PipelineConfig):
        assert type(getattr(back, f.name)) is type(getattr(config, f.name)), f.name


def test_config_validation():
    PipelineConfig().validate()
    with pytest.raises(ConfigError):
        PipelineConfig(t_div=1.5).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(noise=1.0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(k=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(composition="bogus").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(order="bogus").validate()
    for name in ("max_activities", "beam_width", "max_results", "state_limit"):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=name):
                PipelineConfig(**{name: value}).validate()


# ----------------------------------------------------------------- stages

def test_run_stages_produces_consistent_result():
    log = planted_log()
    result = run_stages(log, small_config())
    assert len(result.selected) >= 1
    assert len(result.abstracted) == len(log)
    assert result.report.f_score == pytest.approx(
        2 * result.report.fitness * result.report.precision /
        (result.report.fitness + result.report.precision), abs=1e-9)
    assert 0.0 <= result.baseline_report.f_score <= 1.0
    high_acts = {e.activity for t in result.abstracted for e in t.events}
    assert any(a.startswith("LPM_") for a in high_acts)


def test_run_stages_discovery_failure_names_stage():
    log = planted_log(traces=6)
    with pytest.raises(StageError) as err:
        run_stages(log, small_config(min_support=10**9))
    assert err.value.stage == "discover-lpms"
    assert "min_support" in str(err.value)


def test_run_stages_filter_failure_names_stage():
    # a caller-supplied empty ranking leaves nothing to select
    log = planted_log(traces=6)
    with pytest.raises(StageError) as err:
        run_stages(log, small_config(), ranking=LpmRanking())
    assert err.value.stage == "filter"


def test_run_stages_keeps_first_model_even_at_t_div_one():
    log = planted_log(traces=6)
    result = run_stages(log, small_config(t_div=1.0))
    assert len(result.selected) == 1


def test_run_stages_reuses_given_ranking():
    log = planted_log(traces=10)
    first = run_stages(log, small_config())
    again = run_stages(log, small_config(), ranking=first.ranking)
    assert [str(m.tree) for m in again.selected] == \
        [str(m.tree) for m in first.selected]


# -------------------------------------------------------------- artifacts

def test_run_pipeline_writes_all_artifacts(tmp_path):
    log_path = tmp_path / "in.xes"
    save_xes(planted_log(traces=12), str(log_path))
    out_dir = tmp_path / "run"
    config = small_config(input=str(log_path), out_dir=str(out_dir))
    result = run_pipeline(config)
    expected = {"run_config.txt", "lpms", "abstracted.xes",
                "abstraction_model.pnml", "model.pnml", "model.tree.txt",
                "expanded.pnml", "baseline.pnml", "baseline.tree.txt",
                "report.csv"}
    assert expected <= set(os.listdir(out_dir))
    assert (out_dir / "lpms" / "index.tsv").exists()
    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "model,fitness,precision,f_score"
    assert report[1].startswith("expanded,")
    assert report[2].startswith("baseline,")
    assert (out_dir / "run_config.txt").read_text() == config_text(config)
    tree_text = (out_dir / "model.tree.txt").read_text().strip()
    assert str(result.tree) == tree_text
    parse_pnml(str(out_dir / "expanded.pnml")).validate()


def test_run_pipeline_is_byte_deterministic(tmp_path):
    log_path = tmp_path / "in.xes"
    save_xes(planted_log(traces=12, noise_rate=0.2), str(log_path))
    dirs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        run_pipeline(small_config(input=str(log_path), out_dir=str(out_dir)))
        dirs.append(out_dir)
    for fname in ("abstracted.xes", "model.pnml", "expanded.pnml",
                  "baseline.pnml", "report.csv", "model.tree.txt",
                  os.path.join("lpms", "index.tsv")):
        a = (dirs[0] / fname).read_bytes()
        b = (dirs[1] / fname).read_bytes()
        assert a == b, fname


# sha256 of artifacts of one small seeded run: changes to how nets are
# built or XML is written must leave these bytes as they are
GOLDEN_DIGESTS = {
    ("interleaving", "abstraction_model.pnml"):
        "abe446b1987e198350d552f3006a0bc808fb3f387d064103a0ca98a85da2eb09",
    ("parallel", "abstraction_model.pnml"):
        "3d9c3f17451bf2457349c4bb3a5fbb62b389d950d7d3f22dfb1ef13be72f859f",
    ("interleaving", "expanded.pnml"):
        "e78cb28628cc4cea3811ef7cba71e53279f89af54448bab442d733912336c5f8",
    ("interleaving", "abstracted.xes"):
        "5296979445a592f3c7523402391351b80afdc68a4ee507b0b7f22e96f9fc6073",
}


def test_run_pipeline_artifacts_golden(tmp_path):
    log_path = tmp_path / "in.xes"
    save_xes(planted_log(traces=12, noise_rate=0.2), str(log_path))
    for composition in ("interleaving", "parallel"):
        out_dir = tmp_path / composition
        run_pipeline(small_config(input=str(log_path), out_dir=str(out_dir),
                                  composition=composition))
        for (comp, fname), digest in GOLDEN_DIGESTS.items():
            if comp == composition:
                data = (out_dir / fname).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, (comp, fname)


def test_run_pipeline_leaves_no_partial_output_on_failure(tmp_path):
    log_path = tmp_path / "in.xes"
    save_xes(planted_log(traces=6), str(log_path))
    out_dir = tmp_path / "run"
    config = small_config(input=str(log_path), out_dir=str(out_dir),
                          min_support=10**9)
    with pytest.raises(StageError):
        run_pipeline(config)
    assert not (out_dir / "report.csv").exists()
    assert not (out_dir / "abstracted.xes").exists()


# ------------------------------------------------------------------ sweep

def test_run_sweep_full_grid_shape():
    log = planted_log(traces=12)
    rows = run_sweep(log, small_config(), log_name="toy")
    assert len(rows) == 8 * 5 * 2
    combos = {(r["t_div"], r["k"], r["composition"]) for r in rows}
    assert len(combos) == 80
    for row in rows:
        assert row["log"] == "toy"
        assert row["status"] in ("ok", "error")
        if row["status"] == "ok":
            assert 0.0 <= float(row["f_score"]) <= 1.0
            assert row["error"] == ""


def test_run_sweep_custom_grid_and_csv():
    log = planted_log(traces=10)
    rows = run_sweep(log, small_config(), t_divs=[0.3], ks=[1, 2],
                     compositions=["interleaving"], log_name="toy")
    assert len(rows) == 2
    text = sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ("log,k,t_div,composition,fitness,precision,"
                        "f_score,baseline_f_score,status,error")
    assert len(lines) == 3
    assert sweep_csv(rows) == text  # stable


def test_run_sweep_discovery_failure_fills_grid_with_error_rows():
    log = planted_log(traces=8)
    rows = run_sweep(log, small_config(min_support=10**9), t_divs=[0.5],
                     ks=[1, 2], compositions=["interleaving"], log_name="toy")
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "error"
        assert "min_support" in row["error"]
        assert row["f_score"] == ""
        assert row["baseline_f_score"] == ""


def test_run_sweep_bad_cell_becomes_error_row():
    log = planted_log(traces=8)
    # each grid's second cell holds a value the config rejects
    for grid in (dict(t_divs=[0.5], ks=[1], compositions=["interleaving", "bogus"]),
                 dict(t_divs=[0.5, 1.5], ks=[1], compositions=["interleaving"]),
                 dict(t_divs=[0.5], ks=[1, 0], compositions=["interleaving"])):
        rows = run_sweep(log, small_config(), log_name="toy", **grid)
        assert [r["status"] for r in rows] == ["ok", "error"], grid
        assert rows[0]["f_score"] != ""
        assert rows[1]["error"] != ""
        # the shared baseline is still reported for the failed cell
        assert rows[1]["baseline_f_score"] == rows[0]["baseline_f_score"] != ""


def test_run_sweep_scores_baseline_once_and_each_selection_once(monkeypatch):
    from loglift import pipeline
    log = planted_log(traces=10, noise_rate=0.2)
    config = small_config()
    t_divs, ks, compositions = [0.2, 0.5, 0.9], [1, 2, 3], ["interleaving", "parallel"]
    ranking = pipeline.discover_lpms(log, **config.lpm_search())
    selections = {tuple(m.key for m in filter_diverse(ranking, t, k=k, order=config.order))
                  for t in t_divs for k in ks}
    distinct = len(selections) * len(compositions)
    calls = {"evaluate": 0, "discover_model": 0}
    for name in calls:
        def counted(*args, _fn=getattr(pipeline, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(pipeline, name, counted)
    rows = run_sweep(log, config, t_divs=t_divs, ks=ks, compositions=compositions)
    assert all(r["status"] == "ok" for r in rows)
    assert 1 < distinct < len(rows)
    assert calls == {"evaluate": distinct + 1, "discover_model": distinct + 1}


# -------------------------------------------------------------- generator

def test_sample_word_respects_tree_language():
    rng = random.Random(0)
    tree = parse_tree("seq(a,xor(b,tau),loop(c,d))")
    apn = tree_to_net(tree)
    for _ in range(100):
        assert accepts(apn, sample_word(tree, rng))


def test_generate_log_is_seed_deterministic():
    pats = [parse_tree("seq(a,b)"), parse_tree("seq(c,d)")]
    a = generate_log(pats, instances=1, traces=8, seed=5)
    b = generate_log(pats, instances=1, traces=8, seed=5)
    c = generate_log(pats, instances=1, traces=8, seed=6)
    words = lambda log: [t.activities() for t in log]  # noqa: E731
    assert words(a) == words(b)
    assert words(a) != words(c)
    assert len({tuple(w) for w in words(a)}) > 1  # the shuffle does vary


def test_generate_log_interleaving_keeps_occurrences_contiguous():
    log = generate_log([parse_tree("seq(a,b,c)")], instances=3, traces=20,
                       composition="interleaving", seed=1)
    for trace in log:
        word = "".join(trace.activities())
        assert word == "abc" * 3


def test_generate_log_noise_rate_is_roughly_met():
    log = generate_log([parse_tree("seq(a,b,c)"), parse_tree("and(d,e)")],
                       instances=2, traces=300, noise_rate=0.3, seed=2)
    base_alpha = set("abcde")
    total = sum(len(t) for t in log)
    noise = sum(1 for t in log for e in t.events
                if e.activity not in base_alpha)
    assert noise / total == pytest.approx(0.3, abs=0.03)


def test_generate_log_validation():
    with pytest.raises(ConfigError):
        generate_log([], instances=1, traces=1)
    with pytest.raises(ConfigError):
        generate_log([parse_tree("a")], instances=-1, traces=1)
    with pytest.raises(ConfigError):
        generate_log([parse_tree("a")], instances=1, traces=1, noise_rate=1.0)
    # zero instances is a degenerate but legal request: empty traces
    assert [t.activities() for t in
            generate_log([parse_tree("a")], instances=0, traces=2)] == [[], []]
    with pytest.raises(ConfigError):
        generate_log([parse_tree("a")], instances=1, traces=1,
                     composition="bogus")


# -------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def cli_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "gen.xes"
    save_xes(planted_log(traces=15, noise_rate=0.2, seed=4), str(path))
    return str(path)


def test_cli_generate_and_load(tmp_path, capsys):
    out = tmp_path / "g.xes"
    code = main(["generate", "--out", str(out), "--patterns",
                 "seq(a,b);c", "--instances", "1", "--traces", "5",
                 "--seed", "9"])
    assert code == 0
    assert "generated 5 traces" in capsys.readouterr().out
    assert len(load_log(str(out))) == 5


def test_cli_pipeline_and_artifacts(tmp_path, capsys, cli_log):
    out_dir = tmp_path / "run"
    code = main(["pipeline", "--input", cli_log, "--out-dir", str(out_dir),
                 "--k", "2", "--max-activities", "3", "--beam-width", "10",
                 "--max-results", "8"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("selected=")
    assert any(line.startswith("f_score=") for line in lines)
    assert (out_dir / "report.csv").exists()


def test_cli_discover_lpms_then_abstract_then_evaluate(tmp_path, capsys, cli_log):
    lpm_dir = tmp_path / "lpms"
    assert main(["discover-lpms", "--input", cli_log, "--out-dir",
                 str(lpm_dir), "--max-activities", "3", "--beam-width", "10",
                 "--max-results", "8"]) == 0
    assert (lpm_dir / "index.tsv").exists()

    abs_out = tmp_path / "abs.xes"
    model_out = tmp_path / "abs_model.pnml"
    assert main(["abstract", "--input", cli_log, "--lpms", str(lpm_dir),
                 "--out", str(abs_out), "--model-out", str(model_out),
                 "--k", "2"]) == 0
    assert abs_out.exists() and model_out.exists()

    high_out = tmp_path / "high.pnml"
    assert main(["discover", "--input", str(abs_out), "--out",
                 str(high_out)]) == 0
    capsys.readouterr()

    report_out = tmp_path / "report.txt"
    assert main(["evaluate", "--input", cli_log, "--model", str(high_out),
                 "--lpms", str(lpm_dir), "--k", "2", "--out",
                 str(report_out)]) == 0
    text = report_out.read_text()
    assert text.startswith("fitness=")
    assert capsys.readouterr().out.startswith("fitness=")


def test_cli_sweep_small_grid(tmp_path, capsys, cli_log):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--input", cli_log, "--out", str(out),
                 "--t-divs", "0.4,0.8", "--ks", "1,2",
                 "--compositions", "interleaving", "--max-activities", "3",
                 "--beam-width", "10", "--max-results", "6"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    # spaces around list items are not part of the values
    code = main(["sweep", "--input", cli_log, "--out", str(out),
                 "--t-divs", " 0.5", "--ks", "1 ",
                 "--compositions", "interleaving, parallel",
                 "--max-activities", "3", "--beam-width", "10",
                 "--max-results", "6"])
    assert code == 0
    header, *rows = out.read_text().strip().splitlines()
    status = header.split(",").index("status")
    assert [row.split(",")[status] for row in rows] == ["ok", "ok"]
    # the CSV is written either way; exit 2 only when no row is ok
    for compositions, want_code, want_status in (
            ("interleaving,bogus", 0, ["ok", "error"]),
            ("bogus", 2, ["error"])):
        capsys.readouterr()
        code = main(["sweep", "--input", cli_log, "--out", str(out),
                     "--t-divs", "0.5", "--ks", "1",
                     "--compositions", compositions, "--max-activities", "3",
                     "--beam-width", "10", "--max-results", "6"])
        assert code == want_code, compositions
        header, *rows = out.read_text().strip().splitlines()
        assert [row.split(",")[status] for row in rows] == want_status
        err = capsys.readouterr().err
        assert ("unknown composition 'bogus'" in err) == (want_code == 2)


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# options\ntraces=7\nseed=1\n")
    out = tmp_path / "g.xes"
    code = main(["generate", "--out", str(out), "--patterns", "a",
                 "--config", str(cfg), "--traces", "4"])
    assert code == 0
    assert "generated 4 traces" in capsys.readouterr().out


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert main(["pipeline", "--out-dir", str(tmp_path)]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["pipeline", "--input", "x.xes", "--out-dir", "y",
                 "--k", "NaN"]) == 1
    err = capsys.readouterr().err
    assert "required" in err or "invalid" in err


def test_cli_bad_config_file_exits_1(tmp_path, capsys, cli_log):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    assert main(["discover", "--input", cli_log, "--out",
                 str(tmp_path / "m.pnml"), "--config", str(cfg)]) == 1
    assert "unknown option" in capsys.readouterr().err


def test_cli_stage_failures_exit_2(tmp_path, capsys, cli_log):
    assert main(["discover", "--input", str(tmp_path / "missing.xes"),
                 "--out", str(tmp_path / "m.pnml")]) == 2
    assert "[load]" in capsys.readouterr().err
    assert main(["pipeline", "--input", cli_log, "--out-dir",
                 str(tmp_path / "run"), "--min-support", "1000000",
                 "--max-activities", "3", "--beam-width", "6",
                 "--max-results", "4"]) == 2
    assert "[discover-lpms]" in capsys.readouterr().err
    # malformed model inputs are stage failures naming the file, not tracebacks
    place = "<place id='p'><initialMarking><text>{}</text></initialMarking></place>"
    for name, page in (("mark.pnml", place.format("x")),
                       ("arc.pnml", place.format("1") + "<place id='q'/>"
                        "<arc id='a1' source='p' target='q'/>")):
        model = tmp_path / name
        model.write_text(f"<pnml><net><page>{page}</page></net></pnml>")
        assert main(["evaluate", "--input", cli_log, "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert "[evaluate]" in err and name in err, err
    header = "rank\tsupport\tdiversity\tactivities\ttree\tfile\n"
    # without its header the first model must not be skipped as one
    headerless = ("1\t5\t1.000000\ta,b,c\tseq(a,b,c)\tlpm_1.pnml\n"
                  "2\t3\t1.000000\td,e\tand(d,e)\tlpm_2.pnml\n")
    for name, text in (("support", header + "1\tx\t1.0\ta,b\tseq(a,b)\tlpm_1.pnml\n"),
                       ("tree", header + "1\t5\t1.0\ta\tseq(a\tlpm_1.pnml\n"),
                       ("headerless", headerless)):
        lpm_dir = tmp_path / f"lpms_{name}"
        lpm_dir.mkdir()
        (lpm_dir / "index.tsv").write_text(text)
        assert main(["abstract", "--input", cli_log, "--lpms", str(lpm_dir),
                     "--out", str(tmp_path / "abs.xes")]) == 2
        err = capsys.readouterr().err
        assert "[filter]" in err and "index.tsv" in err, err


def test_cli_empty_activity_or_mixed_timestamps_exit_2(tmp_path, capsys):
    # bad input rows are load failures naming where they are, not tracebacks
    xes_path = tmp_path / "empty.xes"
    xes_path.write_text("<log><trace><event><string key='concept:name' value=''/>"
                        "</event></trace></log>")
    csv_empty = tmp_path / "empty.csv"
    csv_empty.write_text("case,activity\n1,a\n1,\n")
    csv_mixed = tmp_path / "mixed.csv"
    csv_mixed.write_text("case,activity,time\n1,a,2020-01-01T00:00:00Z\n"
                         "1,b,2020-01-01T01:00:00\n")
    for path, args, where in (
            (xes_path, ["discover-lpms", "--out-dir", str(tmp_path / "l")], "trace '0'"),
            (xes_path, ["discover", "--out", str(tmp_path / "m.pnml")], "trace '0'"),
            (csv_empty, ["pipeline", "--out-dir", str(tmp_path / "r1")], "line 3"),
            (csv_mixed, ["pipeline", "--time-col", "time", "--out-dir",
                         str(tmp_path / "r2")], "line 3")):
        assert main([args[0], "--input", str(path), *args[1:]]) == 2, (path, args)
        err = capsys.readouterr().err
        assert err.startswith("loglift: [load] ") and where in err, err


def test_cli_output_write_failures_exit_2(tmp_path, capsys, cli_log):
    # an output path that cannot be written is a stage failure naming the
    # path, not a traceback
    missing = tmp_path / "nodir"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    lpm_dir = tmp_path / "lpms"
    model = tmp_path / "m.pnml"
    search = ["--max-activities", "2", "--beam-width", "4", "--max-results", "4"]
    assert main(["discover-lpms", "--input", cli_log, "--out-dir", str(lpm_dir),
                 *search]) == 0
    assert main(["discover", "--input", cli_log, "--out", str(model)]) == 0
    capsys.readouterr()
    for stage, path, args in (
            ("generate", missing / "g.xes", ["generate", "--patterns", "a", "--out"]),
            ("discover", missing / "m.pnml", ["discover", "--input", cli_log, "--out"]),
            ("discover", missing / "t.txt", ["discover", "--input", cli_log, "--out",
                                             str(tmp_path / "m2.pnml"), "--tree-out"]),
            ("discover-lpms", a_file, ["discover-lpms", "--input", cli_log, *search,
                                       "--out-dir"]),
            ("abstract", missing / "a.xes", ["abstract", "--input", cli_log, "--lpms",
                                             str(lpm_dir), "--out"]),
            ("abstract", missing / "am.pnml", ["abstract", "--input", cli_log, "--lpms",
                                               str(lpm_dir), "--out",
                                               str(tmp_path / "a.xes"), "--model-out"]),
            ("evaluate", missing / "r.txt", ["evaluate", "--input", cli_log, "--model",
                                             str(model), "--out"]),
            ("sweep", missing / "s.csv", ["sweep", "--input", cli_log, *search,
                                          "--t-divs", "0.5", "--ks", "1",
                                          "--compositions", "interleaving", "--out"]),
            ("write", a_file, ["pipeline", "--input", cli_log, *search, "--out-dir"])):
        assert main([*args, str(path)]) == 2, (stage, path)
        err = capsys.readouterr().err
        assert err.startswith(f"loglift: [{stage}] {path}: "), err
    assert not missing.exists()


def test_python_m_loglift_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "loglift", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: loglift")
    assert "discover-lpms" in proc.stdout


def test_cli_discover_lpms_rejects_bad_search_parameters(tmp_path, capsys, cli_log):
    # configuration mistakes exit 1; they are neither run nor reported as
    # a stage failure ("could not decide")
    for flag, value in (("--max-results", "-1"), ("--max-results", "0"),
                        ("--beam-width", "-3"), ("--max-activities", "0"),
                        ("--state-limit", "0")):
        out_dir = tmp_path / f"lpms{flag}{value}"
        assert main(["discover-lpms", "--input", cli_log, "--out-dir",
                     str(out_dir), flag, value]) == 1, (flag, value)
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be >= 1, got {value}" in err
        assert not out_dir.exists()


def test_cli_csv_input(tmp_path, capsys):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("case,activity\n" +
                        "".join(f"{i},{a}\n" for i in (1, 2, 3)
                                for a in "ab"))
    out = tmp_path / "m.pnml"
    assert main(["discover", "--input", str(csv_path), "--out",
                 str(out)]) == 0
    assert capsys.readouterr().out.strip() == "seq(a,b)"
    parse_pnml(str(out)).validate()
