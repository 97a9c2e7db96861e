"""Event log model, XES round-trip, CSV parsing."""

import copy
import datetime
import gc
import io
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from xml.etree import ElementTree as ET

import pytest

from loglift import (AcceptingPetriNet, ConfigError, Event, EventLog, LogFormatError,
                     PetriNet, Trace, abstract_log, compose, generate_log, load_log,
                     make_lpm, parse_csv, parse_tree, parse_xes, patterns_from_models,
                     save_xes, tree_to_net, write_pnml, write_xes)
from loglift.cli import main
from loglift.eventlog import complete_word
from conftest import activities_of, mk_log, mk_trace


def test_event_lifecycle_default_is_complete():
    assert Event(activity="a").is_complete()
    assert Event(activity="a", lifecycle="complete").is_complete()
    assert not Event(activity="a", lifecycle="start").is_complete()


def test_trace_helpers():
    t = mk_trace("abc")
    assert len(t) == 3
    assert [e.activity for e in t] == ["a", "b", "c"]


def test_log_alphabet_and_len():
    log = mk_log(["ab", "bc"])
    assert {e.activity for t in log for e in t} == {"a", "b", "c"}
    assert len(log) == 2


def test_complete_word_keeps_complete_subsequence():
    t = Trace(case_id="c1", events=[Event("a", "start"), Event("a", "complete"),
                                    Event("b"), Event("c", "start"), Event("a")])
    assert complete_word(t) == ("a", "b", "a")
    assert complete_word(["x", "y"]) == ("x", "y")
    assert complete_word(mk_trace("")) == ()


def test_xes_round_trip(tmp_path):
    log = EventLog(traces=[
        Trace(case_id="c1", events=[
            Event(activity="a", lifecycle="start"),
            Event(activity="a", lifecycle="complete",
                  timestamp=datetime.datetime(2024, 1, 2, 3, 4, 5,
                                              tzinfo=datetime.timezone.utc)),
            Event(activity="b"),
        ]),
        Trace(case_id="c2", events=[Event(activity="odd name <&>")]),
    ])
    path = tmp_path / "log.xes"
    save_xes(log, str(path))
    back = parse_xes(str(path))
    assert [t.case_id for t in back] == ["c1", "c2"]
    assert activities_of(back.traces[0]) == ["a", "a", "b"]
    assert back.traces[0].events[0].lifecycle == "start"
    assert back.traces[0].events[1].timestamp is not None
    assert activities_of(back.traces[1]) == ["odd name <&>"]


def test_xes_lifecycles_other_than_complete_are_not_completions():
    # schedule, start and ate_abort are phases, not completions; the value is
    # kept, so writing the log again keeps it
    phases = ("schedule", "start", "complete", "ate_abort")
    body = "".join(
        f'<event><string key="concept:name" value="{a}" />'
        f'<string key="lifecycle:transition" value="{phase}" /></event>'
        for a, phase in zip("AAAB", phases))
    log = parse_xes(f"<log><trace>{body}</trace></log>".encode())
    assert [e.lifecycle for e in log.traces[0].events] == list(phases)
    assert complete_word(log.traces[0]) == ("A",)
    assert parse_xes(write_xes(log)) == log


def test_xes_round_trip_is_deterministic(tmp_path):
    log = mk_log(["abc", "de"])
    a, b = tmp_path / "a.xes", tmp_path / "b.xes"
    save_xes(log, str(a))
    save_xes(log, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_write_xes_golden_bytes():
    log = EventLog(traces=[Trace(case_id="c1", events=[
        Event(activity="a", lifecycle="start"),
        Event(activity="a", lifecycle="complete",
              timestamp=datetime.datetime(2024, 1, 2, 3, 4, 5,
                                          tzinfo=datetime.timezone.utc),
              attributes={"org:resource": "r1"}),
        Event(activity="b & <c>")])])
    assert write_xes(log) == b"""<?xml version='1.0' encoding='utf-8'?>
<log xes.version="1.0" xes.features="">
  <trace>
    <string key="concept:name" value="c1" />
    <event>
      <string key="concept:name" value="a" />
      <string key="lifecycle:transition" value="start" />
    </event>
    <event>
      <string key="concept:name" value="a" />
      <string key="lifecycle:transition" value="complete" />
      <date key="time:timestamp" value="2024-01-02T03:04:05+00:00" />
      <string key="org:resource" value="r1" />
    </event>
    <event>
      <string key="concept:name" value="b &amp; &lt;c&gt;" />
    </event>
  </trace>
</log>"""


def test_parse_xes_accepts_bytes_path_and_binary_file(tmp_path):
    data = write_xes(mk_log(["abc", "de"]))
    path = tmp_path / "log.xes"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        logs = [parse_xes(data), parse_xes(str(path)), parse_xes(fh)]
    for log in logs:
        assert [activities_of(t) for t in log] == [["a", "b", "c"], ["d", "e"]]


def test_xes_rejects_garbage(tmp_path):
    path = tmp_path / "bad.xes"
    path.write_text("<log>\n<trace>")
    with pytest.raises(LogFormatError, match="malformed XML at line 2, column 7"):
        parse_xes(str(path))


def test_xes_rejects_missing_or_empty_activity():
    def xes(event):
        return (b"<log><trace><string key='concept:name' value='c7'/>"
                b"<event><string key='concept:name' value='a'/></event>"
                + event + b"</trace></log>")
    for event, problem in ((b"<event/>", "without concept:name"),
                           (b"<event><string key='concept:name' value=''/></event>",
                            "with empty concept:name")):
        with pytest.raises(LogFormatError,
                           match=rf"event {problem} in trace 'c7' \(index 0\)"):
            parse_xes(xes(event))


def test_csv_basic_grouping(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("case,activity\n1,a\n2,x\n1,b\n2,y\n1,c\n")
    log = parse_csv(str(path), "case", "activity")
    assert [t.case_id for t in log] == ["1", "2"]
    assert activities_of(log.traces[0]) == ["a", "b", "c"]
    assert activities_of(log.traces[1]) == ["x", "y"]


def test_csv_sorts_by_time_column_stably(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "case,activity,ts\n"
        "1,late,2024-01-02T00:00:00\n"
        "1,tie1,2024-01-01T00:00:00\n"
        "1,tie2,2024-01-01T00:00:00\n")
    log = parse_csv(str(path), "case", "activity", time_col="ts")
    assert activities_of(log.traces[0]) == ["tie1", "tie2", "late"]


def test_csv_rejects_empty_activity_cell():
    with pytest.raises(LogFormatError, match="line 3: empty 'activity' cell in case '2'"):
        parse_csv(b"case,activity\n1,a\n2,\n", "case", "activity")


def test_csv_rejects_a_case_mixing_aware_and_naive_timestamps():
    data = (b"case,activity,ts\n"
            b"1,a,2020-01-01T00:00:00Z\n"
            b"2,a,2020-01-01T00:00:00\n"
            b"1,b,2020-01-02T00:00:00\n"
            b"1,c,2020-01-03T00:00:00\n")
    with pytest.raises(LogFormatError, match=r"line 4: case '1' mixes timestamps with "
                                             r"and without a UTC offset.*line 2"):
        parse_csv(data, "case", "activity", time_col="ts")
    # cases that keep to one kind each still parse and sort
    log = parse_csv(b"case,activity,ts\n"
                    b"1,b,2020-01-02T00:00:00+01:00\n"
                    b"2,y,2020-01-02T00:00:00\n"
                    b"1,a,2020-01-01T00:00:00Z\n"
                    b"2,x,2020-01-01T00:00:00\n", "case", "activity", time_col="ts")
    assert [activities_of(t) for t in log] == [["a", "b"], ["x", "y"]]


def test_csv_errors_name_file_lines_after_a_multi_line_field():
    # a quoted field spanning lines is one record but two lines, so rows
    # after it are named by the line they start on
    with pytest.raises(LogFormatError, match="line 4: empty 'activity' cell in case '1'"):
        parse_csv(b'case,activity,note\n1,a,"x\ny"\n1,,z\n', "case", "activity")
    with pytest.raises(LogFormatError, match="line 4: expected 3 fields, got 2"):
        parse_csv(b'case,activity,note\n1,a,"x\ny"\n1,b\n', "case", "activity")
    data = (b'case,activity,ts\n'
            b'2,"multi\nline",2020-01-01T00:00:00\n'
            b'1,a,2020-01-01T00:00:00Z\n'
            b'\n'
            b'1,b,2020-01-02T00:00:00\n')
    with pytest.raises(LogFormatError, match=r"line 6: case '1' mixes timestamps with "
                                             r"and without a UTC offset.*line 4\)"):
        parse_csv(data, "case", "activity", time_col="ts")


def test_csv_bytes_with_cr_and_crlf_line_ends_parse_like_the_file(tmp_path):
    # bytes and streams split lines as a file opened by path does, so "\r"
    # and "\r\n" end lines, also inside a quoted field, and line numbers
    # stay file lines
    for end in (b"\r", b"\r\n"):
        data = (b"case,activity,note" + end + b"1,a," + end + b'1,"b' + end + b'x",y'
                + end + b"2,c," + end)
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            logs = [parse_csv(data, "case", "activity"), parse_csv(fh, "case", "activity"),
                    parse_csv(str(path), "case", "activity")]
        for log in logs:
            assert [activities_of(t) for t in log] == [["a", "b\nx"], ["c"]], end
        bad = b"case,activity,note" + end + b'1,a,"x' + end + b'y"' + end + b"1,,z" + end
        with pytest.raises(LogFormatError, match="line 4: empty 'activity' cell"):
            parse_csv(bad, "case", "activity")
    log = parse_csv(b"case,activity\r1,a\r1,b\r", "case", "activity")
    assert activities_of(log.traces[0]) == ["a", "b"]


def test_csv_with_a_byte_order_mark_parses_like_one_without(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF; it must not become
    # part of the first header name
    text = "case,activity,ts\n1,a,2020-01-01\n1,\u00e9,2020-01-02\n2,c,2020-01-03\n"
    plain = parse_csv(text.encode(), "case", "activity", time_col="ts")
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    with open(path, "rb") as binary, open(path, encoding="utf-8") as stream:
        logs = [load_log(str(path), time_col="ts"),
                parse_csv(path.read_bytes(), "case", "activity", time_col="ts"),
                parse_csv(binary, "case", "activity", time_col="ts"),
                parse_csv(stream, "case", "activity", time_col="ts"),
                parse_csv(io.StringIO("\ufeff" + text), "case", "activity", time_col="ts")]
    assert [[activities_of(t) for t in log] for log in logs] == [[["a", "\u00e9"], ["c"]]] * 5
    assert all(log == plain for log in logs)
    out_dir = tmp_path / "lpms"
    assert main(["discover-lpms", "--input", str(path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "index.tsv").exists()


def test_csv_missing_column_is_an_error(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("case,activity\n1,a\n")
    with pytest.raises(ConfigError):
        parse_csv(str(path), "nope", "activity")


def test_load_log_dispatches_on_extension(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("case,activity\n1,a\n")
    xes_path = tmp_path / "log.xes"
    save_xes(mk_log(["ab"]), str(xes_path))
    assert activities_of(load_log(str(csv_path)).traces[0]) == ["a"]
    assert activities_of(load_log(str(xes_path)).traces[0]) == ["a", "b"]


def test_load_log_reads_an_upper_case_csv_extension(tmp_path):
    path = tmp_path / "log.CSV"
    path.write_text("case,activity\n1,a\n1,b\n")
    assert activities_of(load_log(str(path)).traces[0]) == ["a", "b"]


def test_write_xes_returns_bytes():
    data = write_xes(mk_log(["ab"]))
    assert isinstance(data, bytes)
    assert b"<log" in data


# ------------------------------------------------------------ XML writers

def _indent_and_write(root):
    """What both writers match: ElementTree.indent, then write."""
    tree = ET.ElementTree(copy.deepcopy(root))
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue()


def _pnml_element_tree(apn, tags):
    """The element tree write_pnml serializes, built as it once built it."""
    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", {"id": "net1",
                                         "type": "http://www.pnml.org/version-2009/grammar/ptnet"})
    page = ET.SubElement(net_el, "page", {"id": "page1"})
    for p in sorted(apn.net.places):
        p_el = ET.SubElement(page, "place", {"id": p})
        if apn.initial.get(p, 0):
            mark_el = ET.SubElement(p_el, "initialMarking")
            ET.SubElement(mark_el, "text").text = str(apn.initial[p])
    for t in sorted(apn.net.transitions):
        t_el = ET.SubElement(page, "transition", {"id": t})
        if apn.net.labels.get(t) is not None:
            ET.SubElement(ET.SubElement(t_el, "name"), "text").text = apn.net.labels[t]
        if tags and t in tags:
            tag_el = ET.SubElement(t_el, "toolspecific", {"tool": "loglift", "version": "0.1"})
            ET.SubElement(tag_el, "text").text = tags[t]
    for i, (src, dst) in enumerate(sorted(apn.net.arcs)):
        ET.SubElement(page, "arc", {"id": f"arc{i}", "source": src, "target": dst})
    fin_el = ET.SubElement(net_el, "toolspecific", {"tool": "loglift", "version": "0.1"})
    final_el = ET.SubElement(fin_el, "finalMarking")
    for p in sorted(apn.final):
        if apn.final[p]:
            ET.SubElement(final_el, "place", {"idref": p, "tokens": str(apn.final[p])})
    return root


ODD = "x & y < z > w \" q \r\n\t end \ud800"


def _odd_nets():
    """(net, transition tags) pairs: escapes in every id, label and tag, a
    lone surrogate, empty and whitespace-only text, an empty page, no
    final marking, several tokens."""
    apn = tree_to_net(parse_tree("seq('a & b',loop('<c>',tau))"))
    ts = sorted(apn.net.transitions)
    odd = AcceptingPetriNet(
        net=PetriNet(places={ODD, "q"}, transitions={"t" + ODD, "u", "v"},
                     arcs={(ODD, "t" + ODD), ("t" + ODD, "q"), ("q", "u"), ("u", ODD)},
                     labels={"t" + ODD: ODD, "u": "", "v": "  \n "}),
        initial={ODD: 2}, final={"q": 3, ODD: 0})
    empty = AcceptingPetriNet(net=PetriNet(places=set(), transitions=set(), arcs=set(),
                                           labels={}), initial={}, final={})
    return [(apn, None), (apn, {t: "tag & <x>" for t in ts}),
            (apn, {ts[0]: "", ts[1]: "  "}), (odd, {"u": ODD, "v": "v"}),
            (odd, None), (empty, None), (empty, {})]


def test_xml_writers_match_indent_and_write():
    for apn, tags in _odd_nets():
        assert write_pnml(apn, tags) == _indent_and_write(_pnml_element_tree(apn, tags))
    patterns = patterns_from_models([make_lpm(parse_tree(t)) for t in
                                     ("seq(a,b,c)", "and(d,xor(e,tau))", "loop(f,g)")])
    for composition in ("interleaving", "parallel"):
        model = compose(patterns, composition)
        tags = model.transition_tags()
        assert tags
        assert (write_pnml(model.net, tags)
                == _indent_and_write(_pnml_element_tree(model.net, tags)))
    odd_log = EventLog(traces=[
        Trace(case_id=ODD, events=[Event(activity=ODD, lifecycle=" ",
                                         attributes={ODD: ODD, "": "", "k": "  \n "})]),
        Trace(case_id="", events=[Event(activity="a")])])
    for log in (odd_log, mk_log(["ab", "", "ba"])):
        assert write_xes(log) == _indent_and_write(_xes_element_tree(log))


def _xes_element_tree(log):
    """The element tree write_xes serializes, built as it once built it."""
    root = ET.Element("log", {"xes.version": "1.0", "xes.features": ""})
    for trace in log.traces:
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string", {"key": "concept:name", "value": trace.case_id})
        for event in trace.events:
            ev_el = ET.SubElement(trace_el, "event")
            ET.SubElement(ev_el, "string", {"key": "concept:name", "value": event.activity})
            if event.lifecycle is not None:
                ET.SubElement(ev_el, "string",
                              {"key": "lifecycle:transition", "value": event.lifecycle})
            if event.timestamp is not None:
                ET.SubElement(ev_el, "date",
                              {"key": "time:timestamp", "value": event.timestamp.isoformat()})
            for key in sorted(event.attributes):
                ET.SubElement(ev_el, "string", {"key": key, "value": event.attributes[key]})
    return root


def test_write_xes_matches_element_tree_oracle():
    log = generate_log([parse_tree("seq(a,and(b,c))")], instances=2, traces=4,
                       noise_rate=0.3, seed=5)
    log.traces.append(Trace(case_id="odd & <case>", events=[
        Event(activity="b & \"c\"\t\r\n", lifecycle="start",
              timestamp=datetime.datetime(2024, 1, 2, 3, 4, 5),
              attributes={"org:resource": "<r>", "note": "\ud800", "k & \"<>\"": "v"})]))
    log.traces.append(Trace(case_id="empty", events=[]))
    for case in (log, EventLog(), EventLog(traces=[Trace(case_id="", events=[])])):
        assert write_xes(case) == _indent_and_write(_xes_element_tree(case))


# ------------------------------------------------------------ shared events

def _lift_shaped_log(seed=1):
    """A log shaped like the benchmark's lift workload."""
    patterns = [parse_tree(p) for p in ("seq(a,b,c)", "and(d,e)", "loop(f,g)")]
    return generate_log(patterns, instances=2, traces=25, composition="parallel",
                        noise_rate=0.3, seed=seed)


def _csv_table(log):
    return ("case,activity\n" + "".join(f"{t.case_id},{e.activity}\n"
                                        for t in log for e in t)).encode()


def _bytes_per_event(build):
    """Bytes that tracemalloc sees the log made by build() hold, per event."""
    build()  # a first call may import a codec or fill a cache the log does not hold
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / sum(len(t) for t in log)


def test_a_log_holds_at_most_40_bytes_per_event():
    # with one mutable event and attribute dict each, these logs held 187 B
    # per event generated, 244 B parsed from XES and 187 B parsed from CSV
    log = _lift_shaped_log()
    data, table = write_xes(log), _csv_table(log)
    sizes = {"generated": _bytes_per_event(_lift_shaped_log),
             "xes": _bytes_per_event(lambda: parse_xes(data)),
             "csv": _bytes_per_event(lambda: parse_csv(table, "case", "activity"))}
    assert max(sizes.values()) <= 40, sizes


def test_events_are_immutable_values():
    event = Event("a", attributes={"k": "v"})
    for name, value in (("activity", "b"), ("lifecycle", "start"), ("attributes", {})):
        with pytest.raises(FrozenInstanceError):
            setattr(event, name, value)
    with pytest.raises(TypeError):
        event.attributes["k"] = "w"
    given = {"k": "v"}
    event = Event("a", attributes=given)
    given["k"] = "w"
    assert event.attributes == {"k": "v"}
    assert Event("a") == Event("a", attributes={})
    assert hash(Event("a")) == hash(Event("a", attributes={}))
    assert Event("a").attributes is Event("a", attributes={}).attributes
    assert Event("a") != Event("a", attributes={"k": "v"})
    log = EventLog(traces=[Trace("c", [Event("a"), Event("b", "start", attributes=given)])])
    assert pickle.loads(pickle.dumps(log)) == log == copy.deepcopy(log)


def test_producers_share_equal_plain_events():
    def by_value(log):
        shared = {}
        for event in (e for t in log for e in t):
            assert shared.setdefault((event.activity, event.lifecycle), event) is event
        return shared
    log = _lift_shaped_log()
    letters = "abcdefghijkl"  # the patterns' activities, then the noise letters
    generated = by_value(log)
    assert sorted(generated) == [(a, "complete") for a in letters]
    parsed = by_value(parse_xes(write_xes(log)))
    assert parsed == generated
    assert not {id(e) for e in parsed.values()} & {id(e) for e in generated.values()}
    assert by_value(parse_csv(_csv_table(log), "case", "activity")) \
        == {(a, None): Event(a) for a in letters}
    # one event per (activity, lifecycle), not per activity
    mixed = EventLog(traces=[mk_trace("abab", lifecycle="start"), mk_trace("ba"),
                             mk_trace("ab", lifecycle="complete")])
    assert len(by_value(parse_xes(write_xes(mixed)))) == 6
    # abstract_log makes one start and one complete event per pattern
    model = compose(patterns_from_models([make_lpm(parse_tree("seq(a,b)"))]))
    high = abstract_log(mk_log(["abab", "xab", "ab"]), model)
    assert sorted(by_value(high)) == [("LPM_1", "complete"), ("LPM_1", "start")]
    assert sum(len(t) for t in high) == 8


def test_timestamped_and_attribute_bearing_events_stay_distinct():
    data = (b"<log><trace>"
            + b"<event><string key='concept:name' value='a'/>"
              b"<date key='time:timestamp' value='2024-01-01T00:00:00Z'/></event>" * 2
            + b"<event><string key='concept:name' value='a'/>"
              b"<string key='org:resource' value='r1'/></event>" * 2
            + b"<event><string key='concept:name' value='a'/>"
              b"<string key='org:resource' value='r2'/></event>"
            + b"</trace></log>")
    events = parse_xes(data).traces[0].events
    assert len({id(e) for e in events}) == 5
    utc = datetime.timezone.utc
    assert [e.timestamp for e in events[:2]] == [datetime.datetime(2024, 1, 1, tzinfo=utc)] * 2
    assert [e.attributes for e in events] == [{}, {}, {"org:resource": "r1"},
                                              {"org:resource": "r1"}, {"org:resource": "r2"}]
    log = parse_csv(b"case,activity,ts\n1,a,2024-01-02\n1,a,2024-01-01\n", "case",
                    "activity", time_col="ts")
    first, second = log.traces[0].events
    assert first is not second
    assert (first.timestamp.day, second.timestamp.day) == (1, 2)


def test_xes_round_trip_is_exact():
    odd = "x & y < z > w \" q \r\n\t end \u00e9 "
    stamp = datetime.datetime(2024, 1, 2, 3, 4, 5, 678000)
    log = EventLog(traces=[
        Trace(case_id=odd, events=[
            Event("a", "start"), Event("a", "complete"), Event("a"), Event("a", "schedule"),
            Event("a", "start"), Event(odd, "ate_abort"),
            Event("b", timestamp=stamp),
            Event("b", "complete",
                  timestamp=stamp.replace(tzinfo=datetime.timezone(datetime.timedelta(hours=2)))),
            Event("b", timestamp=stamp.replace(tzinfo=datetime.timezone.utc),
                  attributes={odd: odd, "": "", "k": "  \n ", "org:resource": "r"}),
            Event("b", attributes={"k": "v"})]),
        Trace(case_id="", events=[]),
        Trace(case_id="c", events=[Event("a", "start"), Event("b")])])
    data = write_xes(log)
    back = parse_xes(data)
    assert back == log
    assert write_xes(back) == data
    for want, got in zip((e for t in log for e in t), (e for t in back for e in t)):
        assert got.timestamp is None or got.timestamp.utcoffset() == want.timestamp.utcoffset()
        assert dict(got.attributes) == dict(want.attributes)
