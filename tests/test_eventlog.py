"""Event log model, XES round-trip, CSV parsing."""

import copy
import datetime
import io
from xml.etree import ElementTree as ET

import pytest

import loglift.pnml
from loglift import (ConfigError, Event, EventLog, LogFormatError, Trace,
                     generate_log, load_log, parse_csv, parse_tree, parse_xes,
                     save_xes, tree_to_net, write_pnml, write_xes)
from loglift.eventlog import complete_word, xml_bytes
from conftest import mk_log, mk_trace


def test_event_lifecycle_default_is_complete():
    assert Event(activity="a").is_complete()
    assert Event(activity="a", lifecycle="complete").is_complete()
    assert not Event(activity="a", lifecycle="start").is_complete()


def test_trace_helpers():
    t = mk_trace("abc")
    assert t.activities() == ["a", "b", "c"]
    assert len(t) == 3
    assert [e.activity for e in t] == ["a", "b", "c"]


def test_log_alphabet_and_len():
    log = mk_log(["ab", "bc"])
    assert log.alphabet() == {"a", "b", "c"}
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
    assert back.traces[0].activities() == ["a", "a", "b"]
    assert back.traces[0].events[0].lifecycle == "start"
    assert back.traces[0].events[1].timestamp is not None
    assert back.traces[1].activities() == ["odd name <&>"]


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
        assert [t.activities() for t in log] == [["a", "b", "c"], ["d", "e"]]


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
    assert log.traces[0].activities() == ["a", "b", "c"]
    assert log.traces[1].activities() == ["x", "y"]


def test_csv_sorts_by_time_column_stably(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "case,activity,ts\n"
        "1,late,2024-01-02T00:00:00\n"
        "1,tie1,2024-01-01T00:00:00\n"
        "1,tie2,2024-01-01T00:00:00\n")
    log = parse_csv(str(path), "case", "activity", time_col="ts")
    assert log.traces[0].activities() == ["tie1", "tie2", "late"]


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
    assert [t.activities() for t in log] == [["a", "b"], ["x", "y"]]


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
            assert [t.activities() for t in log] == [["a", "b\nx"], ["c"]], end
        bad = b"case,activity,note" + end + b'1,a,"x' + end + b'y"' + end + b"1,,z" + end
        with pytest.raises(LogFormatError, match="line 4: empty 'activity' cell"):
            parse_csv(bad, "case", "activity")
    log = parse_csv(b"case,activity\r1,a\r1,b\r", "case", "activity")
    assert log.traces[0].activities() == ["a", "b"]


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
    assert load_log(str(csv_path)).traces[0].activities() == ["a"]
    assert load_log(str(xes_path)).traces[0].activities() == ["a", "b"]


def test_load_log_reads_an_upper_case_csv_extension(tmp_path):
    path = tmp_path / "log.CSV"
    path.write_text("case,activity\n1,a\n1,b\n")
    assert load_log(str(path)).traces[0].activities() == ["a", "b"]


def test_write_xes_returns_bytes():
    data = write_xes(mk_log(["ab"]))
    assert isinstance(data, bytes)
    assert b"<log" in data


# ------------------------------------------------------------ XML writer

def _indent_and_write(root):
    """The reference xml_bytes matches: ElementTree.indent, then write."""
    tree = ET.ElementTree(copy.deepcopy(root))
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue()


def _odd_elements():
    odd = "x & y < z > w \" q \r\n\t end"
    root = ET.Element("root", {"plain": "v", "odd": odd, "empty": ""})
    ET.SubElement(root, "text").text = "a & b < c > d"
    ET.SubElement(root, "blank").text = "  \n "
    ET.SubElement(root, "empty").text = ""
    ET.SubElement(root, "surrogate", {"value": "lone \ud800 here"}).text = "and \udfff"
    parent = ET.SubElement(root, "parent", {"k": odd})
    parent.text = " \n"
    ET.SubElement(ET.SubElement(parent, "child"), "grandchild", {"k": "\t"})
    texty = ET.SubElement(root, "texty")
    texty.text = "kept & escaped"
    ET.SubElement(texty, "child")
    return [root, ET.Element("alone"), ET.Element("alone", {"k": "<&>"}),
            _with_text(ET.Element("alone"), "a & b"), _with_text(ET.Element("alone"), "  ")]


def _with_text(el, text):
    el.text = text
    return el


def test_xml_bytes_matches_indent_and_write(monkeypatch):
    roots = _odd_elements()

    def capturing(root):
        roots.append(root)
        return xml_bytes(root)

    monkeypatch.setattr(loglift.pnml, "xml_bytes", capturing)
    apn = tree_to_net(parse_tree("seq('a & b',loop('<c>',tau))"))
    write_pnml(apn, {t: "tag & <x>" for t in apn.net.transitions})
    assert len(roots) == 6
    for root in roots:
        before = ET.tostring(root)
        assert xml_bytes(root) == _indent_and_write(root), ET.tostring(root)
        assert ET.tostring(root) == before


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
