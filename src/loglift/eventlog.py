"""Event logs: in-memory model plus XES and CSV readers and an XES writer,
and the XML reading and writing that PNML shares.

A log is an ordered list of traces (a multiset: repeated traces appear
repeatedly), a trace is a case id plus an ordered list of events, and an
event is an activity label with an optional lifecycle phase, an optional
timestamp and a free-form attribute map.

The XES support is a pragmatic subset: concept:name, lifecycle:transition
and time:timestamp are interpreted; any other event attribute with key and
value is kept verbatim in the attribute map (as text); nested containers,
global declarations and trace attributes other than concept:name are
ignored. write_xes followed by parse_xes reproduces the in-memory log
exactly.
"""

import csv
import io
import re
from dataclasses import dataclass, field
from datetime import datetime
from xml.etree import ElementTree as ET

from .errors import ConfigError, LogFormatError

START = "start"
COMPLETE = "complete"

_LIFECYCLES = (START, COMPLETE)


@dataclass
class Event:
    activity: str
    lifecycle: str | None = None
    timestamp: datetime | None = None
    attributes: dict[str, str] = field(default_factory=dict)

    def is_complete(self) -> bool:
        """Events without an explicit lifecycle count as completions."""
        return self.lifecycle is None or self.lifecycle == COMPLETE


@dataclass
class Trace:
    case_id: str
    events: list[Event] = field(default_factory=list)

    def activities(self) -> list[str]:
        return [e.activity for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass
class EventLog:
    traces: list[Trace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def alphabet(self) -> set[str]:
        return {e.activity for t in self.traces for e in t.events}


def complete_word(trace) -> tuple[str, ...]:
    """The complete-lifecycle activities of a trace, in order; a plain
    sequence of activities is taken as the word itself."""
    if isinstance(trace, Trace):
        return tuple(e.activity for e in trace.events if e.is_complete())
    return tuple(trace)


# ---------------------------------------------------------------- XML

def strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_xml(source, kind: str):
    """Root element of XML given as bytes, a binary file object or a file
    path; malformed input raises LogFormatError naming kind, the line and
    the column."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    try:
        return ET.parse(source).getroot()
    except ET.ParseError as exc:
        line, col = exc.position
        raise LogFormatError(f"malformed {kind} at line {line}, column {col}: {exc.msg}") from exc


# ElementTree's escapes: (characters to escape, their translation table)
_TEXT_ESCAPES = (re.compile("[&<>]"),
                 str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"}))
_ATTR_ESCAPES = (re.compile('[&<>"\r\n\t]'),
                 str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                                "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}))


def _escape(text: str, escapes) -> str:
    special, table = escapes
    # most text has nothing to escape, and a search is cheaper than a translate
    return text.translate(table) if special.search(text) else text


def xml_bytes(root) -> bytes:
    """Indented UTF-8 serialization with an XML declaration.

    Byte for byte what ElementTree.indent followed by ElementTree.write
    (encoding="utf-8", xml_declaration=True) gives for the elements written
    here: tags without namespaces, attributes and text, and no tails or
    comments. The root element is left unchanged.
    """
    # one string per element, not a list of its pieces: a document's
    # small strings would otherwise all be alive at once
    return ("<?xml version='1.0' encoding='utf-8'?>\n"
            + _element_text(root, "\n")).encode("utf-8", "xmlcharrefreplace")


def _element_text(el, indent: str) -> str:
    """el serialized; indent is the newline and spaces before el's end tag
    if el has children, and its children are indented two spaces more."""
    head = "<" + el.tag
    for key, value in el.items():
        head += f' {key}="{_escape(value, _ATTR_ESCAPES)}"'
    text = el.text
    if len(el):
        inner = indent + "  "
        # like ElementTree.indent, a whitespace-only text becomes the
        # indentation of the first child
        first = _escape(text, _TEXT_ESCAPES) if text and text.strip() else inner
        children = inner.join([_element_text(child, inner) for child in el])
        return f"{head}>{first}{children}{indent}</{el.tag}>"
    if text:
        return f"{head}>{_escape(text, _TEXT_ESCAPES)}</{el.tag}>"
    return head + " />"


# ---------------------------------------------------------------- XES input

def _parse_timestamp(value: str, where: str) -> datetime:
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise LogFormatError(f"{where}: bad timestamp {value!r}") from exc


def parse_xes(source) -> EventLog:
    """Parse XES from bytes, a binary file object or a file path.

    Raises LogFormatError for malformed XML (with line and column) and for
    events whose concept:name is missing or empty (naming the offending
    trace).
    """
    root = read_xml(source, "XML")
    if strip_ns(root.tag) != "log":
        raise LogFormatError(f"expected <log> root element, found <{strip_ns(root.tag)}>")

    log = EventLog()
    for ti, trace_el in enumerate(el for el in root if strip_ns(el.tag) == "trace"):
        case_id = str(ti)
        events: list[Event] = []
        for child in trace_el:
            tag = strip_ns(child.tag)
            if tag == "string" and child.get("key") == "concept:name":
                case_id = child.get("value", case_id)
            elif tag == "event":
                events.append(_parse_event(child, ti, case_id))
        log.traces.append(Trace(case_id=case_id, events=events))
    return log


def _parse_event(event_el, trace_index: int, case_id: str) -> Event:
    activity = None
    lifecycle = None
    timestamp = None
    attributes: dict[str, str] = {}
    for attr in event_el:
        key = attr.get("key")
        value = attr.get("value")
        if key is None or value is None:
            continue
        if key == "concept:name":
            activity = value
        elif key == "lifecycle:transition" and value.lower() in _LIFECYCLES:
            lifecycle = value.lower()
        elif key == "time:timestamp":
            timestamp = _parse_timestamp(value, f"trace {case_id!r} (index {trace_index})")
        else:
            attributes[key] = value
    if not activity:
        problem = "without concept:name" if activity is None else "with empty concept:name"
        raise LogFormatError(f"event {problem} in trace {case_id!r} (index {trace_index})")
    return Event(activity=activity, lifecycle=lifecycle, timestamp=timestamp,
                 attributes=attributes)


# --------------------------------------------------------------- XES output

_XES_HEAD = ("<?xml version='1.0' encoding='utf-8'?>\n"
             '<log xes.version="1.0" xes.features=""')


def write_xes(log: EventLog) -> bytes:
    """Serialize a log to XES bytes; output is deterministic for equal logs.

    Written as text, byte for byte what xml_bytes gives for the log as an
    element tree: a <trace> per trace holding its concept:name <string>
    and an <event> per event, each event holding its concept:name, its
    lifecycle:transition and time:timestamp if set, then its other
    attributes in key order.
    """
    if not log.traces:
        return (_XES_HEAD + " />").encode("utf-8", "xmlcharrefreplace")
    # one string per trace, not a list of every attribute's piece
    return (_XES_HEAD + ">" + "".join([_trace_xes(t) for t in log.traces])
            + "\n</log>").encode("utf-8", "xmlcharrefreplace")


def _trace_xes(trace: Trace) -> str:
    attr = _ATTR_ESCAPES
    parts = [f'\n  <trace>\n    <string key="concept:name" '
             f'value="{_escape(trace.case_id, attr)}" />']
    for event in trace.events:
        parts.append(f'\n    <event>\n      <string key="concept:name" '
                     f'value="{_escape(event.activity, attr)}" />')
        if event.lifecycle is not None:
            parts.append(f'\n      <string key="lifecycle:transition" '
                         f'value="{_escape(event.lifecycle, attr)}" />')
        if event.timestamp is not None:
            parts.append(f'\n      <date key="time:timestamp" '
                         f'value="{_escape(event.timestamp.isoformat(), attr)}" />')
        for key in sorted(event.attributes):
            parts.append(f'\n      <string key="{_escape(key, attr)}" '
                         f'value="{_escape(event.attributes[key], attr)}" />')
        parts.append("\n    </event>")
    parts.append("\n  </trace>")
    return "".join(parts)


def save_xes(log: EventLog, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(write_xes(log))


# ---------------------------------------------------------------- CSV input

def parse_csv(source, case_col: str, activity_col: str, time_col: str | None = None) -> EventLog:
    """Parse a delimited event table into a log.

    Rows are grouped into traces by the case column (trace order follows
    first appearance of each case). With a time column, events inside a
    trace are sorted by timestamp, ties keeping row order; without one, row
    order is kept as-is. An empty activity cell, or a case whose timestamps
    mix values with and without a UTC offset, raises LogFormatError naming
    the line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source if isinstance(source, bytes) else source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")

    # universal newlines, as a file opened by path reads: "\r", "\r\n" and
    # "\n" each end one line
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        header = next(reader)
    except StopIteration:
        raise LogFormatError("empty CSV input") from None

    columns = {name: i for i, name in enumerate(header)}
    for name in (case_col, activity_col) + ((time_col,) if time_col else ()):
        if name not in columns:
            raise ConfigError(f"column {name!r} not in CSV header {header}")

    case_i = columns[case_col]
    act_i = columns[activity_col]
    time_i = columns[time_col] if time_col else None

    cases: dict[str, list[tuple[datetime | None, int, Event]]] = {}
    next_line = reader.line_num + 1
    for row in reader:
        # a quoted field may span lines, so a row is named by the line it
        # starts on, not by its count of records
        row_num, next_line = next_line, reader.line_num + 1
        if not row:
            continue
        if len(row) < len(header):
            raise LogFormatError(f"line {row_num}: expected {len(header)} fields, got {len(row)}")
        if not row[act_i]:
            raise LogFormatError(f"line {row_num}: empty {activity_col!r} cell "
                                 f"in case {row[case_i]!r}")
        entries = cases.setdefault(row[case_i], [])
        timestamp = None
        if time_i is not None:
            timestamp = _parse_timestamp(row[time_i], f"line {row_num}")
            # aware and naive datetimes do not compare, so a case cannot be
            # sorted when it mixes the two
            if entries and (timestamp.tzinfo is None) != (entries[0][0].tzinfo is None):
                raise LogFormatError(
                    f"line {row_num}: case {row[case_i]!r} mixes timestamps with and "
                    f"without a UTC offset (its first event is on line {entries[0][1]})")
        entries.append((timestamp, row_num, Event(activity=row[act_i], timestamp=timestamp)))

    log = EventLog()
    for case_id, entries in cases.items():
        if time_i is not None:
            entries.sort(key=lambda e: (e[0], e[1]))
        log.traces.append(Trace(case_id=case_id, events=[e for _, _, e in entries]))
    return log


def load_log(path: str, case_col: str = "case", activity_col: str = "activity",
             time_col: str | None = None) -> EventLog:
    """Load a log file: CSV for a .csv extension in any case, else XES."""
    if path.lower().endswith(".csv"):
        return parse_csv(path, case_col, activity_col, time_col)
    return parse_xes(path)
