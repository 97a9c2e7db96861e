"""PNML import/export for accepting Petri nets.

Subset: places, transitions, arcs, transition name labels and the initial
marking use standard PNML elements. The final marking is not part of core
PNML, so it travels in a <toolspecific tool="loglift"> block under <net>,
one <place idref tokens> entry per marked place (documented in the README).
Silent transitions are written without a <name> element. Optional per-
transition annotations (pattern membership tags on abstraction models) are
written as <toolspecific> blocks under the transition.
"""

import os
from xml.etree import ElementTree as ET

from .errors import LogFormatError
from .eventlog import read_xml, strip_ns, xml_bytes
from .petrinet import AcceptingPetriNet, Marking, PetriNet

TOOL = "loglift"


def write_pnml(apn: AcceptingPetriNet, transition_tags: dict[str, str] | None = None) -> bytes:
    """Serialize an accepting net to PNML bytes (deterministic)."""
    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", {"id": "net1",
                                         "type": "http://www.pnml.org/version-2009/grammar/ptnet"})
    page = ET.SubElement(net_el, "page", {"id": "page1"})
    for p in sorted(apn.net.places):
        p_el = ET.SubElement(page, "place", {"id": p})
        tokens = apn.initial.get(p, 0)
        if tokens:
            mark_el = ET.SubElement(p_el, "initialMarking")
            ET.SubElement(mark_el, "text").text = str(tokens)
    for t in sorted(apn.net.transitions):
        t_el = ET.SubElement(page, "transition", {"id": t})
        label = apn.net.labels.get(t)
        if label is not None:
            name_el = ET.SubElement(t_el, "name")
            ET.SubElement(name_el, "text").text = label
        if transition_tags and t in transition_tags:
            tag_el = ET.SubElement(t_el, "toolspecific", {"tool": TOOL, "version": "0.1"})
            ET.SubElement(tag_el, "text").text = transition_tags[t]
    for i, (src, dst) in enumerate(sorted(apn.net.arcs)):
        ET.SubElement(page, "arc", {"id": f"arc{i}", "source": src, "target": dst})
    fin_el = ET.SubElement(net_el, "toolspecific", {"tool": TOOL, "version": "0.1"})
    final_el = ET.SubElement(fin_el, "finalMarking")
    for p in sorted(apn.final):
        if apn.final[p]:
            ET.SubElement(final_el, "place", {"idref": p, "tokens": str(apn.final[p])})
    return xml_bytes(root)


def save_pnml(apn: AcceptingPetriNet, path: str,
              transition_tags: dict[str, str] | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(write_pnml(apn, transition_tags))


def _walk(element, wanted: str):
    for child in element.iter():
        if strip_ns(child.tag) == wanted:
            yield child


def parse_pnml(source) -> AcceptingPetriNet:
    """Parse PNML bytes, a binary file object or a file path.

    Input that does not describe an accepting net (malformed XML, a token
    count that is not an integer, an arc that does not join a place and a
    transition, ...) raises LogFormatError, naming the file when given a
    path.
    """
    try:
        return _parse_pnml(source)
    except (OSError, LogFormatError) as exc:
        if isinstance(source, (str, os.PathLike)):
            raise LogFormatError(f"{os.fspath(source)}: {exc}") from exc
        raise


def _tokens(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LogFormatError(f"bad token count {text!r} {where}") from None


def _parse_pnml(source) -> AcceptingPetriNet:
    root = read_xml(source, "PNML")
    places: set[str] = set()
    transitions: set[str] = set()
    arcs: set[tuple[str, str]] = set()
    labels: dict[str, str] = {}
    initial: Marking = {}
    final: Marking = {}

    for p_el in _walk(root, "place"):
        pid = p_el.get("id")
        if pid is None:
            if p_el.get("idref") is not None:
                continue  # marking reference, not a place definition
            raise LogFormatError("place without id")
        places.add(pid)
        for mark_el in _walk(p_el, "initialMarking"):
            for text_el in _walk(mark_el, "text"):
                initial[pid] = _tokens(text_el.text or "0", f"in the initial marking of {pid!r}")

    for t_el in _walk(root, "transition"):
        tid = t_el.get("id")
        if tid is None:
            raise LogFormatError("transition without id")
        transitions.add(tid)
        for name_el in t_el:
            if strip_ns(name_el.tag) != "name":
                continue
            for text_el in _walk(name_el, "text"):
                if text_el.text:
                    labels[tid] = text_el.text

    for a_el in _walk(root, "arc"):
        src, dst = a_el.get("source"), a_el.get("target")
        if src is None or dst is None:
            raise LogFormatError("arc without source/target")
        arcs.add((src, dst))

    for ts_el in _walk(root, "toolspecific"):
        if ts_el.get("tool") != TOOL:
            continue
        for fin_el in _walk(ts_el, "finalMarking"):
            for ref_el in _walk(fin_el, "place"):
                pid = ref_el.get("idref")
                if pid is not None:
                    final[pid] = _tokens(ref_el.get("tokens", "1"),
                                         f"in the final marking of {pid!r}")

    apn = AcceptingPetriNet(net=PetriNet(places=places, transitions=transitions,
                                         arcs=arcs, labels=labels),
                            initial=initial, final=final)
    try:
        apn.validate()
    except ValueError as exc:
        raise LogFormatError(str(exc)) from exc
    return apn
