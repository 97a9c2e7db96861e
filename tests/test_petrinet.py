"""Net semantics, the replay engine, language oracles, PNML round-trip."""

import pytest

from loglift import (AcceptingPetriNet, PetriNet, Replay, SearchLimitError,
                     abstract_trace, accepts, align_words, language_upto,
                     make_lpm, parse_pnml, parse_tree,
                     save_pnml, tree_to_net, write_pnml)
from loglift.eventlog import complete_word
from conftest import N1_TEXT, planted_alignment_cases


def hand_net():
    net = PetriNet(places={"p1", "p2", "p3"},
                   transitions={"t1", "t2"},
                   arcs={("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3")},
                   labels={"t1": "a", "t2": "b"})
    return AcceptingPetriNet(net=net, initial={"p1": 1}, final={"p3": 1})


def test_enabled_and_fire():
    rp = Replay(hand_net())
    t1, t2 = rp.transitions.index("t1"), rp.transitions.index("t2")
    m0 = rp.initial_id
    assert rp.enabled_ts(m0) == [t1]
    m1 = rp.fire_t(m0, t1)
    assert m1 == rp.intern(tuple(int(p == "p2") for p in rp.places))
    assert rp.enabled_ts(m1) == [t2]
    assert rp.fire_t(m1, t2) == rp.final_id


def brute_enabled(rp, m):
    return [t for t in range(len(rp.transitions)) if all(m[p] >= 1 for p in rp.pre[t])]


def brute_fire(rp, m, t):
    dense = list(m)
    for p in rp.pre[t]:
        dense[p] -= 1
    for p in rp.post[t]:
        dense[p] += 1
    return tuple(dense)


def brute_closure(rp, m):
    """Dense markings reachable from m by silent firings, m included."""
    seen = {m}
    todo = [m]
    while todo:
        cur = todo.pop()
        for t in brute_enabled(rp, cur):
            if rp.labels[t] is None:
                nxt = brute_fire(rp, cur, t)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return seen


def check_replay_caches(rp):
    """enabled_ts, successors and the cached silent pairs of every marking
    the replay has interned, its start set and every set step it has
    taken, against brute-force scans over all transitions."""
    for mid in range(len(rp._marks)):
        m = rp._marks[mid]
        enabled = brute_enabled(rp, m)
        assert rp.enabled_ts(mid) == enabled
        pairs = [(t, rp.fire_t(mid, t)) for t in enabled]
        for t, nxt in pairs:
            assert rp._marks[nxt] == brute_fire(rp, m, t)
        visible = [(t, n) for t, n in pairs if rp.labels[t] is not None]
        by_label = {}
        for t, n in visible:
            by_label.setdefault(rp.labels[t], []).append((t, n))
        silent = [(t, n) for t, n in pairs if rp.labels[t] is None]
        if mid in rp._silent:
            assert rp._silent[mid] == silent
        assert rp.successors(mid) == (silent, visible, by_label)
        assert rp.successors(mid)[0] is rp._silent[mid]

    def dense_set(sid):
        return {rp._marks[mid] for mid in rp._sets[sid]}

    assert dense_set(rp.start_set_id) == brute_closure(rp, rp._marks[rp.initial_id])
    for (sid, activity), out in rp._set_step.items():
        want = set()
        for m in dense_set(sid):
            for t in brute_enabled(rp, m):
                if rp.labels[t] == activity:
                    want |= brute_closure(rp, brute_fire(rp, m, t))
        assert dense_set(out) == want, activity


def step_words(rp, words):
    """Run every prefix of the words through the replay's set steps."""
    for word in words:
        sid = rp.start_set_id
        for a in word:
            sid = rp.step(sid, a)


@pytest.mark.parametrize("composition", ["interleaving", "parallel"])
def test_replay_caches_match_brute_force_on_aligned_markings(composition):
    log, nets = planted_alignment_cases(composition)
    for name, net in nets.items():
        if name == "abstraction":
            rp = Replay(net.net)
            for trace in log:
                abstract_trace(trace, net, replay=rp)
        else:
            rp = Replay(net)
            for trace in log:
                align_words(complete_word(trace), net, replay=rp)
        step_words(rp, [complete_word(t) for t in log])
        assert len(rp._marks) > 1, name
        assert rp._set_step, name
        check_replay_caches(rp)


def test_replay_caches_match_brute_force_on_hand_nets():
    # gen has an empty preset (always enabled); t reads p through a self-loop
    unguarded = PetriNet(places={"p", "q"}, transitions={"gen", "eat"},
                         arcs={("gen", "p"), ("p", "eat"), ("eat", "q")},
                         labels={"gen": "a", "eat": "b"})
    self_loop = PetriNet(places={"p", "q"}, transitions={"t", "u", "s"},
                         arcs={("p", "t"), ("t", "p"), ("p", "u"), ("u", "q"),
                               ("p", "s"), ("s", "p")},
                         labels={"t": "a", "u": "b"})
    for net, initial in ((unguarded, {}), (self_loop, {"p": 1})):
        apn = AcceptingPetriNet(net=net, initial=initial, final={"q": 1})
        rp = Replay(apn)
        words = (["a", "b"], ["a", "a", "b"], ["b"], ["c", "a"])
        for word in words:
            align_words(word, apn, replay=rp)
        step_words(rp, words)
        check_replay_caches(rp)
    rp = Replay(AcceptingPetriNet(net=unguarded, initial={}, final={"q": 1}))
    assert rp.enabled_ts(rp.initial_id) == [rp.transitions.index("gen")]


def test_validate_rejects_bad_nets():
    net = PetriNet(places={"p"}, transitions={"t"},
                   arcs={("p", "q")}, labels={})
    with pytest.raises(ValueError):
        net.validate()
    overlap = PetriNet(places={"x"}, transitions={"x"}, arcs=set(), labels={})
    with pytest.raises(ValueError):
        overlap.validate()
    apn = AcceptingPetriNet(net=PetriNet(places={"p"}, transitions=set(),
                                         arcs=set(), labels={}),
                            initial={"nope": 1}, final={})
    with pytest.raises(ValueError):
        apn.validate()


def test_accepts_simple_sequence():
    apn = hand_net()
    assert accepts(apn, ["a", "b"])
    assert not accepts(apn, ["a"])
    assert not accepts(apn, ["b", "a"])
    assert not accepts(apn, [])
    assert not accepts(apn, ["a", "b", "b"])


def test_language_upto_simple():
    apn = hand_net()
    assert language_upto(apn, 3) == {("a", "b")}
    assert language_upto(apn, 1) == set()


def test_language_upto_n1():
    apn = tree_to_net(parse_tree(N1_TEXT))
    lang = language_upto(apn, 4)
    assert lang == {("A", "C"), ("B", "C"), ("B", "B", "C"),
                    ("B", "B", "B", "C")}


def test_replay_state_limit_guard():
    # Unbounded token growth: t produces into p without consuming.
    net = PetriNet(places={"p", "q"}, transitions={"t", "u"},
                   arcs={("q", "t"), ("t", "q"), ("t", "p"), ("p", "u")},
                   labels={"t": "a", "u": "b"})
    apn = AcceptingPetriNet(net=net, initial={"q": 1}, final={})
    with pytest.raises(SearchLimitError):
        language_upto(apn, 50, state_limit=30)


def test_multi_token_final_marking():
    net = PetriNet(places={"p", "q"}, transitions={"t"},
                   arcs={("p", "t"), ("t", "q")}, labels={"t": "a"})
    apn = AcceptingPetriNet(net=net, initial={"p": 2}, final={"q": 2})
    assert language_upto(apn, 3) == {("a", "a")}
    assert accepts(apn, ["a", "a"])
    assert not accepts(apn, ["a"])


# ------------------------------------------------------------------- PNML

def test_pnml_round_trip_tree_net(tmp_path):
    apn = tree_to_net(parse_tree("seq(a,xor(b,tau),loop(c,d))"))
    path = tmp_path / "net.pnml"
    save_pnml(apn, str(path))
    back = parse_pnml(str(path))
    assert back.net.places == apn.net.places
    assert back.net.transitions == apn.net.transitions
    assert back.net.arcs == apn.net.arcs
    assert back.net.labels == apn.net.labels
    assert back.initial == apn.initial
    assert back.final == apn.final


def test_pnml_round_trip_languages_agree(tmp_path):
    for text in ("seq(a,b)", "and(a,b,c)", N1_TEXT, "loop(a,b)"):
        apn = tree_to_net(parse_tree(text))
        back = parse_pnml(write_pnml(apn))
        assert language_upto(back, 4) == language_upto(apn, 4), text


def test_pnml_final_marking_reference_entries_are_not_places():
    # The final marking travels as <place idref=...> entries inside a
    # toolspecific block; those must not be read back as net places.
    apn = hand_net()
    back = parse_pnml(write_pnml(apn))
    assert back.net.places == {"p1", "p2", "p3"}
    assert back.final == {"p3": 1}


def test_pnml_is_deterministic():
    apn = tree_to_net(parse_tree("and(a,b)"))
    assert write_pnml(apn) == write_pnml(apn)


def test_pnml_transition_tags_round_trip(tmp_path):
    apn = hand_net()
    data = write_pnml(apn, transition_tags={"t1": "H:start"})
    assert b"H:start" in data
    back = parse_pnml(data)
    assert back.net.labels == {"t1": "a", "t2": "b"}


def test_write_pnml_golden_bytes():
    assert write_pnml(hand_net(), transition_tags={"t1": "pattern=H;role=start"}) == \
        b"""<?xml version='1.0' encoding='utf-8'?>
<pnml>
  <net id="net1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="page1">
      <place id="p1">
        <initialMarking>
          <text>1</text>
        </initialMarking>
      </place>
      <place id="p2" />
      <place id="p3" />
      <transition id="t1">
        <name>
          <text>a</text>
        </name>
        <toolspecific tool="loglift" version="0.1">
          <text>pattern=H;role=start</text>
        </toolspecific>
      </transition>
      <transition id="t2">
        <name>
          <text>b</text>
        </name>
      </transition>
      <arc id="arc0" source="p1" target="t1" />
      <arc id="arc1" source="p2" target="t2" />
      <arc id="arc2" source="t1" target="p2" />
      <arc id="arc3" source="t2" target="p3" />
    </page>
    <toolspecific tool="loglift" version="0.1">
      <finalMarking>
        <place idref="p3" tokens="1" />
      </finalMarking>
    </toolspecific>
  </net>
</pnml>"""


def test_parse_pnml_accepts_bytes_path_and_binary_file(tmp_path):
    data = write_pnml(hand_net())
    path = tmp_path / "net.pnml"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        nets = [parse_pnml(data), parse_pnml(str(path)), parse_pnml(fh)]
    for back in nets:
        assert back == hand_net()


def test_pnml_rejects_malformed_input(tmp_path):
    from loglift import LogFormatError
    with pytest.raises(LogFormatError, match="malformed PNML at line 2, column 7"):
        parse_pnml(b"<pnml>\n  <net>")
    with pytest.raises(LogFormatError):
        parse_pnml(b"<pnml><net><page><arc id='a1' source='x'/></page></net></pnml>")
    place = b"<place id='p'><initialMarking><text>%s</text></initialMarking></place>"
    trans = b"<transition id='t'/><arc id='a1' source='p' target='t'/>"
    with pytest.raises(LogFormatError, match="bad token count 'x' in the initial marking of 'p'"):
        parse_pnml(b"<pnml><net><page>" + place % b"x" + trans + b"</page></net></pnml>")
    with pytest.raises(LogFormatError, match="does not connect a place and a transition"):
        parse_pnml(b"<pnml><net><page>" + place % b"1" + b"<place id='q'/>"
                   b"<arc id='a1' source='p' target='q'/></page></net></pnml>")
    with pytest.raises(LogFormatError, match="bad token count 'y' in the final marking of 'p'"):
        parse_pnml(b"<pnml><net><page>" + place % b"1" + trans + b"</page>"
                   b"<toolspecific tool='loglift'><finalMarking>"
                   b"<place idref='p' tokens='y'/></finalMarking></toolspecific></net></pnml>")
    path = tmp_path / "bad.pnml"
    path.write_bytes(b"<pnml><net><page><place id='p'><initialMarking><text>x</text>"
                     b"</initialMarking></place></page></net></pnml>")
    with pytest.raises(LogFormatError, match=r"bad\.pnml: bad token count 'x'"):
        parse_pnml(str(path))
    with pytest.raises(LogFormatError, match=r"missing\.pnml"):
        parse_pnml(str(tmp_path / "missing.pnml"))
