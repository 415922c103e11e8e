"""Trace format: field rendering, field matching and the text round trip."""

from __future__ import annotations

import copy
import gc
import pickle
import tracemalloc

import pytest

from vasptrust import codec, crypto
from conftest import scenario_trace
from vasptrust.netsim import Simulation, build_world, events
from vasptrust.netsim.events import Event
from vasptrust.netsim.messages import LookupRequest
from vasptrust.netsim.trace import (Assertion, ScenarioTrace, TraceEvent,
                                    UnrenderableField, parse_trace_text)
from vasptrust.travel_rule import ConsentDirection


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
def test_parse_then_render_gives_the_same_text(demo_config, name):
    text = scenario_trace(name, demo_config).to_text()
    assert parse_trace_text(text).to_text() == text


def test_values_with_spaces_parse_as_one_field(demo_config):
    # org='ACME Digital Assets Ltd' and vasps=[3, 9] hold spaces.
    text = scenario_trace("S5", demo_config).to_text()
    parsed = parse_trace_text(text)
    assert parsed.find("pki.cert_issued", kind="identity", vasp="7",
                       org="'ACME Digital Assets Ltd'")
    halt = parsed.find("travel_rule.transfer_halted")[0]
    assert tuple(halt.fields.items()) == (
        ("identifier", "dave@idp2.com"), ("reason", "multiple_vasps"),
        ("count", "2"), ("vasps", "[3, 9]"))


def event_of(time: int, actor: str, name: str, digest: str,
             fields: dict) -> TraceEvent:
    """The event of one line, built from its fields as a parsed one is."""
    return TraceEvent((time, actor, name, digest, tuple(fields), *fields.values()))


def test_find_matches_on_field_equality():
    trace = ScenarioTrace("adhoc", 1, events=[
        event_of(1, "vasp:7", "resolver.lookup", "00",
                 {"identifier": "bob@idp2.com", "vasps": [9], "count": 1}),
        event_of(2, "vasp:7", "resolver.lookup", "00",
                 {"identifier": "dave@idp2.com", "vasps": [3, 9], "count": 2}),
        event_of(3, "vasp:9", "resolver.adv_merged", "00", {"count": 1}),
    ])
    first, second, _ = trace.events
    assert trace.find("resolver.lookup") == [first, second]
    assert trace.find("resolver.lookup", count=1) == [first]
    assert trace.find("resolver.lookup", vasps=[3, 9], count=2) == [second]
    # A value that does not match.
    assert trace.find("resolver.lookup", count=3) == []
    assert trace.find("resolver.lookup", vasps=[3, 9], count=1) == []
    # A key the events lack.
    assert trace.find("resolver.lookup", outcome="Applied") == []


def test_none_field_is_left_out():
    event = event_of(5, "vasp:9", "resolver.identifier_registered", "ab",
                     {"customer": "dave", "identifier": "dave@idp2.com",
                      "validated_by": None})
    assert event.line() == ("000005 vasp:9 resolver.identifier_registered ab "
                            "customer=dave identifier=dave@idp2.com")
    assert event.get("validated_by") is None
    assert event_of(5, "sim", "x", "ab", {"a": None}).line() == "000005 sim x ab"


def test_digest_without_payload_covers_the_rendered_fields():
    sim = Simulation(seed=1)
    event = sim.emit("vasp:7", events.CONSENT_RECORDED, 7, "ReceiveAssets",
                     None)
    rendered = "vasp=7 direction=ReceiveAssets"
    assert event.line().endswith(f" {rendered}")
    assert event.digest == crypto.digest(rendered.encode("utf-8"))[:8].hex()


@pytest.mark.parametrize("counterparty, scope", [(None, None), (0, "vasp:0"),
                                                 (7, "vasp:7")])
def test_consent_scope_in_trace(demo_config, counterparty, scope):
    # VASP number 0 is a valid scope; only an unscoped consent has none.
    world = build_world(demo_config)
    world.vasps[9].grant_consent("bob", ConsentDirection.RECEIVE_ASSETS,
                                 counterparty)
    recorded = world.sim.trace.find("travel_rule.consent_recorded")
    assert [e.get("counterparty") for e in recorded] == [scope]


# -- emitting without rendering --------------------------------------------------

def old_line(time, actor, event, pairs, payload=None) -> str:
    """An event line as emit rendered and hashed it when the event was made."""
    text = " ".join(f"{k}={v}" for k, v in pairs if v is not None)
    content = (codec.canonical_encode(payload) if payload is not None
               else text.encode("utf-8"))
    digest = crypto.digest(content)[:8].hex()
    return f"{time:06d} {actor} {event} {digest}" + (f" {text}" if text else "")


def counting_digest(monkeypatch) -> list[int]:
    calls = [0]
    digest = crypto.digest

    def counted(data: bytes) -> bytes:
        calls[0] += 1
        return digest(data)

    monkeypatch.setattr(crypto, "digest", counted)
    return calls


# Events declared for these tests only.
X = Event("x", "a")
X2 = Event("x", "a b")


def test_field_only_events_hash_once_when_rendered(monkeypatch):
    # Emitting hashes nothing; each rendering derives every field-only
    # digest once and keeps none of them.
    sim = Simulation(seed=1)
    calls = counting_digest(monkeypatch)
    for i in range(1000):
        sim.emit("sim", X2, i, None)
    assert calls == [0]
    text = sim.trace.to_text()
    assert calls == [1000]
    assert sim.trace.to_text() == text
    assert calls == [2000]


EMITTED = [
    ("vasp:7", Event("a", "n vasps org* ok"), (7, [3, 9], "'ACME Ltd'", True)),
    ("vasp:9", Event("b", "counterparty direction"), (None, "ReceiveAssets")),
    ("sim", Event("c", "only"), (None,)),
    ("sim", Event("d"), ()),
]


def test_events_equal_their_old_definitions():
    sim = Simulation(seed=1)
    sim.now = 42
    emitted = [sim.emit(actor, event, *values)
               for actor, event, values in EMITTED]
    body = LookupRequest("bob@idp2.com")
    sent = sim.emit("vasp:7", Event("s", "msg seq"), "LookupRequest", 3,
                    payload=body)
    for ev, (actor, event, values) in zip(emitted, EMITTED):
        pairs = tuple(zip(event.keys, values))
        assert tuple(ev.fields.items()) == tuple(
            (key, value) for key, value in pairs if value is not None)
        assert ev.line() == old_line(42, actor, event.name, pairs)
        assert ev.digest == old_line(42, actor, event.name, pairs).split()[3]
        for key, value in pairs:
            assert ev.get(key) == value
        assert ev.get("absent") is None
    assert emitted[1].get("counterparty") is None
    assert sent.digest == crypto.digest(codec.canonical_encode(body))[:8].hex()
    assert sent.line() == old_line(
        42, "vasp:7", "s", (("msg", "LookupRequest"), ("seq", 3)), body)


def test_digest_read_before_the_line_is_the_same():
    sim = Simulation(seed=1)
    first = sim.emit("sim", X, 1)
    second = sim.emit("sim", X, 1)
    assert first.digest == second.line().split()[3]
    assert first.line() == second.line()


def test_value_repeating_its_own_key_refused_at_emit():
    # Rendered, "a note=b" would read back as two note fields: emit refuses
    # it and records nothing, and a line that repeats a key is not parsed.
    sim = Simulation(seed=1)
    with pytest.raises(UnrenderableField):
        sim.emit("sim", Event("x", "note* n"), "a note=b", 1)
    assert sim.trace.events == []
    with pytest.raises(ValueError, match="repeated"):
        parse_trace_text("# scenario=x seed=1\n000001 sim x 00 note=a note=b\n")


def test_emitted_events_keep_one_small_tuple_each():
    # Three fields of shared values: the event tuple and its list slot.
    delivered = Event("test.delivered", "msg ch from*")
    sim = Simulation(seed=1)
    count = 10_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            sim.emit("vasp:9", delivered, "TravelRuleRequest", i % 45, "vasp:7")
        gc.collect()
        emitted = tracemalloc.get_traced_memory()[0] - before
        assert len(sim.trace.to_text()) > 0
        gc.collect()
        rendered = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert emitted <= 128 * count
    assert rendered <= 128 * count
    first, second = sim.trace.events[:2]
    assert first[4] is second[4] is delivered.keys == ("msg", "ch", "from")


def test_emitted_fields_read_back_as_given():
    sim = Simulation(seed=1)
    x = Event("x", "b a c")
    first = sim.emit("vasp:7", x, 2, None, [3, 9])
    second = sim.emit("vasp:7", x, 3, None, "s")
    sim.emit("vasp:9", Event("y"))
    assert list(first.fields.items()) == [("b", 2), ("c", [3, 9])]
    assert (first.get("a"), first.get("absent"), first.get("c")) == \
        (None, None, [3, 9])
    assert (first.time, first.actor, first.event) == (0, "vasp:7", "x")
    trace = sim.trace
    assert trace.find("x") == [first, second]
    assert trace.find("x", a=None) == [first, second]
    assert trace.find("x", b=3) == [second]
    assert trace.find("x", c=[3, 9], b=2) == [first]
    assert trace.find("x", absent=1) == trace.find("z") == []


def test_events_compare_by_value_without_hashing(monkeypatch):
    # Events are tuples and compare as tuples do. No code hashes an event
    # (none is kept in a set or as a dict key), and comparing two
    # field-only events derives neither digest.
    sim = Simulation(seed=1)
    calls = counting_digest(monkeypatch)
    first = sim.emit("sim", X2, 1, [2])
    same = sim.emit("sim", X2, 1, [2])
    other = sim.emit("sim", X2, 1, [3])
    assert first == same and first is not same
    assert first != other
    assert sim.trace.events.index(same) == 0
    assert calls == [0]
    assert first.line() == same.line() != other.line()
    assert copy.deepcopy(sim.trace) == sim.trace
    assert pickle.loads(pickle.dumps(other)) == other


def delivered_events(count: int) -> list[TraceEvent]:
    """``count`` events shaped like a transfer's netsim.delivered lines."""
    return [event_of(i, "vasp:9", "netsim.delivered", f"{i:016x}",
                     {"msg": "TravelRuleRequest", "ch": 3, "seq": i,
                      "from": "vasp:7"})
            for i in range(count)]


def one_join_text(trace: ScenarioTrace) -> str:
    """The trace text as one join over a list of every line: the
    reference the chunked rendering must equal byte for byte."""
    return "\n".join([f"# scenario={trace.scenario} seed={trace.seed}",
                      *(e.line() for e in trace.events),
                      *(a.line() for a in trace.assertions),
                      f"# result={'PASS' if trace.passed else 'FAIL'}"]) + "\n"


@pytest.mark.parametrize("assertions", [
    (), (Assertion("first", True), Assertion("second", False, "a note"))],
    ids=["no_assertions", "assertions"])
@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
def test_chunked_text_equals_one_join(count, assertions):
    trace = ScenarioTrace("adhoc", 3, events=delivered_events(count),
                          assertions=list(assertions))
    assert trace.to_text() == one_join_text(trace)


def test_rendering_holds_about_twice_the_text():
    # The chunks and the joined result, not one string per line besides.
    trace = ScenarioTrace("adhoc", 1, events=delivered_events(5000))
    tracemalloc.start()
    try:
        text = trace.to_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * len(text)
