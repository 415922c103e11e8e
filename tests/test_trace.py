"""Trace format: field rendering, field matching and the text round trip."""

from __future__ import annotations

import pytest

from vasptrust import crypto
from conftest import scenario_trace
from vasptrust.netsim import Simulation, build_world
from vasptrust.netsim.trace import ScenarioTrace, TraceEvent, parse_trace_text
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
    assert halt.fields == (("identifier", "dave@idp2.com"),
                           ("reason", "multiple_vasps"), ("count", "2"),
                           ("vasps", "[3, 9]"))


def test_find_matches_on_field_equality():
    trace = ScenarioTrace("adhoc", 1, events=[
        TraceEvent(1, "vasp:7", "resolver.lookup", "00",
                   (("identifier", "bob@idp2.com"), ("vasps", [9]), ("count", 1))),
        TraceEvent(2, "vasp:7", "resolver.lookup", "00",
                   (("identifier", "dave@idp2.com"), ("vasps", [3, 9]), ("count", 2))),
        TraceEvent(3, "vasp:9", "resolver.adv_merged", "00", (("count", 1),)),
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
    event = TraceEvent(5, "vasp:9", "resolver.identifier_registered", "ab",
                       (("customer", "dave"), ("identifier", "dave@idp2.com"),
                        ("validated_by", None)))
    assert event.line() == ("000005 vasp:9 resolver.identifier_registered ab "
                            "customer=dave identifier=dave@idp2.com")
    assert event.get("validated_by") is None
    assert TraceEvent(5, "sim", "x", "ab", (("a", None),)).line() == "000005 sim x ab"


def test_digest_without_payload_covers_the_rendered_fields():
    sim = Simulation(seed=1)
    event = sim.emit("vasp:7", "travel_rule.consent_recorded", {
        "vasp": 7, "direction": "ReceiveAssets", "counterparty": None})
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
