"""The declared event schema: each event named once, emitted positionally."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from vasptrust.netsim import Simulation, events
from vasptrust.netsim.events import Event

SCHEMA = Path(events.__file__)
SRC = SCHEMA.parents[1]
DECLARED = [value for value in vars(events).values() if isinstance(value, Event)]


def test_each_event_shape_is_declared_once():
    # An event written in several shapes declares each under its one name.
    shapes = [(event.name, event.keys) for event in DECLARED]
    assert len(shapes) == len(set(shapes))
    assert len({event.name for event in DECLARED}) == 46
    for event in DECLARED:
        assert len(event.keys) == len(set(event.keys))


def test_no_event_name_literal_outside_the_schema():
    # Every emitter, and every reader in src/, names an event by its
    # declaration: no string literal anywhere else equals an event's name.
    names = {event.name for event in DECLARED}
    found = [(str(path.relative_to(SRC)), node.lineno, node.value)
             for path in sorted(SRC.rglob("*.py")) if path != SCHEMA
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in names]
    assert found == []


@pytest.mark.parametrize("event, values", [
    ("netsim.sent", ("LookupRequest", 1, 0, None)),
    (events.SENT, ("LookupRequest", 1, 0)),
    (events.SENT, ("LookupRequest", 1, 0, None, None)),
], ids=["undeclared", "too_few", "too_many"])
def test_undeclared_event_or_wrong_value_count_raises(event, values):
    sim = Simulation(seed=1)
    with pytest.raises(TypeError):
        sim.emit("vasp:7", event, *values)
    assert sim.trace.events == []

