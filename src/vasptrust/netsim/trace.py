"""Deterministic scenario traces: ordered events plus terminal assertions.

This module is the one place that turns trace events into text and back.
A trace renders to line-oriented text:

    # scenario=<name> seed=<seed>
    <time:06d> <actor> <event> <digest>[ <fields>]     one line per event
    assert <name> PASS|FAIL[ <note>]                   one line per assertion
    # result=PASS|FAIL

An event is one tuple, ``(time, actor, event, digest, keys, *values)``,
with its field names as the tuple ``keys`` and their values after it.
``Simulation.emit`` builds it from an ``events`` declaration, whose one
``keys`` tuple its events share, and the values given in its order; a
parsed event keeps its own. ``fields`` builds the ordered dict of what
the line shows when read. Fields render as ``key=value`` (the value as
``str`` gives it), joined by single spaces; a None value is left out, and
is treated as absent by ``TraceEvent.get`` and ``ScenarioTrace.find``.
The digest is the first 8 bytes, in hex, of the SHA-256 of the event's
payload encoding, computed and stored at emit, or, for a field-only event
(stored digest None), of its rendered fields in UTF-8, derived at each
rendering: emitting one hashes nothing and ``to_text`` hashes it once. So
the same (scenario, config, seed) always produces byte-identical output.
Events compare by value, as tuples, without deriving a digest; no code
hashes one (none is kept in a set or as a dict key).

``to_text`` renders the events in chunks of ``RENDER_CHUNK`` lines, each
joined into one string, and joins the chunks: it never holds a list of
every line, so rendering a trace takes about twice its text at most, the
chunks and the result, not the text again as one string per line.

One rendering rule keeps every line one event and every field one field:
a ``str`` value, or a ``str`` item of a list value, may hold neither a
character ``str.splitlines`` breaks on nor a space followed by
``identifier=``. ``Simulation.emit`` calls ``check_field`` on each field
declared free text, the only ones that can break it, so an event that
breaks it is never recorded: the emitter gets ``UnrenderableField``. A
list renders through ``repr``, which escapes line breaks but not
`` key=``, hence the check on its items. So parsing is exact:
``parse_trace_text`` gives back every field with its rendered value as a
``str``, ``str(value)`` of what was emitted, and refuses a line that
names a key twice. ``check_actor`` keeps spaces and line breaks out of
actor names where they enter the simulator, as the config reader does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .. import crypto


# Event lines rendered and joined at a time by ScenarioTrace.to_text.
RENDER_CHUNK = 512


class UnrenderableField(ValueError):
    """A field value whose rendering would not parse back as itself."""


def _breaks_line(text: str) -> bool:
    """Whether ``text`` as a rendered value would end its line or start
    another field: the rendering rule of the module docstring."""
    if not text.isprintable() and "".join(text.splitlines()) != text:
        return True
    return "=" in text and any(
        sep and key.isidentifier()
        for key, sep, _ in (token.partition("=")
                            for token in text.split(" ")[1:]))


def check_actor(name: str) -> None:
    """Raise UnrenderableField if ``name`` holds a space or a line break."""
    if " " in name or "".join(name.splitlines()) != name:
        raise UnrenderableField(f"actor {name!r} would not parse back as one")


def check_field(key: str, value) -> None:
    """Raise UnrenderableField if ``value``, a ``str`` or a list, breaks the
    rendering rule."""
    kind = type(value)
    if (kind is str and _breaks_line(value)) or (kind is list and any(
            type(item) is str and _breaks_line(item) for item in value)):
        raise UnrenderableField(f"field {key}={value!r} would not "
                                "parse back as one field")


class TraceEvent(tuple):
    """One event line: ``(time, actor, event, digest, keys, *values)``,
    with ``digest`` None for a field-only event."""

    __slots__ = ()

    time = property(itemgetter(0))
    actor = property(itemgetter(1))
    event = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"TraceEvent({self.line()!r})"

    @property
    def fields(self) -> dict:
        """The fields the line shows, in order: None values left out."""
        return {key: value for key, value in zip(self[4], self[5:])
                if value is not None}

    @property
    def digest(self) -> str:
        return self.line().split(" ", 4)[3] if self[3] is None else self[3]

    def get(self, key: str):
        """The value of field ``key``; None when the event lacks it."""
        keys = self[4]
        return self[5 + keys.index(key)] if key in keys else None

    def line(self) -> str:
        time, actor, event, digest, keys, *values = self
        text = " ".join([f"{key}={value}" for key, value in zip(keys, values)
                         if value is not None])
        if digest is None:
            digest = crypto.digest(text.encode("utf-8"))[:8].hex()
        detail = f" {text}" if text else ""
        return f"{time:06d} {actor} {event} {digest}{detail}"


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" {self.note}" if self.note else ""
        return f"assert {self.name} {status}{note}"


@dataclass
class ScenarioTrace:
    scenario: str
    seed: int
    events: list[TraceEvent] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.assertions) and all(a.passed for a in self.assertions)

    def find(self, event: str, /, **fields) -> list[TraceEvent]:
        """Events named ``event`` whose fields equal every given one."""
        return [e for e in self.events if e.event == event
                and all(e.get(k) == v for k, v in fields.items())]

    def to_text(self) -> str:
        events = self.events
        chunks = [f"# scenario={self.scenario} seed={self.seed}\n"]
        chunks.extend(_joined_lines(events[start:start + RENDER_CHUNK])
                      for start in range(0, len(events), RENDER_CHUNK))
        chunks.append(_joined_lines(self.assertions))
        chunks.append(f"# result={'PASS' if self.passed else 'FAIL'}\n")
        return "".join(chunks)


def _joined_lines(items: list) -> str:
    """The lines of ``items``, each ended by a line break, as one string."""
    lines = [item.line() for item in items]
    lines.append("")
    return "\n".join(lines)


def _parse_fields(text: str) -> dict[str, str]:
    """Split rendered fields at each space followed by ``key=``; any other
    space belongs to the value before it. A key named twice is refused."""
    fields: dict[str, str] = {}
    key = None
    for token in text.split(" "):
        name, eq, value = token.partition("=")
        if eq and name.isidentifier():
            if name in fields:
                raise ValueError(f"trace field {name!r} repeated: {text!r}")
            key = name
            fields[key] = value
        elif key is not None:
            fields[key] += " " + token
        else:
            raise ValueError(f"trace fields must start with key=value: {text!r}")
    return fields


def parse_trace_text(text: str) -> ScenarioTrace:
    """Rebuild a trace from its text form (used by report generation).
    Raises ValueError for empty text, a bad header line, an event line
    with fewer than four columns or a repeated field key, or an assertion
    line with fewer than three."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header[1:] if "=" in part)
    if header[0] != "#" or "scenario" not in fields or "seed" not in fields:
        raise ValueError(f"bad trace header: {lines[0]!r}")
    trace = ScenarioTrace(scenario=fields["scenario"], seed=int(fields["seed"]))
    for ln in lines[1:]:
        if ln.startswith("# result="):
            continue
        if ln.startswith("assert "):
            parts = ln.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"bad trace assertion line: {ln!r}")
            trace.assertions.append(Assertion(
                name=parts[1], passed=parts[2] == "PASS",
                note=parts[3] if len(parts) > 3 else ""))
        else:
            parts = ln.split(" ", 4)
            if len(parts) < 4:
                raise ValueError(f"bad trace event line: {ln!r}")
            fields = _parse_fields(parts[4]) if len(parts) > 4 else {}
            trace.events.append(TraceEvent((int(parts[0]), *parts[1:4],
                                            tuple(fields), *fields.values())))
    return trace
