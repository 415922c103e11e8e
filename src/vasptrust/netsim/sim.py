"""Discrete-event core: actors, authenticated channels, reliable delivery.

Time is an integer tick counter. A channel opens only once each endpoint
validates the other's identity certificate through its own ``trust`` and
proves possession of its certified key by signing a fresh challenge. Each
channel direction is a FIFO pipe with loss, made reliable by Go-Back-N
retransmission: a tick delivers a direction's queue up to its first
dropped message, which goes again, with all after it, next tick. So
handlers observe every message exactly once and in order, as over TLS on
TCP. A frame is its body alone, encoded as its member of
``messages.MessageBody``: its member index, then its struct. Its sender is
the channel's other endpoint and its seq the count of messages sent
before it in its direction, which both endpoints keep, so neither is a
wire field, as a TLS record names no connection and carries its sequence
number implicitly (RFC 8446 §5.1, §5.3). A sender that holds the bytes
of a body's fields hands ``send`` the frame it builds from them
(``codec.member_bytes``), so nothing is encoded twice; else ``send``
encodes the body. Either way the receiver gets the body object. Every
send is logged to the trace and to a wire log holding the frame; its
``netsim.sent`` digest is that of the frame, and its event names the
channel and seq. An answer names its request's seq on the same channel
(``Node.handle``), and so does its ``netsim.sent`` event (``answers``):
the trace pairs them too.

Every trace event is declared once in ``events``, and ``emit`` takes an
event's values in its declared order: the one path into the trace.

An actor is a name with the handler its deliveries go to; a name that
only emits trace events (``sim``, ``ledger``) is not registered, and
one the trace cannot hold as an actor is refused. The world owns its
actors; the simulator only refers to them. A handler or tick hook that
is a bound method is kept as a weak reference to its object plus the
function itself, so nothing the simulator holds points back at the
world, and a dropped world is freed at once by reference counting.
Delivering to an actor whose object was freed raises ``NetsimError``.
"""

from __future__ import annotations

import inspect
import random
import weakref
from dataclasses import dataclass, field

from .. import codec, crypto, pki
from ..pki import Refusal
from .messages import MessageBody
from . import events
from .trace import ScenarioTrace, TraceEvent, check_actor, check_field


class NetsimError(Exception):
    pass


class PeerCertInvalid(NetsimError):
    def __init__(self, peer: str, verdict: pki.Verdict | None, note: str = ""):
        super().__init__(f"peer {peer}: {verdict.value if verdict else note}")
        self.verdict = verdict


class ChannelClosed(NetsimError):
    pass


@dataclass(frozen=True)
class PossessionProof:
    """An endpoint's signature, with its certified key, over a challenge."""

    nonce: bytes
    signature: bytes


@dataclass
class _Direction:
    queue: list[tuple[int, MessageBody]] = field(default_factory=list)  # seq, body
    next_seq: int = 0


class SecureChannel:
    """Mutually authenticated, reliable, ordered message pipe."""

    def __init__(self, channel_id: int, a: str, b: str,
                 peer_certs: tuple[pki.EvIdentityCertificate,
                                   pki.EvIdentityCertificate]):
        self.id = channel_id
        self.a = a
        self.b = b
        self.peer_certs = peer_certs
        self.open = True
        self._dirs = {a: _Direction(), b: _Direction()}  # keyed by sender

    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise NetsimError(f"{name} is not an endpoint of channel {self.id}")

    def peer_cert(self, name: str) -> pki.EvIdentityCertificate:
        """The identity certificate the endpoint ``name`` opened this
        channel with, validated when the channel was established."""
        return self.peer_certs[0 if name == self.a else 1]

    def close(self) -> None:
        self.open = False


@dataclass
class FaultConfig:
    """Transport faults: each message sent is lost with ``drop_rate`` and
    retransmitted (Go-Back-N), so delivery stays exactly-once and in order;
    ``partitioned`` refuses every channel."""

    drop_rate: float = 0.0
    partitioned: bool = False


def _referred(callback, what: str):
    """``callback`` without a strong reference to its object, if it is a
    bound method: the function stays held as it was looked up, so a method
    swapped on the class later does not change it. Calling it once its
    object is freed raises NetsimError naming ``what``."""
    if not inspect.ismethod(callback):
        return callback
    ref, func = weakref.ref(callback.__self__), callback.__func__

    def call(*args):
        owner = ref()
        if owner is None:
            raise NetsimError(
                f"the object of {what} ({func.__qualname__}) was freed")
        return func(owner, *args)
    return call


class Simulation:
    """Single logical event loop owning channels and the trace; it refers
    to its actors' handlers and tick hooks without keeping them alive."""

    def __init__(self, seed: int, scenario: str = "adhoc",
                 faults: FaultConfig | None = None):
        self.seed = seed
        self.now = 0
        self.faults = faults or FaultConfig()
        self.rng = random.Random(
            int.from_bytes(crypto.derive_seed(crypto.seed_from_int(seed), "netsim"),
                           "big"))
        self.trace = ScenarioTrace(scenario=scenario, seed=seed)
        self.channels: list[SecureChannel] = []
        self.wire_log: list[tuple[str, bytes]] = []
        # Every direction holding a queued message, keyed by (channel id,
        # endpoint index): the only ones with work to do.
        self._busy: dict[tuple[int, int], tuple[SecureChannel, str]] = {}
        self._handlers: dict[str, object] = {}
        self._tick_hooks: list[object] = []

    # -- actors and trace -----------------------------------------------------

    def register_actor(self, name: str, handler) -> None:
        check_actor(name)
        if name in self._handlers:
            raise NetsimError(f"duplicate actor id {name!r}")
        self._handlers[name] = _referred(handler, f"actor {name!r}")

    def emit(self, actor: str, event: events.Event, *values, payload=None,
             digest: bytes | None = None) -> TraceEvent:
        """Append ``event`` with one value per declared field, in order, as
        one tuple (see ``trace``). Its digest is ``digest``, the SHA-256 of
        a value's canonical encoding that the caller already has, else that
        of ``payload``'s encoding, computed now, else one of the rendered
        fields, derived at each rendering. An undeclared event or a wrong
        number of values raises TypeError, and a free-text value that
        breaks the trace's rendering rule UnrenderableField; either records
        nothing."""
        if type(event) is not events.Event:
            raise TypeError(f"{event!r} is not a declared trace event")
        if len(values) != len(event.keys):
            raise TypeError(f"{event.name} takes {len(event.keys)} values, "
                            f"one per field, not {len(values)}")
        for i in event.text:
            check_field(event.keys[i], values[i])
        if payload is not None:
            digest = crypto.digest(codec.canonical_encode(payload))
        ev = tuple.__new__(TraceEvent, (
            self.now, actor, event.name, digest and digest[:8].hex(),
            event.keys, *values))
        self.trace.events.append(ev)
        return ev

    def nonce(self) -> bytes:
        return self.rng.getrandbits(256).to_bytes(32, "big")

    def add_tick_hook(self, hook) -> None:
        self._tick_hooks.append(_referred(hook, "a tick hook"))

    # -- channels ---------------------------------------------------------------

    def establish_channel(self, a, b) -> SecureChannel:
        """Mutual authentication: each endpoint's certificate must validate
        through the other endpoint's ``trust``, and both peers must prove
        possession of their certified keys."""
        if self.faults.partitioned:
            self.emit("sim", events.CHANNEL_PARTITIONED, a.name, b.name,
                      Refusal.PARTITIONED.value)
            raise PeerCertInvalid(b.name, None, "network partitioned")
        for us, peer in ((a, b), (b, a)):
            verdict = us.trust.validate(peer.identity_cert)
            if verdict is not pki.Verdict.VALID:
                self.emit(us.name, events.PEER_CERT_INVALID, peer.name,
                          verdict.value)
                raise PeerCertInvalid(peer.name, verdict)
            challenge = self.nonce()
            proof = PossessionProof(challenge, peer.prove_possession(challenge))
            if not crypto.verify(peer.identity_cert.subject_public_key,
                                 *codec.unseal(proof)):
                self.emit(us.name, events.PEER_PROOF_FAILED, peer.name,
                          Refusal.POSSESSION_PROOF_FAILED.value)
                raise PeerCertInvalid(peer.name, None, "possession proof failed")
        channel = SecureChannel(
            channel_id=len(self.channels) + 1,
            a=a.name, b=b.name,
            peer_certs=(a.identity_cert, b.identity_cert))
        self.channels.append(channel)
        self.emit("sim", events.CHANNEL_ESTABLISHED, channel.id, a.name, b.name)
        return channel

    def send(self, channel: SecureChannel, sender: str, body: MessageBody,
             frame: bytes | None = None) -> int:
        """Queue ``body`` on ``sender``'s direction of ``channel``; return
        its seq there. ``frame`` is the body's canonical frame, where the
        sender built it from bytes it holds; else the body is encoded."""
        if not channel.open:
            raise ChannelClosed(f"channel {channel.id} is closed")
        direction = channel._dirs[sender]
        seq = direction.next_seq
        # Framed before it is queued, so a body the codec refuses is never
        # sent; the sent event's digest is that of these bytes.
        wire = codec.canonical_encode(body, MessageBody) if frame is None else frame
        direction.next_seq += 1
        direction.queue.append((seq, body))
        self._busy[channel.id, channel.endpoints().index(sender)] = (channel, sender)
        self.wire_log.append((type(body).__name__, wire))
        self.emit(sender, events.SENT, type(body).__name__, channel.id, seq,
                  getattr(body, "answers", None), digest=crypto.digest(wire))
        return seq

    # -- event loop ---------------------------------------------------------------

    def step(self) -> int:
        """Advance one tick; deliver in-flight messages, handing each
        recipient's handler its channel, seq and body."""
        self.now += 1
        deliveries: list[tuple[SecureChannel, str, str, int, MessageBody]] = []
        drop_rate = self.faults.drop_rate
        # Channel id order, then endpoint a before b, as a walk over every
        # direction would go, so deliveries and drop draws keep its order.
        for key in sorted(self._busy):
            channel, sender = self._busy[key]
            queue = channel._dirs[sender].queue
            recipient = channel.other(sender)
            sent = len(queue)
            if drop_rate:
                # Go-Back-N: the first dropped message and every one after
                # it stay queued, to be sent again next tick.
                sent = 0
                while sent < len(queue) and self.rng.random() >= drop_rate:
                    sent += 1
            deliveries.extend((channel, sender, recipient, seq, body)
                              for seq, body in queue[:sent])
            del queue[:sent]
            if not queue:
                del self._busy[key]
        for channel, sender, recipient, seq, body in deliveries:
            self.emit(recipient, events.DELIVERED, type(body).__name__,
                      channel.id, seq, sender)
            self._handlers[recipient](channel, seq, body)
        for hook in self._tick_hooks:
            hook(self.now)
        return len(deliveries)

    def in_flight(self) -> int:
        return sum(len(ch._dirs[s].queue) for ch, s in self._busy.values())

    def run_until_quiet(self, max_steps: int = 1000) -> None:
        for _ in range(max_steps):
            self.step()
            if self.in_flight() == 0:
                return
        raise NetsimError(f"messages still in flight after {max_steps} steps")
