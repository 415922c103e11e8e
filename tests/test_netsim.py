"""Channels, reliable delivery under faults, and simulation plumbing."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from pathlib import Path

import pytest

from conftest import (make_subject, seed, sent_envelopes, trust_context,
                      wire_envelopes)
from test_scenarios import line_config, transfer, transfer_world
from vasptrust import cli, codec, config, crypto, pki, resolver
from vasptrust.config import default_config, parse_config
from vasptrust.netsim import (ChannelClosed, FaultConfig, PeerCertInvalid,
                              Simulation, build_world)
from vasptrust.netsim.messages import LookupRequest
from vasptrust.netsim.nodes import Node
from vasptrust.netsim.scenarios import (converge_federation,
                                        run_scenario_with_world)
from vasptrust.netsim.sim import Envelope, NetsimError
from vasptrust.resolver import CustomerIdentifier, parse_identifier


class Recorder(Node):
    """Channel endpoint that records every delivered body in order."""

    def __init__(self, sim, name, identity_cert, identity_key, trust):
        super().__init__(sim, name, identity_cert, identity_key, trust)
        self.received = []

    def handle(self, channel, envelope):
        self.received.append(envelope.body)


class DishonestNode(Node):
    """Presents a certificate whose key it does not actually hold."""

    def prove_possession(self, challenge: bytes) -> bytes:
        wrong = crypto.generate_keypair(crypto.digest(b"wrong-key" + challenge))
        return crypto.sign(wrong.private_key, challenge)


def make_pair(sim, root, node_cls_b=Recorder):
    nodes = []
    for i, cls in enumerate((Recorder, node_cls_b)):
        key = crypto.generate_keypair(seed(f"node{i}:{cls.__name__}"))
        cert = root.issue_identity_cert(make_subject(500 + i), key.public_key,
                                        0, 10_000)
        node = cls(sim, f"rec:{i}", cert, key, trust_context(root))
        sim.register_actor(node.name, node.handle)
        nodes.append(node)
    return nodes


def test_channel_between_valid_members(root):
    sim = Simulation(seed=1)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    assert channel.endpoints() == (a.name, b.name)
    assert channel.peer_certs == (a.identity_cert, b.identity_cert)


def test_revoked_peer_refused(root):
    sim = Simulation(seed=2)
    a, b = make_pair(sim, root)
    root.revoke(b.identity_cert.serial, pki.RevocationReason.KEY_COMPROMISE, 1)
    with pytest.raises(PeerCertInvalid) as err:
        sim.establish_channel(a, b)
    assert err.value.verdict is pki.Verdict.REVOKED


def test_possession_proof_failure_refused(root, tmp_path, capsys):
    sim = Simulation(seed=3)
    a, b = make_pair(sim, root, node_cls_b=DishonestNode)
    with pytest.raises(PeerCertInvalid):
        sim.establish_channel(a, b)
    (refused,) = sim.trace.find("netsim.channel_refused")
    # A pki.Refusal member, so a reason=, never a verdict=: vtn report
    # counts it.
    assert refused.get("reason") == pki.Refusal.POSSESSION_PROOF_FAILED.value
    assert refused.get("verdict") is None
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "adhoc.trace").write_text(sim.trace.to_text())
    assert cli.main(["report", "--workspace", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(
        "\nrefusals:\nPossessionProofFailed 1\n")


def test_partition_fails_establishment(root):
    sim = Simulation(seed=4, faults=FaultConfig(partitioned=True))
    a, b = make_pair(sim, root)
    with pytest.raises(PeerCertInvalid):
        sim.establish_channel(a, b)
    (refused,) = sim.trace.find("netsim.channel_refused")
    assert refused.get("reason") == pki.Refusal.PARTITIONED.value


def test_send_then_step_delivers_once(root):
    sim = Simulation(seed=5)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    sim.send(channel, a.name, LookupRequest("x@y.com"))
    sim.run_until_quiet()
    assert b.received == [LookupRequest("x@y.com")]


def test_closed_channel_refuses_sends(root):
    sim = Simulation(seed=6)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    channel.close()
    with pytest.raises(ChannelClosed):
        sim.send(channel, a.name, LookupRequest("x@y.com"))


@pytest.mark.parametrize("faults", [
    FaultConfig(),
    FaultConfig(drop_rate=0.3),
])
def test_exactly_once_in_order_delivery(root, faults):
    sim = Simulation(seed=7, faults=faults)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    count = 1000
    for i in range(count):
        sim.send(channel, a.name, LookupRequest(f"{i}@perm.check"))
    sim.run_until_quiet(max_steps=5000)
    assert [m.identifier for m in b.received] == [
        f"{i}@perm.check" for i in range(count)]


def test_bidirectional_sequences_independent(root):
    sim = Simulation(seed=8)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    sim.send(channel, a.name, LookupRequest("a@b.c"))
    sim.send(channel, b.name, LookupRequest("d@e.f"))
    sim.run_until_quiet()
    assert a.received == [LookupRequest("d@e.f")]
    assert b.received == [LookupRequest("a@b.c")]


def test_every_wire_message_bound_to_channel(root):
    sim = Simulation(seed=9)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    for i in range(5):
        sim.send(channel, a.name, LookupRequest("x@y.z"))
    sim.run_until_quiet()
    envelopes = wire_envelopes(sim)
    assert len(envelopes) == 5
    assert all(env.channel_id == channel.id for env in envelopes)


def test_trace_is_deterministic():
    def run():
        root = pki.create_consortium_root(seed("det-root"))
        sim = Simulation(seed=11, faults=FaultConfig(drop_rate=0.2))
        a, b = make_pair(sim, root)
        channel = sim.establish_channel(a, b)
        for i in range(30):
            sim.send(channel, a.name, LookupRequest(f"{i}@u.v"))
        sim.run_until_quiet()
        return sim.trace.to_text()

    assert run() == run()


class Echo(Recorder):
    """Recorder that echoes each first-hand request on the same channel,
    marked ``re:``, so handlers send while a tick is being delivered."""

    def handle(self, channel, envelope):
        super().handle(channel, envelope)
        identifier = envelope.body.identifier
        if not identifier.startswith("re:"):
            self.sim.send(channel, self.name, LookupRequest("re:" + identifier))


def brute_in_flight(sim) -> int:
    """Queued envelopes over every channel direction."""
    return sum(len(ch._dirs[s].queue)
               for ch in sim.channels for s in ch.endpoints())


# SHA-256 of the trace text of the faulty four-node run below. It pins the
# delivery order and the drop draws: a busy-set step must deliver and draw
# as a step over every channel direction, in channel id order and endpoint
# a before b, would.
FAULTY_MESH_TRACE_SHA256 = (
    "a1f775f416d8a1ec6add7a6e4c170949b783865d79b413063a1ad1f97ed8b5a7")


def test_in_flight_tracks_busy_directions_under_faults():
    root = pki.create_consortium_root(seed("mesh-root"))
    sim = Simulation(seed=13, faults=FaultConfig(drop_rate=0.2))
    nodes = []
    for i in range(4):
        key = crypto.generate_keypair(seed(f"mesh:{i}"))
        cert = root.issue_identity_cert(make_subject(600 + i), key.public_key,
                                        0, 10_000)
        node = Echo(sim, f"mesh:{i}", cert, key, trust_context(root))
        sim.register_actor(node.name, node.handle)
        nodes.append(node)
    channels = [sim.establish_channel(nodes[a], nodes[b])
                for a, b in ((0, 1), (1, 2), (0, 2), (2, 3))]
    seq = 0
    for tick in range(30):
        for ch in channels[tick % 2::2]:
            sender = ch.endpoints()[(tick // 2) % 2]
            for _ in range(1 + tick % 3):
                sim.send(ch, sender, LookupRequest(f"n{seq}@mesh.test"))
                seq += 1
        sim.step()
        assert sim.in_flight() == brute_in_flight(sim)
    while sim.in_flight():
        sim.step()
        assert sim.in_flight() == brute_in_flight(sim)
    assert brute_in_flight(sim) == 0
    sent = [f"n{i}@mesh.test" for i in range(seq)]
    assert sorted(m.identifier for n in nodes for m in n.received) == \
        sorted(sent + ["re:" + identifier for identifier in sent])
    # Each direction delivers its seqs once each, in order.
    seqs: dict[tuple, list[int]] = {}
    for e in sim.trace.find("netsim.delivered"):
        seqs.setdefault((e.get("ch"), e.get("from")), []).append(e.get("seq"))
    assert all(s == list(range(len(s))) for s in seqs.values())
    digest = hashlib.sha256(sim.trace.to_text().encode()).hexdigest()
    assert digest == FAULTY_MESH_TRACE_SHA256


def test_duplicate_actor_ids_rejected(root):
    sim = Simulation(seed=12)

    def handler(channel, envelope):
        pass

    sim.register_actor("x", handler)
    with pytest.raises(Exception):
        sim.register_actor("x", handler)


@pytest.fixture
def returned_envelopes(monkeypatch) -> list[tuple[str, Envelope]]:
    """(sender, envelope) of every envelope ``Simulation.send`` returns:
    the sender's own objects, kept apart from the wire log."""
    sent = []
    send = Simulation.send

    def recording_send(self, channel, sender, body):
        env = send(self, channel, sender, body)
        sent.append((sender, env))
        return env

    monkeypatch.setattr(Simulation, "send", recording_send)
    return sent


@pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4", "S5"])
def test_wire_log_and_sent_digests_are_canonical(demo_config, scenario,
                                                 returned_envelopes):
    # send encodes each envelope once: the wire log holds what encoding
    # anew gives, and the sent event's digest is that of those bytes.
    # The envelope names no sender: the sent event's actor is the one send
    # was called with. An answer's event names the seq it answers; any
    # other's holds None there, which the rendered line and ``fields``
    # leave out.
    _, world = run_scenario_with_world(scenario, demo_config)
    sim = world.sim
    sent = {(env.channel_id, sender, env.seq): env
            for sender, env in returned_envelopes}
    logged = sent_envelopes(sim)
    assert len(sim.wire_log) == len(logged) == len(sent) > 0
    for (kind, blob), (event, wire_env) in zip(sim.wire_log, logged):
        env = sent[(wire_env.channel_id, event.actor, wire_env.seq)]
        assert blob == codec.canonical_encode(env)
        assert kind == type(env.body).__name__
        answers = getattr(env.body, "answers", None)
        assert tuple(event.fields.items()) == (
            ("msg", kind), ("ch", env.channel_id), ("seq", env.seq),
            *((("answers", answers),) if answers is not None else ()))
        assert event.get("answers") == answers
        assert event.digest == crypto.digest(blob)[:8].hex()


# ---------------------------------------------------------------------------
# The world owns its actors; the simulator only refers to them
# ---------------------------------------------------------------------------

def test_delivery_to_a_freed_actor_names_it(root):
    sim = Simulation(seed=14)
    a, b = make_pair(sim, root)
    channel = sim.establish_channel(a, b)
    sim.send(channel, a.name, LookupRequest("x@mesh.test"))
    del b  # its handler was the only other reference
    with pytest.raises(NetsimError, match="actor 'rec:1'"):
        sim.step()


def test_plain_function_handler_and_tick_hook_are_kept(root):
    sim = Simulation(seed=15)
    a = make_pair(sim, root)[0]
    key = crypto.generate_keypair(seed("plain-function-actor"))
    plain = Node(sim, "plain", root.issue_identity_cert(
        make_subject(510), key.public_key, 0, 10_000), key,
        trust_context(root))
    delivered, ticks = [], []

    def handler(channel, envelope):
        delivered.append(envelope.body)

    def hook(now):
        ticks.append(now)

    sim.register_actor(plain.name, handler)
    sim.add_tick_hook(hook)
    del handler, hook
    gc.collect()
    channel = sim.establish_channel(a, plain)
    body = LookupRequest("x@mesh.test")
    sim.send(channel, a.name, body)
    sim.step()
    assert delivered == [body] and ticks == [1]


@pytest.fixture
def no_gc():
    """The cyclic collector off for the test: whatever a dropped world
    leaves behind stays until the test's own gc.collect()."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("scenario, overrides", [
    ("S1", None), ("S2", None), ("S3", None), ("S4", None), ("S5", None),
    ("S2", {"withdraw_before_fetch": True})])
def test_dropped_scenario_world_is_freed(demo_config, no_gc, scenario,
                                         overrides):
    trace, world = run_scenario_with_world(scenario, demo_config, overrides)
    assert trace.assertions
    del trace, world
    assert gc.collect() == 0


def test_dropped_federation_world_is_freed(no_gc):
    world = build_world(line_config(6, ring=True, chord=2))
    assert converge_federation(world) > 0
    del world
    assert gc.collect() == 0


def test_dropped_transfer_world_is_freed(demo_config, no_gc):
    world = transfer_world(demo_config)
    for i in range(1, 51):
        transfer(world, i)
        if i % 5 == 0:
            world.confirm_block()
            assert len(world.vasps[7].correlate_pending()) == 5
    assert world.ledger.height == 10
    del world
    assert gc.collect() == 0


def test_cli_run_leaves_no_cyclic_garbage(tmp_path, no_gc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(default_config()))
    workspace = str(tmp_path / "ws")
    assert cli.main(["init", "--config", str(config),
                     "--workspace", workspace]) == 0
    gc.collect()
    assert cli.main(["run", "--scenario", "S4", "--workspace", workspace]) == 0
    assert gc.collect() == 0


# -- the frame carries only what the channel does not say ----------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FRAME = ("channel_id", "seq", "body")


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workloads module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


@pytest.fixture(scope="module")
def federation_unit(workloads):
    """The world of a seed-1 ``federation`` benchmark unit, converged."""
    world = workloads.federation_setup(1)
    converge_federation(world, max_rounds=len(world.vasps))
    return world


@pytest.mark.parametrize("run", ["S1", "S2", "S3", "S4", "S5", "federation"])
def test_every_envelope_is_channel_seq_and_body(demo_config, run, request):
    # On the wire an envelope is one struct of three frames: the channel
    # id, the sequence number and the tagged body; no sender, no send tick.
    world = request.getfixturevalue("federation_unit") if run == "federation" \
        else run_scenario_with_world(run, demo_config)[1]
    assert tuple(f.name for f in dataclasses.fields(Envelope)) == FRAME
    assert len(wire_envelopes(world.sim)) == len(world.sim.wire_log) > 0
    for _, blob in world.sim.wire_log:
        reader = codec._Reader(blob)
        tag, payload = reader.take_frame()
        assert tag == codec.TAG_STRUCT and reader.done()
        inner, tags = codec._Reader(payload), []
        while not inner.done():
            tags.append(inner.take_frame()[0])
        assert tags == [codec.TAG_UINT, codec.TAG_UINT, codec.TAG_UNION]


@pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4", "S5"])
def test_every_sender_named_is_the_channels_other_endpoint(demo_config,
                                                           scenario):
    # A delivery's from, and each from or caller its handler then names,
    # is the other endpoint of the channel the message came in on.
    _, world = run_scenario_with_world(scenario, demo_config)
    channels = {ch.id: ch for ch in world.sim.channels}
    delivered, named = None, 0
    for event in world.sim.trace.events:
        if event.event == "netsim.delivered":
            delivered = event
        for key in ("from", "caller"):
            if event.get(key) is not None:
                assert delivered is not None and delivered.actor == event.actor
                assert event.get(key) == \
                    channels[delivered.get("ch")].other(event.actor)
                named += 1
    # Every delivery names its sender; S2's token grant and S3's remote
    # lookup name their caller as well.
    assert named == len(world.sim.trace.find("netsim.delivered")) \
        + (scenario in ("S2", "S3")) > 1


# -- set-up parses and checks each customer identifier once --------------------

def counted(calls: list, function):
    """``function``, appending the arguments of each call to ``calls``."""
    def call(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)
    return call


def test_setup_parses_and_checks_each_customer_identifier_once(workloads,
                                                               monkeypatch):
    # A federation unit's set-up, parse_config and then build_world, parses
    # each customer identifier once, in parse_config, and validates its
    # domain once, when the CustomerIdentifier is made: build_world
    # registers the values parse_config made and checks none again.
    parses, made, domains = [], [], []
    monkeypatch.setattr(config, "parse_identifier",
                        counted(parses, parse_identifier))
    monkeypatch.setattr(CustomerIdentifier, "__init__",
                        counted(made, CustomerIdentifier.__init__))
    monkeypatch.setattr(resolver, "_valid_domain",
                        counted(domains, resolver._valid_domain))
    world = workloads.federation_setup(1)
    identifiers = [s for vcfg in world.config.vasps
                   for ccfg in vcfg.customers for s in ccfg.identifiers]
    assert len(identifiers) == workloads.FEDERATION_VASPS \
        * workloads.FEDERATION_CUSTOMERS == 125
    assert len(parses) == len(made) == len(domains) == len(identifiers)
    assert sum(len(node.resolver.local_identifiers())
               for node in world.vasps.values()) == len(identifiers)


def test_default_config_is_admitted_once_and_built_without_parsing(monkeypatch):
    # parse_config makes one CustomerIdentifier per customer identifier (8)
    # and per IdP directory entry (3); build_world registers the values
    # parse_config admitted and makes none.
    made = []
    monkeypatch.setattr(CustomerIdentifier, "__init__",
                        counted(made, CustomerIdentifier.__init__))
    parsed = parse_config(default_config())
    assert len(made) == 11
    build_world(parsed)
    assert len(made) == 11


def test_configured_identifiers_render_as_written(workloads):
    # Each identifier of the demo config and of a perfbench topology is
    # written canonically, so it renders as written; a bare key gains its
    # "key:" prefix.
    configs = [parse_config(default_config()),
               parse_config(workloads.generate_topology(25, 5, 1))]
    written = [s for c in configs for vcfg in c.vasps
               for ccfg in vcfg.customers for s in ccfg.identifiers]
    assert len(written) == 8 + 125
    for s in written:
        assert parse_identifier(s).render() == \
            (s if "$" in s or "@" in s else f"key:{s}")
