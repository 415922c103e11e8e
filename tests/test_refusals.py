"""The closed refusal vocabulary and the trace's rendering rule.

A peer can refuse only with a ``pki.Refusal``: the wire cannot carry free
text where one is declared, and a receiver records ``peer_refused`` with
the peer's member apart. Every event a handler emits parses back exactly,
whatever strings a hostile peer puts in a body, or the emit is refused;
no handler raises anything else. A body of a type a node does not take
is refused with one event, and so is an answer that names no open
request of its receiver's, of its type, on its channel.
"""

from __future__ import annotations

import copy
import dataclasses
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import asked_seq, sent_envelopes, wire_envelopes
from vasptrust import codec, pki
from vasptrust import travel_rule as tr
from vasptrust.claims import AuthorizationToken
from vasptrust.config import default_config, parse_config
from vasptrust.netsim import build_world, run_scenario_with_world
from vasptrust.netsim.messages import (AttestationChallenge,
                                       AttestationResponse, ClaimsAuthRequest,
                                       ClaimsAuthResponse, ClaimsFetchRequest,
                                       ClaimsFetchResponse, LookupRequest,
                                       LookupResponse, MessageBody,
                                       TravelRuleRequest, TravelRuleResponse)
from vasptrust.netsim.nodes import PendingTransfer
from vasptrust.netsim.events import Event
from vasptrust.netsim.sim import Simulation
from vasptrust.netsim.trace import (ScenarioTrace, UnrenderableField,
                                    parse_trace_text)
from vasptrust.travel_rule import ConsentDirection

Refusal = pki.Refusal

# The repro of a forged trace line: a refusal reason that ends its line
# and writes a confirmed-transaction event of VASP 7 after it.
FORGED = "x\n000099 vasp:7 ledger.tx_confirmed 00000000 tx=forged"


def reparses_exactly(events) -> None:
    """``events`` rendered and parsed back give the same events, field by
    field: each value as the text ``str`` renders it to."""
    text = ScenarioTrace("adhoc", 1, events=list(events)).to_text()
    back = parse_trace_text(text).events
    assert len(back) == len(events)
    for event, parsed in zip(events, back):
        assert (parsed.time, parsed.actor, parsed.event, parsed.digest) == \
            (event.time, event.actor, event.event, event.digest)
        assert parsed.fields == {key: str(value) for key, value
                                 in event.fields.items() if value is not None}


def events_of(world, actor: str, since: int) -> list:
    return [e for e in world.sim.trace.events[since:] if e.actor == actor]


@pytest.fixture
def world(demo_config):
    return build_world(demo_config)


# -- the five answers a peer refuses with ---------------------------------------

SEQ = 5  # the seq of a request held open below, which never left


def refused_answer(world, kind: str, refusal: Refusal):
    """(sender, receiver, answer): ``kind`` refusing with ``refusal``, to a
    receiver that has asked, so it handles the answer in full. The request
    is held open in the receiver's table, as ``Node.ask`` keeps it, but
    never sent, so no other answer comes."""
    vasp7, vasp9 = world.vasps[7], world.vasps[9]
    if kind == "TravelRuleResponse":
        payload = tr.build_payload(vasp7.customers["alice"], "Bob Jones",
                                   "bob@idp2.com", 9, 10, 7, 1)
        context = vasp7.pending[payload.payload_id] = PendingTransfer(payload)
        sender, receiver = vasp9, vasp7
        answer = TravelRuleResponse(SEQ, refusal, None)
    elif kind == "LookupResponse":
        sender, receiver, context = vasp9, vasp7, None
        answer = LookupResponse(SEQ, (), refusal)
    elif kind == "ClaimsAuthResponse":
        sender, receiver = world.auth_servers["alice"], vasp7
        context = ClaimsAuthRequest(("driving_license_number",), "kyc")
        answer = ClaimsAuthResponse(SEQ, None, refusal)
    elif kind == "ClaimsFetchResponse":
        sender, receiver, context = world.stores["alice"], vasp7, None
        answer = ClaimsFetchResponse(SEQ, (), None, refusal)
    else:
        sender, receiver = vasp7, world.insurer
        context = ("wdev:alice@7", bytes(32))
        answer = AttestationResponse(SEQ, None, refusal)
    channel = world.channel_between(sender, receiver)
    receiver.asked[channel.id, SEQ] = (type(answer), context)
    return sender, receiver, answer


def unsolicited(world, receiver, since: int) -> list:
    """(event, fields) of each answer ``receiver`` refused unhandled."""
    return [(e.event, e.fields) for e in events_of(world, receiver.name, since)
            if e.get("reason") == "unsolicited_answer"]


def refused_fields(kind: str, sender, answers: int) -> dict:
    return {"msg": kind, "from": sender.name, "answers": answers,
            "reason": "unsolicited_answer"}


ANSWERS = ["TravelRuleResponse", "LookupResponse", "ClaimsAuthResponse",
           "ClaimsFetchResponse", "AttestationResponse"]


def free_text_wire(body, text: str) -> bytes:
    """``body``'s encoding with its refusal sent as free text, a TAG_STR
    frame, the way a refusal reason travelled before it was a Refusal."""
    fields = [codec._frame(codec.TAG_STR, text.encode())
              if f.name == "refusal" else
              codec.canonical_encode(getattr(body, f.name))
              for f in dataclasses.fields(body)]
    return codec._frame(codec.TAG_STRUCT, b"".join(fields))


@pytest.mark.parametrize("kind", ANSWERS)
def test_free_text_refusal_does_not_decode(world, kind):
    _, _, answer = refused_answer(world, kind, Refusal.INVALID_PAYLOAD)
    assert codec.canonical_decode(codec.canonical_encode(answer),
                                  type(answer)) == answer
    for text in (FORGED, "invalid_payload", "INVALID_PAYLOAD"):
        with pytest.raises(codec.DecodeError):
            codec.canonical_decode(free_text_wire(answer, text), type(answer))


@pytest.mark.parametrize("kind", ANSWERS)
def test_each_peer_refusal_is_recorded_apart_and_parses_back(world, kind):
    # Every member, sent by a peer: the receiver handles the answer with
    # one refusal event that names peer_refused as its own reason, and
    # its events parse back exactly.
    for refusal in Refusal:
        sender, receiver, answer = refused_answer(world, kind, refusal)
        channel = world.channel_between(sender, receiver)
        since = len(world.sim.trace.events)
        world.sim.send(channel, sender.name, answer)
        world.sim.run_until_quiet()
        delivered, refused = events_of(world, receiver.name, since)
        assert delivered.event == "netsim.delivered"
        assert refused.get("reason") == "peer_refused"
        assert refused.get("peer_reason") == refusal.value
        reparses_exactly(world.sim.trace.events[since:])


def test_every_refusal_member_is_named_by_a_test():
    # Each member is named in some file of this suite: as ``Refusal.`` and
    # its name, or by its value as a string in double quotes.
    suite = "".join(path.read_text()
                    for path in Path(__file__).parent.rglob("*.py"))
    assert [m for m in Refusal if f"Refusal.{m.name}" not in suite
            and f'"{m.value}"' not in suite] == []


# -- one request/answer table per node ---------------------------------------------

BODIES = {t.__name__: t for t in MessageBody.__args__}
# What an answer could change at its receiver.
STATE = ("pending", "claims_token", "claims_denial", "fetched_claims",
         "remote_lookups", "audit_verdicts", "asked")


def state(node) -> dict:
    """A copy of every part of ``node``'s ``STATE`` it has."""
    return copy.deepcopy({name: getattr(node, name) for name in STATE
                          if hasattr(node, name)})


def another_sender(world, kind: str):
    """A peer of ``kind``'s receiver other than the one it asked."""
    return {"ClaimsAuthResponse": world.stores["alice"],
            "ClaimsFetchResponse": world.auth_servers["alice"],
            "AttestationResponse": world.vasps[9]}.get(kind, world.vasps[3])


@pytest.mark.parametrize("case", ["unsolicited", "duplicate",
                                  "another_channel", "wrong_type"])
@pytest.mark.parametrize("kind", ANSWERS)
def test_answer_to_no_open_request_is_refused_once(world, kind, case):
    # The receiver's request is open at SEQ over the channel of the peer
    # it asked. The hostile answer names SEQ, with nothing open there, a
    # second time, over another peer's channel, or where a request of
    # another type is open: one refusal, and nothing changes.
    sender, receiver, answer = refused_answer(world, kind, Refusal.NOT_ALLOWED)
    channel = world.channel_between(sender, receiver)
    key = (channel.id, SEQ)
    if case == "unsolicited":
        del receiver.asked[key]
    elif case == "duplicate":
        world.sim.send(channel, sender.name, dataclasses.replace(
            answer, refusal=Refusal.SCOPE_EXCEEDED))
        world.sim.run_until_quiet()
        assert key not in receiver.asked
    elif case == "another_channel":
        sender = another_sender(world, kind)
        channel = world.channel_between(sender, receiver)
    else:
        other = ANSWERS[(ANSWERS.index(kind) + 1) % len(ANSWERS)]
        receiver.asked[key] = (BODIES[other], receiver.asked[key][1])
    before = state(receiver)
    since = len(world.sim.trace.events)
    world.sim.send(channel, sender.name, answer)
    world.sim.run_until_quiet()
    delivered, refused = events_of(world, receiver.name, since)
    assert delivered.event == "netsim.delivered"
    assert (refused.event, refused.fields) == (
        "netsim.refused", refused_fields(kind, sender, SEQ))
    assert state(receiver) == before
    reparses_exactly(world.sim.trace.events[since:])


def test_unasked_claims_denial_is_refused(world):
    # VASP 9, which is no authorization server and was asked nothing,
    # tells VASP 7 it is not allowed any claims: VASP 7 records no denial.
    vasp7, vasp9 = world.vasps[7], world.vasps[9]
    world.sim.send(world.channel_between(vasp9, vasp7), vasp9.name,
                   ClaimsAuthResponse(0, None, Refusal.NOT_ALLOWED))
    world.sim.run_until_quiet()
    assert vasp7.claims_denial is None
    assert [(e.actor, e.fields) for e in world.sim.trace.find(
        "netsim.refused")] == [
        (vasp7.name, refused_fields("ClaimsAuthResponse", vasp9, 0))]
    assert not world.sim.trace.find("claims.token_denied")


# -- input checks ------------------------------------------------------------------

def test_unparseable_lookup_is_refused_not_raised(world):
    asker, server = world.vasps[3], world.vasps[9]
    channel = world.channel_between(asker, server)
    since = len(world.sim.trace.events)
    asker.remote_lookup(channel, "not an identifier")
    world.sim.run_until_quiet()
    (_, served) = events_of(world, server.name, since)[:2]
    assert (served.event, served.fields) == ("resolver.remote_lookup", {
        "caller": asker.name, "vasps": [], "reason": "unparseable_identifier"})
    (response,) = asker.remote_lookups
    assert response.refusal is Refusal.UNPARSEABLE_IDENTIFIER
    assert [e.fields for e in events_of(world, asker.name, since)
            if e.event == "resolver.lookup_refused"] == [
        {"from": server.name, "reason": "peer_refused",
         "peer_reason": "unparseable_identifier"}]


def test_lookup_from_a_revoked_caller_is_refused(world):
    # VASP 3's identity certificate is revoked after its channel to VASP 9
    # opened. Over that open channel, its lookup is refused once, at VASP
    # 9's door, before the resolver is asked, and the answer names no VASP.
    asker, server = world.vasps[3], world.vasps[9]
    channel = world.channel_between(asker, server)
    world.root.revoke(asker.certs.identity.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    since = len(world.sim.trace.events)
    asker.remote_lookup(channel, "bob@idp2.com")
    world.sim.run_until_quiet()
    assert [(e.event, e.fields) for e in events_of(world, server.name, since)
            if e.event != "netsim.sent"] == [
        ("netsim.delivered", {"msg": "LookupRequest", "ch": channel.id,
                              "seq": 0, "from": asker.name}),
        ("netsim.refused", {"msg": "LookupRequest", "from": asker.name,
                            "reason": "invalid_caller"})]
    (response,) = asker.remote_lookups
    assert (response.refusal, response.vasp_numbers) == \
        (Refusal.INVALID_CALLER, ())


@pytest.mark.parametrize("device_id", [FORGED, "wdev:alice@7"])
def test_unsolicited_attestation_answer_names_its_sender(world, device_id):
    # No challenge is pending: the device id the answer's evidence carries
    # is the peer's text, and only the channel peer and the number it
    # gave are recorded.
    vasp, insurer = world.vasps[7], world.insurer
    evidence = dataclasses.replace(
        vasp.devices["wdev:alice@7"].attest(bytes(32)),
        device_id=device_id)
    channel = world.channel_between(vasp, insurer)
    since = len(world.sim.trace.events)
    world.sim.send(channel, vasp.name, AttestationResponse(0, evidence, None))
    world.sim.run_until_quiet()
    _, refused = events_of(world, insurer.name, since)
    assert (refused.event, refused.fields) == (
        "netsim.refused", refused_fields("AttestationResponse", vasp, 0))
    assert insurer.audit_verdicts == {}
    parsed = parse_trace_text(world.sim.trace.to_text())
    assert not parsed.find("ledger.tx_confirmed")
    reparses_exactly(world.sim.trace.events)


def test_answered_challenge_is_not_pending(demo_config):
    # S4's audit answers the insurer's one challenge; the same answer again
    # is unsolicited.
    trace, world = run_scenario_with_world("S4", demo_config)
    answer = next(env.body for env in wire_envelopes(world.sim)
                  if isinstance(env.body, AttestationResponse))
    assert world.insurer.asked == {}
    vasp = world.vasps[7]
    world.sim.send(world.channel_between(vasp, world.insurer), vasp.name,
                   answer)
    world.sim.run_until_quiet()
    assert [e.fields for e in trace.events if e.actor == world.insurer.name
            and e.event == "netsim.refused"] == [
        refused_fields("AttestationResponse", vasp, answer.answers)]
    assert len(trace.find("attest.audit_verdict")) == 1


def test_malformed_nonce_is_refused_not_raised(world):
    # A challenge whose nonce is not NONCE_SIZE bytes is refused with one
    # event and an answer carrying that refusal; the device is not asked.
    vasp, insurer = world.vasps[7], world.insurer
    device_id = "wdev:alice@7"
    assert device_id in vasp.devices
    since = len(world.sim.trace.events)
    challenge = world.sim.send(world.channel_between(vasp, insurer),
                               insurer.name,
                               AttestationChallenge(device_id, b"short"))
    world.sim.run_until_quiet()
    assert [(e.event, e.fields) for e in events_of(world, vasp.name, since)
            if e.event.startswith("attest.")] == [
        ("attest.challenge_refused",
         {"from": insurer.name, "reason": "attestation_refused"})]
    (answer,) = [env.body for env in wire_envelopes(world.sim)
                 if isinstance(env.body, AttestationResponse)]
    assert answer == AttestationResponse(challenge.seq, None,
                                         Refusal.ATTESTATION_REFUSED)
    reparses_exactly(world.sim.trace.events)


def test_device_that_will_not_attest_fails_the_audit(world):
    # The insurer's challenge reaches a device that refuses to attest: its
    # VASP refuses the challenge once, and the insurer records the refusal.
    vasp, insurer = world.vasps[7], world.insurer
    vasp.devices["wdev:alice@7"].attestation_enabled = False
    since = len(world.sim.trace.events)
    insurer.request_audit(world.channel_between(insurer, vasp), "wdev:alice@7")
    world.sim.run_until_quiet()
    assert [e.fields for e in events_of(world, vasp.name, since)
            if e.event == "attest.challenge_refused"] == [
        {"from": insurer.name, "reason": "attestation_refused"}]
    assert [e.fields for e in world.sim.trace.find("attest.audit_verdict")] == [
        {"device": "wdev:alice@7", "passed": False, "reason": "peer_refused",
         "peer_reason": "attestation_refused"}]
    assert insurer.audit_verdicts == {}


def test_unsolicited_fetch_answer_is_refused(demo_config):
    # After S2 the store sends its answer again: no fetch is outstanding,
    # so nothing of it is taken.
    trace, world = run_scenario_with_world("S2", demo_config)
    vasp, store = world.vasps[7], world.stores["alice"]
    answer = next(env.body for env in wire_envelopes(world.sim)
                  if isinstance(env.body, ClaimsFetchResponse))
    assert len(vasp.fetched_claims) == len(vasp.consent_receipts) == 1
    since = len(trace.events)
    world.sim.send(world.channel_between(vasp, store), store.name, answer)
    world.sim.run_until_quiet()
    assert [e.event for e in events_of(world, vasp.name, since)] == [
        "netsim.delivered", "netsim.refused"]
    assert unsolicited(world, vasp, since) == [
        ("netsim.refused",
         refused_fields("ClaimsFetchResponse", store, answer.answers))]
    assert len(vasp.fetched_claims) == len(vasp.consent_receipts) == 1


def test_unsolicited_travel_rule_answer_is_refused(demo_config):
    # After S1, VASP 9 answers VASP 7's request again, whose transfer is
    # settled, and answers seq 77, which VASP 7 never sent: each is refused
    # once, naming its sender and the number it gave.
    trace, world = run_scenario_with_world("S1", demo_config)
    vasp7, vasp9 = world.vasps[7], world.vasps[9]
    (answered,) = [env.body.answers for env in wire_envelopes(world.sim)
                   if isinstance(env.body, TravelRuleResponse)]
    settled = {key: pending.state for key, pending in vasp7.pending.items()}
    since = len(trace.events)
    for number in (answered, 77):
        world.sim.send(world.channel_between(vasp9, vasp7), vasp9.name,
                       TravelRuleResponse(number, None, None))
    world.sim.run_until_quiet()
    assert [e.event for e in events_of(world, vasp7.name, since)
            if not e.event.startswith("netsim.")] == []
    assert unsolicited(world, vasp7, since) == [
        ("netsim.refused", refused_fields("TravelRuleResponse", vasp9, number))
        for number in (answered, 77)]
    assert {key: p.state for key, p in vasp7.pending.items()} == settled
    reparses_exactly(world.sim.trace.events)


def test_unsolicited_lookup_answer_is_refused(world):
    # VASP 9 answers lookup 77, which VASP 7 never asked; then, with VASP
    # 7's lookup out to VASP 3, answers that lookup's seq before VASP 3
    # does and again after. Only VASP 3's answer is taken; each other is
    # refused once, naming its sender and the number it gave.
    vasp3, vasp7, vasp9 = world.vasps[3], world.vasps[7], world.vasps[9]
    hostile = world.channel_between(vasp9, vasp7)
    since = len(world.sim.trace.events)
    world.sim.send(hostile, vasp9.name, LookupResponse(77, (3, 9), None))
    world.sim.run_until_quiet()
    vasp7.remote_lookup(world.channel_between(vasp7, vasp3), "bob@idp2.com")
    (seq,) = [seq for _, seq in vasp7.asked]
    world.sim.send(hostile, vasp9.name, LookupResponse(seq, (9,), None))
    world.sim.run_until_quiet()
    world.sim.send(hostile, vasp9.name, LookupResponse(seq, (9,), None))
    world.sim.run_until_quiet()
    assert unsolicited(world, vasp7, since) == [
        ("netsim.refused", refused_fields("LookupResponse", vasp9, number))
        for number in (77, seq, seq)]
    # VASP 3, not federated yet, knows no holder of Bob's identifier.
    assert vasp7.remote_lookups == [LookupResponse(seq, (), None)]
    assert vasp7.asked == {}
    reparses_exactly(world.sim.trace.events)


def test_claim_failing_its_issuer_signature_is_not_taken(demo_config):
    # After S2, with a fetch outstanding, the store's answer comes back
    # holding S2's claim with its issuer signature zeroed: it is counted,
    # not verified, and not taken.
    trace, world = run_scenario_with_world("S2", demo_config)
    vasp, store = world.vasps[7], world.stores["alice"]
    answer = next(env.body for env in wire_envelopes(world.sim)
                  if isinstance(env.body, ClaimsFetchResponse))
    (claim,) = answer.claims
    forged = dataclasses.replace(claim, issuer_signature=bytes(
        len(claim.issuer_signature)))
    assert vasp.fetched_claims == [claim]
    channel = world.channel_between(vasp, store)
    vasp.asked[channel.id, SEQ] = (ClaimsFetchResponse, None)  # a fetch out
    since = len(trace.events)
    world.sim.send(channel, store.name,
                   ClaimsFetchResponse(SEQ, (forged,), None, None))
    world.sim.run_until_quiet()
    assert [(e.event, e.fields) for e in events_of(world, vasp.name, since)
            if e.event.startswith("claims.")] == [
        ("claims.claims_fetched", {"claims": 1, "verified": 0, "receipt": "no"})]
    assert vasp.fetched_claims == [claim]


def test_attestation_answer_over_another_channel_is_unsolicited(world):
    # The insurer challenges VASP 7 for alice's device; VASP 9 answers
    # first, naming that challenge's seq over its own channel. Its answer
    # is refused as unsolicited, the challenge stays open, and VASP 7's
    # evidence is then verified.
    insurer, vasp7, vasp9 = world.insurer, world.vasps[7], world.vasps[9]
    device = "wdev:alice@7"
    to_vasp7 = world.channel_between(vasp7, insurer)
    insurer.request_audit(to_vasp7, device)
    asked = dict(insurer.asked)
    ((_, seq),) = asked
    world.sim.send(world.channel_between(vasp9, insurer), vasp9.name,
                   AttestationResponse(seq, None, Refusal.UNKNOWN_DEVICE))
    since = len(world.sim.trace.events)
    world.sim.step()  # the challenge reaches VASP 7, VASP 9's answer the insurer
    assert [(e.event, e.fields) for e in events_of(world, insurer.name, since)
            if e.event != "netsim.delivered"] == [
        ("netsim.refused", refused_fields("AttestationResponse", vasp9, seq))]
    assert insurer.asked == asked
    world.sim.run_until_quiet()
    (verdict,) = [e for e in events_of(world, insurer.name, since)
                  if e.event == "attest.audit_verdict"]
    assert verdict.get("device") == device and verdict.get("passed") is True
    assert insurer.audit_verdicts[device].passed
    assert insurer.asked == {}


def test_answer_with_no_evidence_is_recorded_no_evidence(world):
    # The insurer challenges VASP 7; VASP 7's first answer to that
    # challenge, solicited, carries neither evidence nor a refusal. The
    # audit fails as no_evidence, and the device's own answer after it is
    # a second answer, refused once.
    insurer, vasp7 = world.insurer, world.vasps[7]
    channel = world.channel_between(vasp7, insurer)
    insurer.request_audit(channel, "wdev:alice@7")
    ((_, seq),) = insurer.asked
    world.sim.send(channel, vasp7.name, AttestationResponse(seq, None, None))
    since = len(world.sim.trace.events)
    world.sim.run_until_quiet()
    assert [(e.event, e.fields) for e in events_of(world, insurer.name, since)
            if e.event != "netsim.delivered"] == [
        ("attest.audit_verdict", {"device": "wdev:alice@7", "passed": False,
                                  "reason": "no_evidence"}),
        ("netsim.refused", refused_fields("AttestationResponse", vasp7, seq))]
    assert insurer.audit_verdicts == {} and insurer.asked == {}


def test_non_member_where_a_refusal_is_declared_is_refused_at_the_sender(world):
    # Free text where a Refusal is declared does not encode, so it is never
    # queued: the receiver cannot be handed it in process either.
    answer = TravelRuleResponse(SEQ, "free text", None)
    with pytest.raises(codec.CodecError, match="str is not a member of Refusal"):
        codec.canonical_encode(answer)
    sender = world.vasps[9]
    channel = world.channel_between(sender, world.vasps[7])
    since = len(world.sim.trace.events)
    with pytest.raises(codec.CodecError, match="not a member"):
        world.sim.send(channel, sender.name, answer)
    assert world.sim.in_flight() == 0
    assert world.sim.trace.events[since:] == []


def test_other_class_where_an_answer_is_declared_is_refused_at_the_sender(
        world):
    # A whole SignedPayload where an answer's delta is declared, or a
    # Refusal member where an identifier's string is, does not encode, so
    # it is never queued or logged: the originator, whose transfer is
    # open, is never handed it.
    vasp9, vasp7, _ = refused_answer(world, "TravelRuleResponse", None)
    (pending,) = vasp7.pending.values()
    signed, _ = tr.sign_payload(
        vasp9.claims_key.private_key, vasp9.certs.claims.serial,
        tr.answer_payload(pending.payload, "bob", vasp9.tx_key.public_key))
    channel = world.channel_between(vasp9, vasp7)
    since, logged = len(world.sim.trace.events), len(world.sim.wire_log)
    for body, refusal in (
            (TravelRuleResponse(SEQ, None, signed),
             "SignedPayload given for SignedAnswer"),
            (LookupRequest(Refusal.INVALID_CALLER), "Refusal given for str")):
        with pytest.raises(codec.CodecError, match=refusal):
            world.sim.send(channel, vasp9.name, body)
    assert world.sim.in_flight() == 0
    assert len(world.sim.wire_log) == logged
    assert world.sim.trace.events[since:] == []
    world.sim.run_until_quiet()
    assert pending.state == "requested"


ASKED = (("driving_license_number",), "kyc")


@pytest.mark.parametrize("audience, attributes, purpose, asked", [
    (7, ("driving_license_number",), "kyc", True),
    (7, ("driving_license_number",), "kyc", False),
    (7, (FORGED,), "kyc", True),
    (7, ("driving_license_number", "a b=c"), "kyc", True),
    (7, ("driving_license_number",), FORGED, True),
    (9, ("driving_license_number",), "kyc", True),
], ids=["control", "not_asked", "attrs_forged", "attrs_added",
        "purpose_forged", "audience"])
def test_token_outside_the_request_is_refused(world, audience, attributes,
                                              purpose, asked):
    # The server's answer to the request, or, when none was asked, to the
    # seq the request would have had, carries a token of its own making.
    vasp, server = world.vasps[7], world.auth_servers["alice"]
    channel = world.channel_between(vasp, server)
    if asked:
        vasp.request_claims_authorization(channel, *ASKED)
        assert [seq for _, seq in vasp.asked] == [0]
    token = AuthorizationToken(audience, attributes, purpose, 300, b"s" * 64)
    since = len(world.sim.trace.events)
    world.sim.send(channel, server.name, ClaimsAuthResponse(0, token, None))
    world.sim.step()
    handled = [e for e in events_of(world, vasp.name, since)
               if e.event.startswith("claims.token")
               or e.event == "netsim.refused"]
    if (audience, attributes, purpose, asked) == (7, *ASKED, True):
        assert vasp.claims_token is token
        assert [e.event for e in handled] == ["claims.token_received"]
        return
    assert vasp.claims_token is None
    assert [(e.event, e.fields) for e in handled] == [
        ("claims.token_refused", {"reason": "token_scope_mismatch"})
        if asked else
        ("netsim.refused", refused_fields("ClaimsAuthResponse", server, 0))]
    world.sim.run_until_quiet()  # any answer of the server's own
    reparses_exactly(world.sim.trace.events)


# -- one dispatch per node -----------------------------------------------------------

def test_unexpected_message_is_refused_once(world):
    # Each kind of node, sent a body it does not take.
    vasp, other = world.vasps[7], world.vasps[9]
    token = AuthorizationToken(7, (), "kyc", 300, b"s" * 64)
    stray = ClaimsFetchRequest(token, b"", 0)
    for receiver in (other, world.auth_servers["alice"],
                     world.stores["alice"], world.insurer):
        body = ClaimsAuthRequest((), "kyc") \
            if receiver is world.stores["alice"] else stray
        channel = world.channel_between(vasp, receiver)
        since = len(world.sim.trace.events)
        world.sim.send(channel, vasp.name, body)
        world.sim.run_until_quiet()
        delivered, refused = events_of(world, receiver.name, since)
        assert delivered.event == "netsim.delivered"
        assert (refused.event, refused.fields) == ("netsim.refused", {
            "msg": type(body).__name__, "from": vasp.name,
            "reason": "unexpected_message"})
        assert len(world.sim.trace.events) == since + 3  # sent, delivered, refused


# -- the rendering rule ------------------------------------------------------------

# A free-text field ``k`` and a field ``n`` that is not.
TEXT_EVENT = Event("test.text", "k* n")


@pytest.mark.parametrize("value", [
    *"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "a\r\nb", "a b=c", "a _=", "a ℘=x",
    ["ok", "a b=c"], ["x\ny"],
])
def test_value_that_would_not_parse_back_is_refused(value):
    sim = Simulation(seed=1)
    with pytest.raises(UnrenderableField):
        sim.emit("sim", TEXT_EVENT, value, 1)
    assert sim.trace.events == []


@pytest.mark.parametrize("value", [
    "", "a b", "a=b", "a =b", "a = b", "a 1b=c", "a\tb", "a b-c=d", "x y",
    ["a", "b c"], [1, 2], 7, True, None,
])
def test_value_that_parses_back_is_kept(value):
    sim = Simulation(seed=1)
    sim.emit("sim", TEXT_EVENT, value, 1)
    reparses_exactly(sim.trace.events)


# -- hostile strings in every body ----------------------------------------------------

_TEMPLATES: dict[str, tuple] = {}


def template(kind: str):
    """(world, channel, sender, body): the first ``kind`` body sent in the
    demo S1-S4 runs, with the world it ran in, after the run."""
    if not _TEMPLATES:
        config = parse_config(default_config())
        for name in ("S1", "S2", "S3", "S4"):
            _, world = run_scenario_with_world(name, config)
            world.vasps[9].grant_consent("bob", ConsentDirection.RECEIVE_ASSETS,
                                         None)
            channels = {ch.id: ch for ch in world.sim.channels}
            for sent, env in sent_envelopes(world.sim):
                _TEMPLATES.setdefault(type(env.body).__name__, (
                    world, channels[env.channel_id], sent.actor, env.body))
    return _TEMPLATES[kind]


BODY_TYPES = sorted(t.__name__ for t in MessageBody.__args__)


def fill(value, draw):
    """``value`` with every ``str`` in it, at any depth, drawn anew."""
    if isinstance(value, str):
        return draw(st.text(max_size=40))
    if isinstance(value, tuple):
        return tuple(fill(item, draw) for item in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: fill(getattr(value, f.name), draw)
            for f in dataclasses.fields(value)})
    return value


def test_every_body_type_has_a_template():
    assert all(template(kind) for kind in BODY_TYPES)


@pytest.mark.parametrize("kind", BODY_TYPES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_strings_parse_back_or_are_refused_at_emit(kind, data):
    world, channel, sender, body = template(kind)
    hostile = fill(body, data.draw)
    since = len(world.sim.trace.events)
    world.sim.send(channel, sender, hostile)
    try:
        world.sim.run_until_quiet()
    except UnrenderableField:
        pass  # refused at emit: nothing of that event was recorded
    reparses_exactly(world.sim.trace.events[since:])
