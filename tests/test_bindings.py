"""Hostile members against the trust bindings, on the demo world.

Each test plays one consortium member (or relays one member's message)
breaking one binding the trust model relies on: no originator data leaves
before the originator consents, a signed payload comes from the VASP it
names, is addressed to the VASP that receives it, is answered only by
the VASP asked and only with that request's own answer, a claims token is
usable only by its audience, a revoked or expired member neither resolves
nor gets served, a revoked transaction key is never paid, and a VASP that
may not sign refuses rather than raises or sends.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import asked_seq, carried, sealed_fetch, sent_frames, wire_frames
from vasptrust import claims, codec, crypto, pki
from vasptrust import travel_rule as tr
from vasptrust.ledger import LedgerTx
from vasptrust.netsim import build_world, messages, run_scenario_with_world
from vasptrust.netsim.messages import (ClaimsAuthRequest, ClaimsFetchRequest,
                                       TravelRuleRequest, TravelRuleResponse)
from vasptrust.netsim import scenarios
from vasptrust.netsim.scenarios import converge_federation, flood_round
from vasptrust.resolver import (IdentifierAdvertisement, MergeOutcome,
                                parse_identifier)
from vasptrust.travel_rule import ConsentDirection


@pytest.fixture
def world(demo_config):
    world = build_world(demo_config)
    # Bob at VASP 9 accepts assets from anyone, and Alice at VASP 7 lets
    # her data go anywhere: only the binding under test can refuse.
    world.vasps[9].grant_consent("bob", ConsentDirection.RECEIVE_ASSETS, None)
    world.vasps[7].grant_consent(
        "alice", ConsentDirection.SEND_INFO_TO_COUNTERPARTY, None)
    return world


def signed_by(world, signer: int, originator: int, beneficiary: int,
              amount: int = 10, name: str = "Bob Jones",
              account: str = "bob@idp2.com") -> tr.SignedPayload:
    """A payload from Alice to ``name`` at ``account`` (Bob's), naming the
    given VASPs, signed with VASP ``signer``'s own valid claims key."""
    node = world.vasps[signer]
    payload = tr.build_payload(world.vasps[7].customers["alice"], name,
                               account, beneficiary, amount, originator, 1)
    return tr.sign_payload(node.claims_key.private_key,
                           node.certs.claims.serial, payload)[0]


def send(world, sender: int, receiver: int, body) -> None:
    a, b = world.vasps[sender], world.vasps[receiver]
    world.sim.send(world.channel_between(a, b), a.name, body)


def refusals(world, vasp: int, event: str = "travel_rule.transfer_refused"
             ) -> list[str]:
    return [e.get("reason") for e in world.sim.trace.find(event)
            if e.actor == world.vasps[vasp].name]


def unsolicited(world, vasp: int) -> list[str]:
    """The reasons of the answers VASP ``vasp`` refused before handling."""
    return refusals(world, vasp, "netsim.refused")


def accepted_responses(world, sender: int) -> list:
    return [frame.body for sent, frame in sent_frames(world.sim)
            if sent.actor == world.vasps[sender].name
            and isinstance(frame.body, TravelRuleResponse)
            and frame.body.refusal is None]


# -- no originator data leaves before the originator consents ---------------

def strings_in(value, trust) -> set[str]:
    """Every string inside a decoded wire value. Advertisements carry
    Alice's identifiers by design, grouped under their domain; each is
    taken whole (``alice$acmepay.com``, its domain read in ``trust``), not
    as its local part, so her account name is found only where her data
    is."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, IdentifierAdvertisement):
        return set(carried(value, trust))
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    elif not isinstance(value, (tuple, list, set, frozenset)):
        return set()
    return set().union(*(strings_in(v, trust) for v in value))


@pytest.mark.parametrize("consent", [True, False])
def test_no_originator_data_on_the_wire_without_consent(demo_config, consent):
    # With consent the walk finds Alice's data in the request, so finding
    # none of it without consent is not a blind walk.
    trace, world = run_scenario_with_world(
        "S1", demo_config, {"grant_originator_consent": consent})
    alice = world.vasps[7].customers["alice"]
    originator = {alice.legal_name, alice.customer_id,
                  alice.geographic_address}
    frames = wire_frames(world.sim)
    requests = [f for f in frames if isinstance(f.body, TravelRuleRequest)]
    on_wire = set().union(*(strings_in(f.body, world.trust) for f in frames))
    if consent:
        assert len(requests) == 1 and originator <= on_wire
        return
    assert requests == []
    assert originator.isdisjoint(on_wire)
    assert not any(alice.legal_name.encode() in blob
                   or alice.geographic_address.encode() in blob
                   for _, blob in world.sim.wire_log)
    (refused,) = trace.find("travel_rule.transfer_refused")
    assert (refused.actor, refused.get("reason")) == \
        ("vasp:7", "originator_consent_missing")
    assert world.vasps[7].pending == {} and world.vasps[7].payload_store == []
    assert not trace.passed


# -- a signed payload comes from the VASP it names ----------------------------

def test_honest_request_passes_the_bindings(world):
    # Control for the tests below: the same set-up, honestly signed and
    # addressed, is accepted.
    send(world, 7, 9, TravelRuleRequest(signed_by(world, 7, 7, 9)))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == []
    assert len(accepted_responses(world, 9)) == 1
    assert [d for d, _ in world.vasps[9].payload_store] == ["inbound", "outbound"]


def test_payload_signed_by_another_vasp_than_its_originator_refused(world):
    # VASP 3 signs, with its own valid claims key, a payload that names
    # VASP 7 as its originator.
    send(world, 3, 9, TravelRuleRequest(signed_by(world, 3, 7, 9)))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == ["invalid_payload"]
    assert accepted_responses(world, 9) == []


@pytest.mark.parametrize("sender, signer, originator, beneficiary, reason", [
    (3, 3, 7, 9, "invalid_payload"),
    (7, 7, 7, 3, "misaddressed_payload"),
    (7, 3, 3, 9, "misaddressed_payload"),
])
def test_refused_payload_is_not_stored(world, sender, signer, originator,
                                       beneficiary, reason):
    # The hostile payloads of this file: VASP 9 refuses each, and keeps
    # nothing of it for the payload dump.
    send(world, sender, 9, TravelRuleRequest(
        signed_by(world, signer, originator, beneficiary)))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == [reason]
    assert world.vasps[9].payload_store == []


# -- a payload is addressed to the VASP that receives it ----------------------

def test_payload_for_another_beneficiary_vasp_refused(world):
    send(world, 7, 9, TravelRuleRequest(signed_by(world, 7, 7, 3)))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == ["misaddressed_payload"]
    assert accepted_responses(world, 9) == []


@pytest.mark.parametrize("name, account, reason", [
    ("Bob Jones", "not an identifier", "unparseable_beneficiary"),
    ("Bob Jones", "nobody@idp2.com", "beneficiary_unknown"),
    ("Bob Jonas", "bob@idp2.com", "beneficiary_name_mismatch"),
], ids=["unparseable", "unknown", "name_mismatch"])
def test_beneficiary_vasp_refuses_a_beneficiary_it_cannot_name(
        world, name, account, reason):
    # VASP 7's own payload to VASP 9, validly signed and addressed, names
    # an account that does not parse, one no customer of VASP 9 holds, or
    # Bob's account under another name: VASP 9 refuses it, answers that
    # refusal once, raises nothing, and keeps nothing of the payload.
    send(world, 7, 9, TravelRuleRequest(
        signed_by(world, 7, 7, 9, name=name, account=account)))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == [reason]
    assert [frame.body.refusal.value for sent, frame in sent_frames(world.sim)
            if sent.actor == world.vasps[9].name] == [reason]
    assert world.vasps[9].payload_store == []


def test_payload_relayed_by_another_vasp_refused(world):
    # VASP 3's genuine payload to VASP 9, sent by VASP 7.
    send(world, 7, 9, TravelRuleRequest(signed_by(world, 3, 3, 9)))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == ["misaddressed_payload"]
    assert accepted_responses(world, 9) == []


def _start_transfer(world) -> tr.TravelRulePayload:
    channel = world.channel_between(world.vasps[7], world.vasps[9])
    return world.vasps[7].initiate_transfer(channel, "alice", "Bob Jones",
                                            "bob@idp2.com", 9, 125)


# -- each party names a payload by the bytes it signed or received -----------

def test_beneficiary_derives_the_payload_id_from_the_bytes_received(world):
    # Once VASP 7 has sent its request, the id cached on its own payload
    # object is overwritten. VASP 9 still logs the request by the id of
    # the payload bytes that crossed the wire: it reads no id off another
    # party's object.
    payload = _start_transfer(world)
    vars(payload)["payload_id"] = bytes(32)
    world.sim.step()
    (request,) = [frame.body for frame in wire_frames(world.sim)
                  if isinstance(frame.body, TravelRuleRequest)]
    payload_id = crypto.digest(codec.canonical_encode(request.signed.payload))
    (validated,) = [e for e in world.sim.trace.find(
        "travel_rule.payload_validated")
        if e.actor == "vasp:9" and e.get("direction") == "inbound"]
    assert validated.digest == payload_id[:8].hex()
    assert validated.get("payload") == payload_id.hex()[:16]


def test_a_transfer_encodes_each_signed_value_once_per_party(
        world, monkeypatch):
    # From the request to correlation, the payload and its answer are
    # encoded at most 6 times: the originator's id, its signing input and
    # the request frame; the beneficiary's signing inputs of the
    # request and of its answer; the originator's of the rebuilt answer.
    # The ledger transaction at most 2: make_transfer's signing input and
    # the ledger's; correlation reads the id the ledger derived from it.
    outputs = []
    for name in ("canonical_encode", "struct_bytes"):
        def recording(value, *declared, encode=getattr(codec, name)):
            outputs.append(encode(value, *declared))
            return outputs[-1]
        monkeypatch.setattr(codec, name, recording)
    payload = _start_transfer(world)
    world.sim.run_until_quiet()
    pending = world.vasps[7].pending[payload.payload_id]
    world.confirm_block()
    assert world.vasps[7].correlate_pending()
    assert pending.state == "correlated"
    monkeypatch.undo()
    (_, answer), = [r for r in world.vasps[9].payload_store if r[0] == "outbound"]
    payloads = (codec.canonical_encode(payload),
                codec.canonical_encode(tr.read_payload_record(answer).payload))
    tx = codec.first_field(LedgerTx, codec.struct_bytes(
        world.ledger.query_tx(pending.tx_id)))
    assert sum(any(p in out for p in payloads) for out in outputs) <= 6
    assert sum(tx in out for out in outputs) <= 2


def seq_of(world, payload: tr.TravelRulePayload) -> int:
    """The seq VASP 7's open request for ``payload`` went out with."""
    vasp7 = world.vasps[7]
    return asked_seq(vasp7, vasp7.pending[payload.payload_id])


def answer_to(world, request: tr.TravelRulePayload,
              **changes) -> tr.SignedAnswer:
    """What VASP 9 sends for its validly signed answer to ``request``,
    changed in the given fields: the answer's delta from that request."""
    vasp9 = world.vasps[9]
    answer = tr.answer_payload(dataclasses.replace(request, **changes),
                               "bob", vasp9.tx_key.public_key)
    return tr.answer_delta(tr.sign_payload(
        vasp9.claims_key.private_key, vasp9.certs.claims.serial, answer)[0])


def test_response_from_a_vasp_not_asked_is_ignored(world):
    payload = _start_transfer(world)
    # VASP 3 answers VASP 7's request to VASP 9 before VASP 9 does, naming
    # its seq over VASP 3's own channel, where VASP 7 asked nothing.
    forged = tr.answer_delta(signed_by(world, 3, 7, 3, amount=125))
    send(world, 3, 7, TravelRuleResponse(seq_of(world, payload), None, forged))
    world.sim.step()
    pending = world.vasps[7].pending[payload.payload_id]
    assert refusals(world, 7) == []
    assert unsolicited(world, 7) == ["unsolicited_answer"]
    assert pending.state == "requested"
    assert not world.sim.trace.find("ledger.tx_submitted")
    # The answer of the VASP asked still completes the transfer.
    world.sim.run_until_quiet()
    assert pending.state == "submitted"


def test_transfer_number_of_another_counterparty_is_refused(world):
    # VASP 7 has open transfers to VASP 9 (n) and, after a lookup, to VASP
    # 3 (m). VASP 9 refuses, then answers, naming m's seq, which is easily
    # guessed: over VASP 9's channel VASP 7 asked nothing under that seq,
    # so both are refused once and m stays open.
    vasp7 = world.vasps[7]
    world.vasps[3].grant_consent("dave", ConsentDirection.RECEIVE_ASSETS, None)
    n = _start_transfer(world)
    to_vasp3 = world.channel_between(vasp7, world.vasps[3])
    vasp7.remote_lookup(to_vasp3, "dave@idp2.com")
    m = vasp7.initiate_transfer(to_vasp3, "alice", "Dave Osei",
                                "dave@idp2.com", 3, 60)
    assert (n.transfer_number, m.transfer_number) == (1, 2)
    assert (seq_of(world, n), seq_of(world, m)) == (0, 1)
    pending = vasp7.pending[m.payload_id]
    send(world, 9, 7, TravelRuleResponse(
        seq_of(world, m), pki.Refusal.BENEFICIARY_UNKNOWN, None))
    send(world, 9, 7, TravelRuleResponse(seq_of(world, m), None,
                                         answer_to(world, m)))
    world.sim.step()
    assert refusals(world, 7) == []
    assert unsolicited(world, 7) == ["unsolicited_answer"] * 2
    assert pending.state == "requested" and m.payload_id in vasp7.pending
    assert not world.sim.trace.find("ledger.tx_submitted")
    assert [d for d, _ in vasp7.payload_store] == ["outbound", "outbound"]
    # The answers of the VASPs asked still complete both transfers.
    world.sim.run_until_quiet()
    assert refusals(world, 7) == []
    assert unsolicited(world, 7) == ["unsolicited_answer"] * 2
    assert [e.get("amount") for e in world.sim.trace.find(
        "ledger.tx_submitted")] == [125, 60]
    assert pending.state == "submitted"


@pytest.mark.parametrize("field, value", [
    ("amount", 999), ("originator_name", "Mallory Mole"),
    ("originator_account", "mallory"), ("transfer_number", 2),
    ("beneficiary_vasp_number", 3)])
def test_answer_to_another_request_refused(world, field, value):
    payload = _start_transfer(world)
    pending = world.vasps[7].pending[payload.payload_id]
    # VASP 9, the VASP asked, answers first with the delta of a validly
    # signed answer to a request that differs from VASP 7's in one field:
    # a delta cannot name another request, so the signature fails.
    forged = answer_to(world, payload, **{field: value})
    send(world, 9, 7, TravelRuleResponse(seq_of(world, payload), None, forged))
    world.sim.run_until_quiet()
    # VASP 9's own answer comes after it, a second answer to one request.
    assert refusals(world, 7) == ["invalid_payload"]
    assert unsolicited(world, 7) == ["unsolicited_answer"]
    assert pending.state == "refused"
    assert payload.payload_id not in world.vasps[7].pending
    assert not world.sim.trace.find("ledger.tx_submitted")
    assert [d for d, _ in world.vasps[7].payload_store] == ["outbound"]


@pytest.mark.parametrize("hint", ["claims_key", "amount_plus_one"])
def test_answer_naming_another_key_or_amount_refused(world, hint):
    # VASP 9, the VASP asked, signs an answer whose correlation hint names
    # a key other than the transaction key VASP 7 pays (its claims key),
    # or one more than the amount. The hint does not travel: VASP 7
    # rebuilds it from the certificate it pays, so the signature fails.
    payload = _start_transfer(world)
    pending = world.vasps[7].pending[payload.payload_id]
    vasp9 = world.vasps[9]
    key, amount = vasp9.tx_key.public_key, payload.amount
    if hint == "claims_key":
        key = vasp9.claims_key.public_key
    else:
        amount += 1
    assert key != world.trust.members[9].transaction.subject_public_key \
        or amount != payload.amount
    answer = dataclasses.replace(
        tr.answer_payload(payload, "bob", key),
        correlation=tr.CorrelationHint(tr.HintKind.KEY_AMOUNT, key, amount))
    forged = tr.answer_delta(tr.sign_payload(
        vasp9.claims_key.private_key, vasp9.certs.claims.serial, answer)[0])
    send(world, 9, 7, TravelRuleResponse(seq_of(world, payload), None, forged))
    world.sim.run_until_quiet()
    # VASP 9's own answer comes after it, a second answer to one request.
    assert refusals(world, 7) == ["invalid_payload"]
    assert unsolicited(world, 7) == ["unsolicited_answer"]
    assert pending.state == "refused"
    assert not world.sim.trace.find("ledger.tx_submitted")


def test_answer_whose_signature_fails_refused(world):
    payload = _start_transfer(world)
    pending = world.vasps[7].pending[payload.payload_id]
    # VASP 9's answer, one bit of its signature flipped on the way.
    answer = answer_to(world, payload)
    signature = bytearray(answer.signature)
    signature[0] ^= 1
    forged = dataclasses.replace(answer, signature=bytes(signature))
    send(world, 9, 7, TravelRuleResponse(seq_of(world, payload), None, forged))
    world.sim.run_until_quiet()
    # VASP 9's own answer comes after it, a second answer to one request.
    assert refusals(world, 7) == ["invalid_payload"]
    assert unsolicited(world, 7) == ["unsolicited_answer"]
    assert pending.state == "refused"
    assert not world.sim.trace.find("ledger.tx_submitted")
    world.confirm_block()
    assert world.ledger.confirmed_txs() == []


def test_answer_replayed_onto_another_transfer_refused(world):
    # VASP 9's valid answer to transfer A, sent again as the answer to
    # transfer B of the same parties, before VASP 9 answers B.
    first = _start_transfer(world)
    world.sim.run_until_quiet()
    (answer,) = [body.answer for body in accepted_responses(world, 9)]
    second = _start_transfer(world)
    pending = world.vasps[7].pending[second.payload_id]
    send(world, 9, 7, TravelRuleResponse(seq_of(world, second), None, answer))
    world.sim.run_until_quiet()
    # VASP 9's own answer to B comes after it, a second answer to B.
    assert refusals(world, 7) == ["invalid_payload"]
    assert unsolicited(world, 7) == ["unsolicited_answer"]
    assert pending.state == "refused"
    assert second.payload_id not in world.vasps[7].pending
    (paid,) = world.sim.trace.find("ledger.tx_submitted")
    assert world.vasps[7].pending[first.payload_id].tx_short == paid.get("tx")
    assert [d for d, _ in world.vasps[7].payload_store] == \
        ["outbound", "inbound", "outbound"]


def test_consent_withdrawn_before_the_answer_ends_the_transfer(world):
    # Alice withdraws her consent while VASP 7's request is out: VASP 9
    # accepts, but the answer finds no consent, so nothing is paid.
    payload = _start_transfer(world)
    vasp7 = world.vasps[7]
    pending = vasp7.pending[payload.payload_id]
    vasp7.withdraw_consent("alice", ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                           None)
    world.sim.run_until_quiet()
    assert len(accepted_responses(world, 9)) == 1
    assert refusals(world, 7) == ["originator_consent_missing"]
    assert pending.state == "refused" and vasp7.pending == {}
    assert not world.sim.trace.find("ledger.tx_submitted")


def test_no_originator_data_in_an_answer(demo_config):
    # An answer carries only what it changes in its request: none of
    # Alice's name, account or identifying detail travels back.
    _, world = run_scenario_with_world("S1", demo_config)
    alice = world.vasps[7].customers["alice"]
    answers = [frame.body for frame in wire_frames(world.sim)
               if isinstance(frame.body, TravelRuleResponse)]
    assert len(answers) == 1 and answers[0].refusal is None
    assert {alice.legal_name, alice.customer_id,
            alice.geographic_address}.isdisjoint(
                set().union(*(strings_in(a, world.trust) for a in answers)))


def test_revoked_beneficiary_transaction_key_not_paid(world):
    # VASP 9's transaction certificate is revoked; its identity and
    # claims certificates stay valid, so VASP 9 still answers.
    beneficiary = world.vasps[9]
    paid_before = world.ledger.balance(beneficiary.tx_key.public_key)
    world.root.revoke(beneficiary.certs.transaction.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    payload = _start_transfer(world)
    pending = world.vasps[7].pending[payload.payload_id]
    world.sim.run_until_quiet()
    assert len(accepted_responses(world, 9)) == 1
    assert refusals(world, 7) == ["beneficiary_tx_cert_invalid"]
    assert pending.state == "refused"
    assert payload.payload_id not in world.vasps[7].pending
    assert not world.sim.trace.find("ledger.tx_submitted")
    world.confirm_block()
    assert world.ledger.confirmed_txs() == []
    assert world.ledger.balance(beneficiary.tx_key.public_key) == paid_before


# -- a VASP that may not sign refuses: it neither raises nor sends -----------

def test_beneficiary_that_may_not_sign_refuses_the_request(world):
    # VASP 9's claims certificate is revoked while VASP 7's request is in
    # flight: VASP 9 may not sign an answer, so it refuses the request
    # once, raises nothing and records nothing, and VASP 7 records the
    # peer's refusal.
    payload = _start_transfer(world)
    pending = world.vasps[7].pending[payload.payload_id]
    world.root.revoke(world.vasps[9].certs.claims.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    world.sim.run_until_quiet()
    assert refusals(world, 9) == ["own_cert_invalid"]
    assert [e.fields for e in world.sim.trace.find("travel_rule.transfer_refused")
            if e.actor == "vasp:7"] == [{
                "payload": payload.payload_id.hex()[:16],
                "reason": "peer_refused", "peer_reason": "own_cert_invalid"}]
    assert world.vasps[9].payload_store == []
    assert accepted_responses(world, 9) == []
    assert pending.state == "refused"
    assert not world.sim.trace.find("ledger.tx_submitted")


def test_originator_that_may_not_sign_sends_nothing(world):
    # VASP 7's identity certificate is revoked; its claims certificate is
    # not. No request leaves, and the transfer is refused as an event.
    vasp7 = world.vasps[7]
    channel = world.channel_between(vasp7, world.vasps[9])
    world.root.revoke(vasp7.certs.identity.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    assert vasp7.initiate_transfer(channel, "alice", "Bob Jones",
                                   "bob@idp2.com", 9, 125) is None
    world.sim.run_until_quiet()
    assert not any(isinstance(frame.body, TravelRuleRequest)
                   for frame in wire_frames(world.sim))
    assert not world.sim.trace.find("travel_rule.payload_signed")
    assert refusals(world, 7) == ["own_cert_invalid"]
    assert vasp7.pending == {} and vasp7.payload_store == []


def test_payid_squatted_by_another_member_rejected_everywhere(demo_config,
                                                              monkeypatch):
    # VASP 3 registers bob$betaex.com, a PayID on betaex.com, which only
    # VASP 9's identity certificate lists, builds its advertisement as if
    # its own certificate listed betaex.com after its domains, and signs it
    # with its own valid claims key. Every receiver reads that index
    # against VASP 3's certificate, which it is past, and refuses the
    # advertisement whole, with no state change, so the PayID resolves to
    # VASP 9 alone and S1 to it passes.
    def squatted_world(config, scenario):
        world = build_world(config, scenario=scenario)
        resolver = world.vasps[3].resolver
        resolver.register_identifier("dave", parse_identifier("bob$betaex.com"))
        build = resolver.build_advertisement
        resolver.build_advertisement = lambda key, serial, domains, keep=None: \
            build(key, serial, (*domains, "betaex.com"), keep)
        return world

    squatter = squatted_world(demo_config, "adhoc").vasps[3]
    squat = squatter.resolver.build_advertisement(
        squatter.claims_key.private_key, squatter.certs.claims.serial,
        squatter.certs.identity.subject.alt_domain_names)
    assert squat.payids[-1] == (1, ("bob",))
    world = build_world(demo_config)
    for number in (7, 9):
        receiver = world.vasps[number].resolver
        assert receiver.merge_advertisement(squat, world.trust) \
            is MergeOutcome.REJECTED
        assert receiver.known_advertisements() == []
        assert receiver.lookup(parse_identifier("dave@idp2.com")) == \
            ([9] if number == 9 else [])
    monkeypatch.setattr(scenarios, "build_world", squatted_world)
    trace, world = run_scenario_with_world(
        "S1", demo_config, {"beneficiary_identifier": "bob$betaex.com"})
    assert trace.passed
    merged = [e.get("outcome") for e in trace.find("resolver.adv_merged")
              if e.get("origin") == "vasp:3"]
    assert merged and set(merged) == {MergeOutcome.REJECTED.value}
    assert world.vasps[7].local_lookup(parse_identifier("bob$betaex.com")) == [9]


def test_member_that_may_not_sign_builds_no_advertisement(demo_config):
    # VASP 3's claims certificate is revoked after convergence, and a new
    # identifier is registered: its next round builds and floods nothing
    # of its own, with one refusal event.
    world = build_world(demo_config)
    converge_federation(world)
    vasp3 = world.vasps[3]
    world.root.revoke(vasp3.certs.claims.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    vasp3.resolver.register_identifier("dave", parse_identifier("dave$gammax.fi"))
    since, sent_before = len(world.sim.trace.events), len(world.sim.wire_log)
    flood_round(world)
    own = [(e.event, e.fields) for e in world.sim.trace.events[since:]
           if e.actor == vasp3.name]
    assert own == [("resolver.adv_refused", {"reason": "own_cert_invalid"})]
    assert len(world.sim.wire_log) == sent_before
    assert world.vasps[9].local_lookup(parse_identifier("dave$gammax.fi")) == []


def test_member_revoked_before_its_first_flood_sends_only_what_it_holds(
        demo_config):
    # VASP 3's claims certificate is revoked before the federation floods
    # at all: it never builds an advertisement, still forwards the others',
    # and no member resolves its customers.
    world = build_world(demo_config)
    world.root.revoke(world.vasps[3].certs.claims.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    converge_federation(world)
    assert not [e for e in world.sim.trace.find("resolver.adv_built")
                if e.actor == "vasp:3"]
    assert [e.get("reason") for e in world.sim.trace.find("resolver.adv_refused")
            if e.actor == "vasp:3"][:1] == ["own_cert_invalid"]
    dave = parse_identifier("dave@idp2.com")
    assert world.vasps[7].local_lookup(dave) == world.vasps[9].local_lookup(
        dave) == [9]
    assert world.vasps[3].local_lookup(dave) == [3, 9]


def test_member_that_may_not_sign_fetches_no_claims(demo_config):
    # After S2, VASP 7 holds a token for Alice's claims; its claims
    # certificate is then revoked. It sends no sealed fetch, and
    # refuses the fetch once, as an event.
    trace, world = run_scenario_with_world("S2", demo_config)
    vasp, store = world.vasps[7], world.stores["alice"]
    assert vasp.claims_token is not None
    world.root.revoke(vasp.certs.claims.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    fetched, sent_before = len(vasp.fetched_claims), len(world.sim.wire_log)
    since = len(trace.events)
    vasp.fetch_claims(world.channel_between(vasp, store))
    world.sim.run_until_quiet()
    assert len(world.sim.wire_log) == sent_before
    assert len(vasp.fetched_claims) == fetched
    assert [(e.actor, e.event, e.fields) for e in trace.events[since:]] == [
        (vasp.name, "claims.fetch_refused", {"reason": "own_cert_invalid"})]


# -- only its audience can use a claims token ---------------------------------

def fetch_refusals(trace) -> list:
    """(actor, fields) of each claims.fetch_refused event: the store's own
    refusal, then the refused VASP's record of it."""
    return [(e.actor, e.fields) for e in trace.find("claims.fetch_refused")]


def test_token_replayed_by_another_vasp_releases_nothing(demo_config):
    trace, world = run_scenario_with_world("S2", demo_config)
    store = world.stores["alice"]
    token = world.vasps[7].claims_token
    thief = world.vasps[9]
    receipts_before = len(store.store.receipts)
    channel = world.channel_between(thief, store)
    thief.ask(channel, sealed_fetch(token, thief.certs.claims.serial,
                                    thief.claims_key), None)
    world.sim.run_until_quiet()
    assert thief.fetched_claims == [] and thief.consent_receipts == []
    assert len(store.store.receipts) == receipts_before
    assert fetch_refusals(trace) == [
        (store.name, {"reason": "token_audience_mismatch"}),
        (thief.name, {"reason": "peer_refused",
                      "peer_reason": "token_audience_mismatch"})]


def test_terms_signed_by_another_vasp_release_nothing(demo_config):
    # VASP 7 presents its own token over its own channel, but the request
    # is sealed with VASP 9's claims key under VASP 9's claims certificate.
    trace, world = run_scenario_with_world("S2", demo_config)
    store, vasp, other = world.stores["alice"], world.vasps[7], world.vasps[9]
    token = vasp.claims_token
    fetched_before = len(vasp.fetched_claims)
    channel = world.channel_between(vasp, store)
    vasp.ask(channel, sealed_fetch(token, other.certs.claims.serial,
                                   other.claims_key), None)
    world.sim.run_until_quiet()
    assert len(vasp.fetched_claims) == fetched_before
    assert len(store.store.receipts) == 1
    assert fetch_refusals(trace) == [
        (store.name, {"reason": "terms_not_countersigned"}),
        (vasp.name, {"reason": "peer_refused",
                     "peer_reason": "terms_not_countersigned"})]


def another_token(world, token: claims.AuthorizationToken
                  ) -> claims.AuthorizationToken:
    """A second token of ``token``'s scope, issued a tick later."""
    return world.auth_servers["alice"].server.request_authorization(
        token.audience_vasp_number, set(token.permitted_attributes),
        token.purpose, world.sim.now + 1)


# Fetch requests VASP 7 presents over its own channel with its own token,
# each sealed wrongly, in a world after S2.
FORGED_FETCHES = {
    "signature_lifted_from_another_token": lambda w, vasp: ClaimsFetchRequest(
        vasp.claims_token, vasp.certs.claims.serial, sealed_fetch(
            another_token(w, vasp.claims_token), vasp.certs.claims.serial,
            vasp.claims_key).signature),
    "serial_of_its_transaction_cert": lambda w, vasp: sealed_fetch(
        vasp.claims_token, vasp.certs.transaction.serial, vasp.claims_key),
    "serial_of_another_members_claims_cert": lambda w, vasp: sealed_fetch(
        vasp.claims_token, w.vasps[9].certs.claims.serial, vasp.claims_key),
    "sealed_with_its_transaction_key": lambda w, vasp: sealed_fetch(
        vasp.claims_token, vasp.certs.claims.serial, vasp.tx_key),
    "token_edited_after_sealing": lambda w, vasp: dataclasses.replace(
        sealed_fetch(vasp.claims_token, vasp.certs.claims.serial,
                     vasp.claims_key),
        token=dataclasses.replace(vasp.claims_token, expires_at=10**6)),
}


@pytest.mark.parametrize("forgery", sorted(FORGED_FETCHES))
def test_a_wrongly_sealed_fetch_releases_nothing(demo_config, forgery):
    # The request's one check, TrustContext.verify_member_signature,
    # refuses it: one refusal from the store, the VASP's record of it, and
    # no claim, receipt or claims_released audit row.
    trace, world = run_scenario_with_world("S2", demo_config)
    store, vasp = world.stores["alice"], world.vasps[7]
    held = (list(vasp.fetched_claims), list(vasp.consent_receipts),
            store.store.receipts)
    audit_before = len(store.store.audit_log)
    request = FORGED_FETCHES[forgery](world, vasp)
    vasp.ask(world.channel_between(vasp, store), request, request.token)
    world.sim.run_until_quiet()
    assert fetch_refusals(trace) == [
        (store.name, {"reason": "terms_not_countersigned"}),
        (vasp.name, {"reason": "peer_refused",
                     "peer_reason": "terms_not_countersigned"})]
    assert (vasp.fetched_claims, vasp.consent_receipts,
            store.store.receipts) == held
    assert [row.event for row in store.store.audit_log[audit_before:]
            if row.event == "claims_released"] == []
    assert len(trace.find("claims.claims_released")) == 1  # S2's own


def test_revoked_caller_refused_not_raised(world):
    vasp, server = world.vasps[7], world.auth_servers["alice"]
    channel = world.channel_between(vasp, server)
    world.root.revoke(vasp.certs.identity.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    vasp.request_claims_authorization(channel, ("driving_license_number",),
                                      "kyc")
    world.sim.run_until_quiet()
    assert vasp.claims_token is None
    assert vasp.claims_denial is pki.Refusal.INVALID_CALLER
    # Refused at the server's door: the authorization server is never asked.
    assert [(e.event, tuple(e.fields.items())) for e in world.sim.trace.events
            if e.actor == server.name and e.event.startswith(
                ("netsim.refused", "claims."))] == \
        [("netsim.refused", (("msg", "ClaimsAuthRequest"), ("from", vasp.name),
                             ("reason", "invalid_caller")))]


# -- revocation removes a member from open channels ---------------------------

# Per request type: (requester, answerer) in a world after S2, and how the
# requester asks over its channel to the answerer.
DOOR_CASES = {
    "LookupRequest": (lambda w: (w.vasps[9], w.vasps[7]),
                      lambda node, ch: node.remote_lookup(ch, "bob@idp2.com")),
    "ClaimsAuthRequest": (
        lambda w: (w.vasps[7], w.auth_servers["alice"]),
        lambda node, ch: node.request_claims_authorization(
            ch, ("driving_license_number",), "kyc")),
    "ClaimsFetchRequest": (lambda w: (w.vasps[7], w.stores["alice"]),
                           lambda node, ch: fetch_by_hand(node, ch)),
    "AttestationChallenge": (lambda w: (w.insurer, w.vasps[7]),
                             lambda node, ch: node.request_audit(ch, "wdev:alice@7")),
    "TravelRuleRequest": (lambda w: (w.vasps[7], w.vasps[9]),
                          lambda node, ch: request_by_hand(node, ch)),
}


def request_by_hand(node, channel) -> None:
    """Send VASP ``node``'s signed request for Alice's transfer to Bob at
    VASP 9 over ``channel``: a VASP whose identity is revoked sends none
    itself."""
    payload = tr.build_payload(node.customers["alice"], "Bob Jones",
                               "bob@idp2.com", 9, 10, node.vasp_number, 1)
    signed, _ = tr.sign_payload(node.claims_key.private_key,
                                node.certs.claims.serial, payload)
    node.sim.send(channel, node.name, TravelRuleRequest(signed))


def fetch_by_hand(node, channel) -> None:
    """Ask for VASP ``node``'s claims with its held token, in a request
    sealed with its claims key, over ``channel``: a VASP that may not sign
    asks nothing itself."""
    node.ask(channel, sealed_fetch(node.claims_token, node.certs.claims.serial,
                                   node.claims_key), None)


@pytest.mark.parametrize("kind", sorted(DOOR_CASES))
def test_request_from_a_revoked_caller_is_refused_at_the_door(demo_config, kind):
    # The requester's identity certificate is revoked after its channel
    # opened. Over that open channel, its request is refused before any
    # handler runs: one refusal event, then a refused answer, and nothing
    # the handler would have done.
    _, world = run_scenario_with_world("S2", demo_config)
    world.vasps[7].grant_consent(
        "alice", ConsentDirection.SEND_INFO_TO_COUNTERPARTY, None)
    nodes, ask = DOOR_CASES[kind]
    requester, answerer = nodes(world)
    channel = world.channel_between(requester, answerer)
    held = (len(world.stores["alice"].store.receipts),
            len(world.vasps[9].payload_store), len(world.vasps[7].fetched_claims))
    world.root.revoke(requester.identity_cert.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    since = len(world.sim.trace.events)
    ask(requester, channel)
    world.sim.run_until_quiet()
    served = [(e.event, e.fields) for e in world.sim.trace.events[since:]
              if e.actor == answerer.name]
    assert [event for event, _ in served] == \
        ["netsim.delivered", "netsim.refused", "netsim.sent"]
    assert served[0][1]["msg"] == kind
    assert served[1][1] == {"msg": kind, "from": requester.name,
                            "reason": "invalid_caller"}
    assert (len(world.stores["alice"].store.receipts),
            len(world.vasps[9].payload_store),
            len(world.vasps[7].fetched_claims)) == held
    assert world.insurer.audit_verdicts == {}
    answer = sent_frames(world.sim)[-1][1].body
    assert type(answer) is messages.ANSWER[getattr(messages, kind)]
    assert answer.refusal is pki.Refusal.INVALID_CALLER
    assert getattr(answer, "vasp_numbers", ()) == ()


# -- revocation and expiry remove a member from resolution --------------------

def flood_by_hand(world, number: int) -> None:
    """VASP ``number`` builds its own next advertisement and floods it over
    each of its federation channels, whatever its standing: a member that
    may not sign builds none itself."""
    node = world.vasps[number]
    adv = node.resolver.build_advertisement(
        node.claims_key.private_key, node.certs.claims.serial,
        node.certs.identity.subject.alt_domain_names)
    for channel in world.federation_channels()[number]:
        world.sim.send(channel, node.name, messages.AdvertisementFlood((adv,)))


def test_identity_revoked_member_cannot_readvertise(demo_config):
    # Only VASP 3's identity certificate is revoked; its claims-signing
    # certificate is not, and VASP 3 floods by hand over its open channel.
    world = build_world(demo_config)
    converge_federation(world)
    dave = parse_identifier("dave@idp2.com")
    world.root.revoke(world.vasps[3].certs.identity.serial,
                      pki.RevocationReason.CESSATION_OF_BUSINESS, world.sim.now)
    world.vasps[3].resolver.register_identifier(
        "dave", parse_identifier("dave$gammax.fi"))
    events_before = len(world.sim.trace.events)
    flood_by_hand(world, 3)
    flood_round(world)
    flood_round(world)
    merged = [tuple(e.fields.items())
              for e in world.sim.trace.events[events_before:]
              if e.event == "resolver.adv_merged"]
    assert merged == [(("origin", "vasp:3"), ("seq", 2), ("outcome", "Rejected"))]
    assert world.vasps[7].local_lookup(dave) == [9]
    assert world.vasps[9].local_lookup(dave) == [9]


def test_expired_member_stops_resolving(demo_config, monkeypatch):
    # VASP 3's claims-signing certificate is issued with not_after=20; the
    # federation converges before then.
    draft = pki.RootAuthority.draft_signing_cert

    def short_lived(root, identity_cert, purpose, key, not_before, not_after):
        if identity_cert.subject.vasp_number == 3 \
                and purpose is pki.CertPurpose.CLAIMS_SIGNING:
            not_after = 20
        return draft(root, identity_cert, purpose, key, not_before, not_after)

    monkeypatch.setattr(pki.RootAuthority, "draft_signing_cert", short_lived)
    world = build_world(demo_config)
    converge_federation(world)
    dave = parse_identifier("dave@idp2.com")
    assert world.vasps[7].local_lookup(dave) == [3, 9]
    while world.sim.now < 19:
        world.sim.step()
    assert world.vasps[9].local_lookup(dave) == [3, 9]
    world.sim.step()
    assert world.trust.validate(world.vasps[3].certs.claims,
                                world.vasps[3].certs.identity) \
        is pki.Verdict.EXPIRED
    # From tick 20 on, no other member resolves dave to VASP 3, at its
    # first lookup or flood; VASP 3 still serves its own customer.
    assert world.vasps[7].local_lookup(dave) == [9]
    flood_round(world)
    assert world.vasps[9].local_lookup(dave) == [9]
    assert world.vasps[3].local_lookup(dave) == [3, 9]
    purged = world.sim.trace.find("resolver.adv_purged")
    assert [(e.actor, e.get("origin"), e.get("verdict")) for e in purged] == \
        [("vasp:7", "vasp:3", "Expired"), ("vasp:9", "vasp:3", "Expired")]
    flood_round(world)
    assert world.vasps[7].local_lookup(dave) == world.vasps[9].local_lookup(dave) \
        == [9]


def test_purge_names_revocation_before_expiry(demo_config, monkeypatch):
    # The identity certificates of VASPs 3 and 9 expire at tick 20, after
    # the federation converges, and VASP 3's claims certificate is revoked
    # too: VASP 7 purges VASP 3 as revoked and VASP 9 as expired.
    draft = pki.RootAuthority.draft_identity_cert

    def short_lived(root, subject, key, not_before, not_after):
        if subject.vasp_number in (3, 9):
            not_after = 20
        return draft(root, subject, key, not_before, not_after)

    monkeypatch.setattr(pki.RootAuthority, "draft_identity_cert", short_lived)
    world = build_world(demo_config)
    converge_federation(world)
    world.root.revoke(world.vasps[3].certs.claims.serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)
    while world.sim.now < 20:
        world.sim.step()
    assert world.vasps[7].local_lookup(parse_identifier("dave@idp2.com")) == []
    assert [(e.actor, e.get("origin"), e.get("verdict"))
            for e in world.sim.trace.find("resolver.adv_purged")] == \
        [("vasp:7", "vasp:3", "Revoked"), ("vasp:7", "vasp:9", "Expired")]


def test_claims_revoked_after_caching_refuses_next_payload(world):
    # VASP 9 has accepted one payload under VASP 7's claims certificate,
    # so the trust context holds that certificate; then it is revoked.
    claims_cert = world.vasps[7].certs.claims
    first, second = signed_by(world, 7, 7, 9), signed_by(world, 7, 7, 9, 11)
    send(world, 7, 9, TravelRuleRequest(first))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == []
    assert pki.proven_head(claims_cert) in world.trust.verified
    world.root.revoke(claims_cert.serial, pki.RevocationReason.KEY_COMPROMISE,
                      world.sim.now)
    send(world, 7, 9, TravelRuleRequest(second))
    world.sim.run_until_quiet()
    assert refusals(world, 9) == ["invalid_payload"]
    assert len(accepted_responses(world, 9)) == 1


def test_claims_revoked_after_caching_refuses_next_advertisement(demo_config):
    # Convergence caches VASP 3's claims certificate; only that certificate
    # is revoked, and VASP 3 floods by hand over its open channel.
    world = build_world(demo_config)
    converge_federation(world)
    claims_cert = world.vasps[3].certs.claims
    assert pki.proven_head(claims_cert) in world.trust.verified
    world.root.revoke(claims_cert.serial, pki.RevocationReason.KEY_COMPROMISE,
                      world.sim.now)
    dave = parse_identifier("dave$gammax.fi")
    world.vasps[3].resolver.register_identifier("dave", dave)
    events_before = len(world.sim.trace.events)
    flood_by_hand(world, 3)
    flood_round(world)
    flood_round(world)
    merged = [tuple(e.fields.items())
              for e in world.sim.trace.events[events_before:]
              if e.event == "resolver.adv_merged"]
    assert merged == [(("origin", "vasp:3"), ("seq", 2), ("outcome", "Rejected"))]
    assert world.vasps[7].local_lookup(dave) == world.vasps[9].local_lookup(dave) == []
