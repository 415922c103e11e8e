"""One trust anchor: every key a node checks a signature under is the
subject key of a certificate under the consortium root, looked up in the
node's ``TrustContext`` at the moment of use, so revoking a party's
certificate revokes its key (RFC 9334 §3.2 and §7; IEEE 802.1AR)."""

from __future__ import annotations

from conftest import sent_frames
from vasptrust import claims, codec, crypto, pki, wallet
from vasptrust.netsim import build_world, messages, run_scenario_with_world
from vasptrust.netsim.nodes import Node
from vasptrust.netsim.scenarios import scenario_s2
from vasptrust.netsim.world import CHECKPOINT_INTERVAL
from vasptrust.pki import Refusal

DEVICE = "wdev:alice@7"


def raw_bytes(value):
    """Every bytes value ``value`` holds in a dict's keys or values, a
    list, a tuple or a set, at any depth; a certificate or any other
    object is not looked into."""
    if isinstance(value, bytes):
        yield value
    elif isinstance(value, dict):
        for item in value.items():
            yield from raw_bytes(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from raw_bytes(item)


def revoke(world, name: str) -> None:
    """Revoke the identity certificate of party ``name`` now."""
    world.root.revoke(world.trust.identities[name].serial,
                      pki.RevocationReason.KEY_COMPROMISE, world.sim.now)


def test_trust_context_holds_no_raw_key_but_the_roots(demo_config):
    # After S2 and S4, which check claims, a token, a receipt and evidence,
    # no attribute of the context holds any party's public key: only the
    # root's is held as a key, and every other is in a certificate.
    for name in ("S2", "S4"):
        _, world = run_scenario_with_world(name, demo_config)
        keys = {cert.subject_public_key
                for cert in world.root.issued_certificates()}
        keys |= {device.attestation_public_key
                 for device in world.devices.values()}
        assert world.trust.root_public_key == world.root.public_key
        for attribute, value in vars(world.trust).items():
            if attribute != "root_public_key":
                assert not keys & set(raw_bytes(value)), attribute


def test_every_party_signs_with_the_key_its_certificate_certifies(
        demo_config):
    # Each non-VASP party's one signing key is its identity certificate's
    # subject key: the key its channel proves, and the one its claims,
    # tokens, receipts and evidence verify under.
    _, world = run_scenario_with_world("S2", demo_config)
    identities, vasp = world.trust.identities, world.vasps[7]

    def certified(name: str, signed) -> bool:
        return crypto.verify(identities[name].subject_public_key,
                             *codec.unseal(signed))

    assert certified("cp:dmv", vasp.fetched_claims[0])
    assert certified("authsrv:alice", vasp.claims_token)
    assert certified("store:alice", vasp.consent_receipts[0])
    assert certified(DEVICE, world.devices[DEVICE].attest(bytes(32)))
    nodes = [*world.stores.values(), *world.auth_servers.values(),
             world.insurer]
    assert sorted(node.name for node in nodes) == [
        "authsrv:alice", "insurer:crestline-insurance", "store:alice"]
    for node in nodes:
        assert identities[node.name] is node.identity_cert
        assert node._identity_key.public_key \
            == node.identity_cert.subject_public_key


def test_every_provider_and_device_has_a_valid_certificate(demo_config):
    world = build_world(demo_config)
    names = [f"cp:{name}" for name in demo_config.claims_providers]
    assert names + sorted(world.devices) == ["cp:dmv", DEVICE]
    assert world.devices[DEVICE].attestation_public_key \
        == world.trust.certified_key(DEVICE)
    for name in names + sorted(world.devices):
        cert = world.trust.identities[name]
        assert cert.subject.organization_name == name
        assert world.trust.validate(cert) is pki.Verdict.VALID
        assert world.trust.certified_key(name) == cert.subject_public_key
    assert world.trust.certified_key("cp:unknown") == b""


def test_claim_of_a_revoked_provider_is_not_kept(demo_config):
    # The provider's certificate is revoked before the fetch: the store
    # still releases its claim, with a receipt, but the claim verifies
    # under no key, so VASP 7 keeps none and S2 fails on it.
    world = build_world(demo_config)
    revoke(world, "cp:dmv")
    scenario_s2(world, **demo_config.scenario_params["S2"])
    assert world.vasps[7].fetched_claims == []
    assert [e.fields for e in world.sim.trace.find("claims.claims_fetched")] \
        == [{"claims": 1, "verified": 0, "receipt": "yes"}]
    assert {a.name for a in world.sim.trace.assertions if not a.passed} \
        == {"claims_released", "claim_signatures_valid"}


def test_token_of_a_revoked_authorization_server_is_refused(demo_config):
    # The authorization server is revoked after it issued the token: the
    # store refuses the fetch BadToken, releases nothing and writes the
    # audit row, and VASP 7 keeps nothing.
    world = build_world(demo_config)
    vasp, store = world.vasps[7], world.stores["alice"]
    server = world.auth_servers["alice"]
    attributes, purpose = ("driving_license_number",), "kyc"
    store.store.set_policy("alice", claims.AccessPolicy(
        "alice", frozenset({7}), frozenset(attributes), purpose))
    vasp.request_claims_authorization(world.channel_between(vasp, server),
                                      attributes, purpose)
    world.sim.run_until_quiet()
    assert vasp.claims_token is not None
    revoke(world, "authsrv:alice")
    since = len(world.sim.trace.events)
    vasp.fetch_claims(world.channel_between(vasp, store))
    world.sim.run_until_quiet()
    assert store.store.receipts == []
    row = store.store.audit_log[-1]
    assert (row.event, row.fields) == (
        "fetch_refused", (("reason", Refusal.BAD_TOKEN),))
    assert [(e.actor, e.fields) for e in world.sim.trace.events[since:]
            if e.event == "claims.fetch_refused"] == [
        (store.name, {"reason": "BadToken"}),
        (vasp.name, {"reason": "peer_refused", "peer_reason": "BadToken"})]
    assert vasp.fetched_claims == [] and vasp.consent_receipts == []


def test_revoked_device_fails_checkpoint_audit_and_offboarding(demo_config):
    # The device's certificate is revoked after onboarding: its evidence
    # verifies under no key, so the next checkpoint is refused, the
    # insurer's verdict fails on its signature, and the offboarding is
    # refused with nothing moved and the wallet still regulated by VASP 7.
    world = build_world(demo_config)
    vasp, device, insurer = world.vasps[7], world.devices[DEVICE], world.insurer
    assert vasp.onboard("alice", device).accepted
    world.confirm_block()
    supervision = vasp.supervision["alice"]
    (supervised,) = supervision.supervised_handles
    revoke(world, DEVICE)
    for _ in range(CHECKPOINT_INTERVAL):
        world.sim.step()
    assert [e.fields for e in world.sim.trace.find("attest.checkpoint_refused")] \
        == [{"device": DEVICE, "reason": "evidence_invalid"}]
    assert len(supervision.checkpoints) == 1  # onboarding's only

    insurer.request_audit(world.channel_between(insurer, vasp), DEVICE)
    world.sim.run_until_quiet()
    verdict = insurer.audit_verdicts[DEVICE]
    assert (verdict.passed, verdict.signature_ok, verdict.nonce_fresh,
            verdict.stack_approved) == (False, False, True, True)

    handles = device.handles()
    report = vasp.offboard("alice", device)
    world.confirm_block()
    assert (report.accepted, report.reason) == (False, Refusal.EVIDENCE_INVALID)
    assert device.handles() == handles and supervision.handoff is None
    assert world.ledger.balance(device.slot(supervised).public_key) == 500
    status = world.registry.status(DEVICE)
    assert (status.classification, status.supervising_vasp_number) == \
        (wallet.WalletClass.REGULATED, 7)
    assert vasp.supervision["alice"] is supervision


def test_a_device_certificate_opens_a_channel_but_asks_nothing(demo_config):
    # Whoever holds a device's attestation key can open a channel to VASP 7
    # with the device's certificate, which validates; but a device is no
    # caller, so its lookup and its challenge are each refused
    # invalid_caller at the door, and no handler runs.
    world = build_world(demo_config)
    vasp, device = world.vasps[7], world.devices[DEVICE]
    assert vasp.onboard("alice", device).accepted
    holder = Node(world.sim, DEVICE, world.trust.identities[DEVICE],
                  device._attestation, world.trust)
    world.sim.register_actor(holder.name, holder.handle)
    channel = world.channel_between(holder, vasp)
    since = len(world.sim.trace.events)
    holder.ask(channel, messages.LookupRequest("bob@idp2.com"), None)
    holder.ask(channel, messages.AttestationChallenge(DEVICE, bytes(32)), None)
    world.sim.run_until_quiet()
    served = [e for e in world.sim.trace.events[since:] if e.actor == vasp.name]
    assert [e.fields for e in served if e.event == "netsim.refused"] == [
        {"msg": kind, "from": DEVICE, "reason": "invalid_caller"}
        for kind in ("LookupRequest", "AttestationChallenge")]
    assert {e.event for e in served} == {
        "netsim.delivered", "netsim.refused", "netsim.sent"}
    answers = [frame.body for event, frame in sent_frames(world.sim)
               if event.actor == vasp.name][-2:]
    assert [(type(a), a.refusal) for a in answers] == [
        (messages.LookupResponse, Refusal.INVALID_CALLER),
        (messages.AttestationResponse, Refusal.INVALID_CALLER)]
