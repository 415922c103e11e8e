"""Claims store, authorization tokens, consent receipts."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import make_subject, seed
from vasptrust import claims, codec, crypto, pki
from vasptrust.netsim import build_world


@pytest.fixture
def provider():
    return claims.ClaimsProvider("dmv", seed("cp:dmv"))


# The authorization server's token key and the store's receipt key: the
# keys their identity certificates certify in a built world.
SERVER_KEY = crypto.generate_keypair(seed("authsrv"))
STORE_KEY = crypto.generate_keypair(seed("store:alice"))


def fetch(store: claims.ClaimsStore, token: claims.AuthorizationToken,
          now: int):
    """``store``'s fetch of ``token`` at ``now``, its signature checked
    under the server's key."""
    return store.fetch_claims(token, SERVER_KEY.public_key, now)


def receipt_verifies(receipt: claims.ConsentReceipt) -> bool:
    return crypto.verify(STORE_KEY.public_key, *codec.unseal(receipt))


@pytest.fixture
def setup(provider):
    server = claims.AuthorizationServer(SERVER_KEY)
    store = claims.ClaimsStore("alice", STORE_KEY)
    server.bind_store(store)
    store.add_claim(provider.issue_claim("alice", "driving_license_number",
                                         "DL-555-0101", 0, 10_000))
    store.add_claim(provider.issue_claim("alice", "state_of_residence",
                                         "MA", 0, 10_000))
    policy = claims.AccessPolicy(
        owner_customer_ref="alice",
        allowed_vasp_numbers=frozenset({7}),
        readable_attributes=frozenset({"driving_license_number"}),
        usage_purpose="kyc")
    store.set_policy("alice", policy, now=0)
    return store, server, policy


class TestClaims:
    def test_issue_then_verify(self, provider):
        claim = provider.issue_claim("alice", "age_over_18", "true", 0, 100)
        assert claims.verify_claim(claim, provider.public_key, 50) \
            is pki.Verdict.VALID

    def test_tampered_value(self, provider):
        claim = provider.issue_claim("alice", "age_over_18", "true", 0, 100)
        forged = replace(claim, attribute_value="false")
        assert claims.verify_claim(forged, provider.public_key, 50) \
            is pki.Verdict.BAD_SIGNATURE

    def test_expired_and_not_yet_valid(self, provider):
        claim = provider.issue_claim("alice", "x", "1", 10, 20)
        assert claims.verify_claim(claim, provider.public_key, 20) \
            is pki.Verdict.EXPIRED
        assert claims.verify_claim(claim, provider.public_key, 5) \
            is pki.Verdict.NOT_YET_VALID

    # Either side of each edge of the window [10, 20).
    @pytest.mark.parametrize("now, expected", [
        (9, pki.Verdict.NOT_YET_VALID), (10, pki.Verdict.VALID),
        (19, pki.Verdict.VALID), (20, pki.Verdict.EXPIRED)])
    def test_window_agrees_with_certificates(self, provider, root, now,
                                             expected):
        claim = provider.issue_claim("alice", "x", "1", 10, 20)
        cert = root.issue_identity_cert(
            make_subject(5), crypto.generate_keypair(seed("window")).public_key,
            10, 20)
        assert claims.verify_claim(claim, provider.public_key, now) \
            is pki.validate_chain(cert, root.public_key, root.revocation_list,
                                  now) is expected

    def test_every_bit_of_value_tamper_rejected(self, provider):
        claim = provider.issue_claim("alice", "code", "SECRET01", 0, 100)
        raw = claim.attribute_value.encode()
        for index in range(len(raw)):
            for bit in range(7):  # stay in ASCII so the value stays a str
                mutated = bytearray(raw)
                mutated[index] ^= 1 << bit
                forged = replace(claim, attribute_value=mutated.decode())
                if forged.attribute_value == claim.attribute_value:
                    continue
                assert claims.verify_claim(forged, provider.public_key, 50) \
                    is pki.Verdict.BAD_SIGNATURE


class TestPolicy:
    def test_owner_sets_policy(self, setup):
        store, _, policy = setup
        assert store.policy == policy

    def test_non_owner_rejected(self, setup):
        store, _, policy = setup
        with pytest.raises(claims.NotOwner):
            store.set_policy("mallory", policy)

    def test_replace_semantics(self, setup):
        store, _, policy = setup
        wider = replace(policy,
                        readable_attributes=frozenset({"driving_license_number",
                                                       "state_of_residence"}))
        store.set_policy("alice", wider)
        assert store.policy is wider


def request(server, vasp_number, attributes, purpose="kyc", now=1):
    """Member ``vasp_number``'s token request at tick ``now``; the node in
    front of the server has authorized the caller (``Node.handle``)."""
    return server.request_authorization(vasp_number, set(attributes), purpose,
                                        now)


class TestAuthorization:
    def test_allowed_vasp_gets_token(self, setup):
        _, server, _ = setup
        token = request(server, 7, {"driving_license_number"})
        assert isinstance(token, claims.AuthorizationToken)
        assert token.audience_vasp_number == 7
        assert token.expires_at == 1 + claims.TOKEN_LIFETIME  # asked at 1

    def test_unlisted_vasp_denied(self, setup):
        _, server, _ = setup
        denial = request(server, 9, {"driving_license_number"})
        assert denial is pki.Refusal.NOT_ALLOWED

    def test_scope_exceeded(self, setup):
        _, server, _ = setup
        denial = request(server, 7,
                         {"driving_license_number", "state_of_residence"})
        assert denial is pki.Refusal.SCOPE_EXCEEDED

    def test_purpose_mismatch(self, setup):
        _, server, _ = setup
        denial = request(server, 7, {"driving_license_number"},
                         purpose="marketing")
        assert denial is pki.Refusal.PURPOSE_MISMATCH

    def test_inactive_policy_denied(self, setup):
        store, server, policy = setup
        store.set_policy("alice", replace(policy, active=False))
        denial = request(server, 7, {"driving_license_number"})
        assert denial is pki.Refusal.POLICY_INACTIVE


class TestFetch:
    def test_fetch_releases_claim_and_receipt(self, setup):
        store, server, policy = setup
        token = request(server, 7, {"driving_license_number"})
        released, receipt = fetch(store, token, now=5)
        assert [c.attribute_name for c in released] == ["driving_license_number"]
        assert receipt.attributes_released == ("driving_license_number",)
        assert receipt.vasp_number == 7
        assert set(receipt.attributes_released) \
            <= set(token.permitted_attributes) <= policy.readable_attributes
        assert receipt_verifies(receipt)

    def test_fetch_after_withdrawal(self, setup):
        store, server, _ = setup
        token = request(server, 7, {"driving_license_number"})
        store.revoke_consent("alice", now=3)
        assert fetch(store, token, now=5) is pki.Refusal.CONSENT_WITHDRAWN
        assert store.receipts == []
        assert store.audit_log[-1] == claims.AuditEntry(
            5, "fetch_refused", (("reason", pki.Refusal.CONSENT_WITHDRAWN),))

    def test_expired_token(self, setup):
        store, server, _ = setup
        token = request(server, 7, {"driving_license_number"}, now=1)
        assert fetch(store, token, now=1 + claims.TOKEN_LIFETIME) \
            is pki.Refusal.TOKEN_EXPIRED
        assert store.receipts == []

    def test_forged_token(self, setup):
        store, server, _ = setup
        token = request(server, 7, {"driving_license_number"})
        forged = replace(token,
                         permitted_attributes=("driving_license_number",
                                               "state_of_residence"))
        assert fetch(store, forged, now=5) is pki.Refusal.BAD_TOKEN
        assert store.receipts == []

    def test_every_refused_fetch_is_audited(self, setup):
        # The audit trail holds every access: a refused fetch writes one
        # fetch_refused row naming its refusal, whichever check refused it.
        store, server, _ = setup
        token = request(server, 7, {"driving_license_number"}, now=1)
        expired = 1 + claims.TOKEN_LIFETIME
        assert fetch(store, token, now=expired) is pki.Refusal.TOKEN_EXPIRED
        assert store.audit_log[-1] == claims.AuditEntry(
            expired, "fetch_refused", (("reason", pki.Refusal.TOKEN_EXPIRED),))
        forged = replace(token, purpose="marketing")
        rows = len(store.audit_log)
        assert fetch(store, forged, now=5) is pki.Refusal.BAD_TOKEN
        assert store.audit_log[rows:] == [claims.AuditEntry(
            5, "fetch_refused", (("reason", pki.Refusal.BAD_TOKEN),))]
        assert store.receipts == []

    def test_revoke_twice_idempotent(self, setup):
        store, _, _ = setup
        store.revoke_consent("alice", now=3)
        store.revoke_consent("alice", now=4)
        revocations = [e for e in store.audit_log if e.event == "consent_revoked"]
        assert len(revocations) == 1

    def test_receipts_survive_withdrawal(self, setup):
        store, server, _ = setup
        token = request(server, 7, {"driving_license_number"})
        _, receipt = fetch(store, token, now=2)
        store.revoke_consent("alice", now=3)
        assert receipt_verifies(receipt)

    def test_expired_claims_not_released(self, setup, provider):
        store, server, _ = setup
        store.add_claim(provider.issue_claim("alice", "driving_license_number",
                                             "OLD", 0, 4))
        token = request(server, 7, {"driving_license_number"})
        released, _ = fetch(store, token, now=5)
        assert [c.attribute_value for c in released] == ["DL-555-0101"]


def test_receipt_count_equals_successful_fetches(setup):
    store, server, _ = setup
    rng = random.Random(6)
    successes = 0
    for i in range(30):
        token = request(server, 7, {"driving_license_number"}, now=i)
        when = i + rng.randint(0, 2 * claims.TOKEN_LIFETIME)
        result = fetch(store, token, now=when)
        if result is pki.Refusal.TOKEN_EXPIRED:
            continue
        assert not isinstance(result, pki.Refusal)
        successes += 1
    assert successes > 0
    assert len(store.receipts) == successes
    released_events = [e for e in store.audit_log if e.event == "claims_released"]
    assert len(released_events) == successes


def test_no_release_without_token_in_audit(setup):
    store, server, _ = setup
    token = request(server, 7, {"driving_license_number"})
    fetch(store, token, now=2)
    released = [e for e in store.audit_log if e.event == "claims_released"]
    assert [dict(e.fields)["token"] for e in released] == [token.token_id]


def test_token_and_receipt_round_trip_wire(setup):
    store, server, _ = setup
    token = request(server, 7, {"driving_license_number"})
    assert codec.canonical_decode(codec.canonical_encode(token),
                                  claims.AuthorizationToken) == token
    _, receipt = fetch(store, token, now=2)
    assert codec.canonical_decode(codec.canonical_encode(receipt),
                                  claims.ConsentReceipt) == receipt


def test_node_fetch_without_a_token_is_a_caller_error(demo_config):
    # A fetch needs the token it presents: asking for one with none held is
    # a programming error, not a refusal, and nothing is sent.
    world = build_world(demo_config)
    vasp = world.vasps[7]
    channel = world.channel_between(vasp, world.stores["alice"])
    sent = len(world.sim.wire_log)
    with pytest.raises(claims.ClaimsError):
        vasp.fetch_claims(channel)
    assert len(world.sim.wire_log) == sent
