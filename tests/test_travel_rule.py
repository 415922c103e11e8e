"""Travel-rule payloads: completeness, consent, signing, correlation."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import issue_member, seed, trust_context
from vasptrust import codec, crypto, pki, travel_rule as tr
from vasptrust.ledger import Ledger, make_transfer
from vasptrust.netsim import build_world


def alice(**overrides):
    fields = dict(customer_id="A-001", legal_name="Alice Example",
                  geographic_address="1 Main St, Cambridge MA")
    fields.update(overrides)
    return tr.CustomerRecord(**fields)


def build(originator=None, amount=125):
    return tr.build_payload(originator or alice(), "Bob Jones", "B-900",
                            9, amount, 7, 1)


class TestBuildAndValidate:
    def test_complete_payload(self):
        payload = build()
        assert payload.originator_name == "Alice Example"
        assert payload.originator_account == "A-001"
        assert tr.validate_payload(payload) == ()

    def test_identifying_alternatives_priority(self):
        record = alice(geographic_address=None, national_id="ID-1",
                       customer_number="C-1")
        payload = build(record)
        assert payload.originator_identifying.kind is tr.IdentifyingKind.NATIONAL_ID

    def test_birth_info_fallback(self):
        record = alice(geographic_address=None,
                       birth_info=("1990-01-02", "Springfield"))
        payload = build(record)
        info = payload.originator_identifying
        assert info.kind is tr.IdentifyingKind.BIRTH_INFO
        assert (info.value, info.extra) == ("1990-01-02", "Springfield")

    def test_missing_all_identifying_data(self):
        with pytest.raises(tr.IncompleteOriginatorData):
            build(alice(geographic_address=None))

    def test_zero_amount(self):
        with pytest.raises(ValueError):
            build(amount=0)

    def test_blank_beneficiary_flagged_exactly(self):
        payload = replace(build(), beneficiary_name="   ")
        assert tr.validate_payload(payload) == ("beneficiary_name",)

    def test_presence_matrix_all_32_combinations(self):
        complete = build()
        for bits in itertools.product((True, False), repeat=5):
            payload = replace(
                complete,
                originator_name=complete.originator_name if bits[0] else "",
                originator_account=complete.originator_account if bits[1] else "",
                originator_identifying=(complete.originator_identifying
                                        if bits[2] else None),
                beneficiary_name=complete.beneficiary_name if bits[3] else "",
                beneficiary_account=complete.beneficiary_account if bits[4] else "")
            expected_missing = tuple(
                name for name, present in zip(tr.REQUIRED_FIELDS, bits)
                if not present)
            assert tr.validate_payload(payload) == expected_missing

    def test_payload_id_binds_content(self):
        # The id is derived from the payload, never carried in it.
        payload = build()
        assert payload.payload_id \
            == crypto.digest(codec.canonical_encode(payload))
        altered = replace(payload, amount=payload.amount + 1)
        assert altered.payload_id != payload.payload_id
        renumbered = replace(payload, transfer_number=2)
        assert renumbered.payload_id != payload.payload_id


class TestConsent:
    @pytest.fixture
    def store(self):
        return tr.ConsentStore({"alice", "bob"})

    def test_grant_and_check(self, store):
        store.record("bob", tr.ConsentDirection.RECEIVE_ASSETS, None, now=1)
        assert store.check("bob", tr.ConsentDirection.RECEIVE_ASSETS, 7, now=2)

    def test_unknown_customer(self, store):
        with pytest.raises(tr.UnknownCustomer):
            store.record("mallory", tr.ConsentDirection.RECEIVE_ASSETS, None, 1)

    def test_withdraw(self, store):
        store.record("bob", tr.ConsentDirection.RECEIVE_ASSETS, None, now=1)
        store.withdraw("bob", tr.ConsentDirection.RECEIVE_ASSETS, None, now=5)
        assert not store.check("bob", tr.ConsentDirection.RECEIVE_ASSETS, None, 6)

    def test_scoped_consent_does_not_leak(self, store):
        store.record("bob", tr.ConsentDirection.RECEIVE_ASSETS, 7, now=1)
        assert store.check("bob", tr.ConsentDirection.RECEIVE_ASSETS, 7, now=2)
        assert not store.check("bob", tr.ConsentDirection.RECEIVE_ASSETS, 9, now=2)

    def test_wrong_direction(self, store):
        store.record("bob", tr.ConsentDirection.RECEIVE_ASSETS, None, now=1)
        assert not store.check("bob",
                               tr.ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                               None, 2)

    def test_regrant_after_withdraw(self, store):
        store.record("alice", tr.ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                     None, now=1)
        store.withdraw("alice", tr.ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                       None, now=2)
        store.record("alice", tr.ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                     None, now=3)
        assert store.check("alice",
                           tr.ConsentDirection.SEND_INFO_TO_COUNTERPARTY,
                           None, 4)


    def test_node_withdraw_consent(self, demo_config):
        world = build_world(demo_config)
        vasp = world.vasps[9]
        send = tr.ConsentDirection.SEND_INFO_TO_COUNTERPARTY
        recv = tr.ConsentDirection.RECEIVE_ASSETS
        vasp.grant_consent("bob", recv, 7)
        vasp.grant_consent("bob", recv, 3)
        vasp.grant_consent("bob", send, 7)
        vasp.grant_consent("dave", recv, 7)
        vasp.withdraw_consent("bob", recv, 7)
        now = world.sim.now
        assert not vasp.consents.check("bob", recv, 7, now)
        # Another counterparty, the other direction, another customer.
        assert vasp.consents.check("bob", recv, 3, now)
        assert vasp.consents.check("bob", send, 7, now)
        assert vasp.consents.check("dave", recv, 7, now)
        [event] = world.sim.trace.find("travel_rule.consent_withdrawn")
        assert (event.actor, event.get("vasp"), event.get("direction")) == \
            ("customer:bob", 9, recv.value)


def _live(rec, now):
    return rec.granted_at <= now and (rec.withdrawn_at is None
                                      or rec.withdrawn_at > now)


class LinearConsents:
    """The reference store: every question scans every record stored. An
    unscoped record (counterparty None) answers for every counterparty."""

    def __init__(self):
        self.records = []

    def record(self, customer_id, direction, counterparty, now):
        self.records.append(tr.ConsentRecord(customer_id, direction,
                                             counterparty, granted_at=now))

    def withdraw(self, customer_id, direction, counterparty, now):
        for rec in self.records:
            if (rec.customer_id == customer_id and rec.direction is direction
                    and rec.counterparty_vasp_number == counterparty
                    and _live(rec, now)):
                rec.withdrawn_at = now

    def check(self, customer_id, direction, counterparty, now):
        return any(rec.customer_id == customer_id and rec.direction is direction
                   and rec.counterparty_vasp_number in (None, counterparty)
                   and _live(rec, now)
                   for rec in self.records)


CONSENT_QUESTIONS = list(itertools.product(
    ["alice", "bob"], list(tr.ConsentDirection), [None, 0, 7]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["record", "withdraw"]),
                          st.sampled_from(CONSENT_QUESTIONS)), max_size=24))
def test_consent_store_matches_linear_scan(ops):
    store, reference = tr.ConsentStore({"alice", "bob"}), LinearConsents()
    for i, (op, question) in enumerate(ops):
        now = i // 2  # pairs of operations share a tick
        getattr(store, op)(*question, now)
        getattr(reference, op)(*question, now)
        for asked in CONSENT_QUESTIONS:
            assert store.check(*asked, now) == reference.check(*asked, now)
    assert store.records == reference.records


class TestSignedPayload:
    # The conftest member is VASP 7, the originator ``build`` names.
    def test_sign_and_verify(self, root, member):
        trust = trust_context(root, member)
        signed, _ = tr.sign_payload(member["claims"].private_key,
                                    member["claims_cert"].serial, build())
        assert tr.verify_signed_payload(signed, trust, 7)

    def test_signing_gives_the_payload_its_id_without_an_encode(
            self, member, monkeypatch):
        # The signer's id is the digest of the bytes its signing input
        # opens with, which are the payload's canonical encoding: asking
        # for it afterwards encodes nothing.
        payload = build()
        tr.sign_payload(member["claims"].private_key,
                        member["claims_cert"].serial, payload)
        expected = crypto.digest(codec.canonical_encode(replace(payload)))
        encodes = []
        monkeypatch.setattr(codec, "canonical_encode",
                            lambda *args: encodes.append(args))
        assert payload.payload_id == expected and encodes == []

    @pytest.mark.parametrize("signer, serial", [
        ("tx", "tx_cert"), ("vasp3_claims", "claims_cert")],
        ids=["transaction_key_and_cert", "other_members_claims_key"])
    def test_signer_is_not_checked_but_the_receiver_refuses(
            self, root, member, signer, serial):
        # sign_payload seals whatever it is given. The receiver refuses a
        # payload signed with VASP 7's transaction key under its transaction
        # certificate's serial, and one signed with VASP 3's claims key
        # under VASP 7's claims certificate's serial.
        vasp3 = issue_member(root, 3, "vasp3")
        key = {"tx": member["tx"], "vasp3_claims": vasp3["claims"]}[signer]
        signed, _ = tr.sign_payload(key.private_key, member[serial].serial,
                                    build())
        trust = trust_context(root, member, vasp3)
        assert not tr.verify_signed_payload(signed, trust, 7)
        assert not tr.verify_signed_payload(signed, trust, 3)

    def test_tampered_payload_fails(self, root, member):
        trust = trust_context(root, member)
        signed, _ = tr.sign_payload(member["claims"].private_key,
                                    member["claims_cert"].serial, build())
        tampered = replace(signed, payload=replace(signed.payload, amount=999))
        assert not tr.verify_signed_payload(tampered, trust, 7)

    def test_wrong_serial_fails(self, root, member):
        trust = trust_context(root, member)
        signed, _ = tr.sign_payload(member["claims"].private_key,
                                    member["claims_cert"].serial, build())
        wrong = replace(signed, signer_cert_serial=999)
        assert not tr.verify_signed_payload(wrong, trust, 7)

    def test_signer_must_be_the_named_vasp(self, root, member):
        # VASP 3 signs a payload that names VASP 7 as its originator.
        vasp3 = issue_member(root, 3, "vasp3")
        trust = trust_context(root, member, vasp3)
        signed, _ = tr.sign_payload(vasp3["claims"].private_key,
                                    vasp3["claims_cert"].serial, build())
        assert signed.payload.originating_vasp_number == 7
        assert tr.verify_signed_payload(signed, trust, 3)
        assert not tr.verify_signed_payload(signed, trust, 7)

    def test_revoked_identity_fails(self, root, member):
        trust = trust_context(root, member)
        signed, _ = tr.sign_payload(member["claims"].private_key,
                                    member["claims_cert"].serial, build())
        root.revoke(member["identity_cert"].serial,
                    pki.RevocationReason.CESSATION_OF_BUSINESS, 1)
        assert not tr.verify_signed_payload(signed, trust, 7)


def brute_force_bipartite(payloads, outputs):
    """Oracle: enumerate all injective payload->output assignments where
    the output pays (hint key, hint amount); return the set of complete
    assignments."""
    solutions = []

    def extend(i, used, acc):
        if i == len(payloads):
            solutions.append(tuple(acc))
            return
        hint = payloads[i].correlation
        for j, (key, amount) in enumerate(outputs):
            if j in used:
                continue
            if key == hint.expected_key and amount == hint.expected_amount:
                extend(i + 1, used | {j}, acc + [j])

    extend(0, set(), [])
    return set(solutions)


def tx_id(tx) -> bytes:
    """A transaction's id: the digest of its signing input."""
    return crypto.digest(codec.struct_bytes(tx))


class TestCorrelation:
    def _ledger_with_tx(self, outputs, memo=None):
        src = crypto.generate_keypair(seed("corr:src"))
        total = sum(a for _, a in outputs)
        ledger = Ledger([(src.public_key, total)])
        tx = make_transfer([(src.public_key, total)], outputs,
                           {src.public_key:
                            lambda m: crypto.sign(src.private_key, m)},
                           memo_tag=memo)
        ledger.submit_transfer(tx)
        ledger.confirm_block()
        return ledger, tx

    def test_memo_tag_match(self):
        beneficiary = crypto.generate_keypair(seed("corr:bene"))
        payload = build()
        ledger, tx = self._ledger_with_tx([(beneficiary.public_key, 125)],
                                          memo=payload.payload_id)
        store = tr.CorrelationStore()
        record = store.correlate(payload, ledger, (1, ledger.height))
        assert record.tx_id == tx_id(tx) and record.output_index == 0
        # Re-correlating the same payload is idempotent.
        assert store.correlate(payload, ledger, (1, ledger.height)) == record

    def test_memo_tag_match_narrowed_by_amount(self):
        # A memo-tagged transaction paying the beneficiary and a second
        # output: the output paying the payload's amount is the match.
        beneficiary = crypto.generate_keypair(seed("corr:bene"))
        change = crypto.generate_keypair(seed("corr:change"))
        payload = build()
        ledger, tx = self._ledger_with_tx(
            [(change.public_key, 40), (beneficiary.public_key, payload.amount)],
            memo=payload.payload_id)
        record = tr.CorrelationStore().correlate(payload, ledger,
                                                 (1, ledger.height))
        assert (record.tx_id, record.output_index) == (tx_id(tx), 1)

    def test_no_match(self):
        beneficiary = crypto.generate_keypair(seed("corr:none"))
        ledger, _ = self._ledger_with_tx([(beneficiary.public_key, 1)])
        payload = build()
        with pytest.raises(tr.NoMatch):
            tr.CorrelationStore().correlate(payload, ledger, (1, ledger.height))

    def _batch_payloads(self, keys, amounts):
        payloads = []
        for n, (key, amount) in enumerate(zip(keys, amounts), 1):
            hint = tr.CorrelationHint(tr.HintKind.KEY_AMOUNT,
                                      expected_key=key.public_key,
                                      expected_amount=amount)
            payloads.append(tr.build_payload(alice(), "Bob Jones", "B-900", 9,
                                             amount, 7, n, hint=hint))
        return payloads

    def test_batch_three_outputs_bijective(self):
        keys = [crypto.generate_keypair(seed(f"corr:b{i}")) for i in range(3)]
        amounts = [10, 20, 30]
        ledger, tx = self._ledger_with_tx(
            [(k.public_key, a) for k, a in zip(keys, amounts)])
        payloads = self._batch_payloads(keys, amounts)

        oracle = brute_force_bipartite(
            payloads, [(o.public_key, o.amount) for o in tx.outputs])
        assert len(oracle) == 1, "oracle: unique perfect matching expected"

        store = tr.CorrelationStore()
        records = [store.correlate(p, ledger, (1, ledger.height))
                   for p in payloads]
        assert tuple(r.output_index for r in records) == next(iter(oracle))
        assert len({(r.tx_id, r.output_index) for r in records}) == 3

    def test_equal_amounts_without_tags_ambiguous(self):
        key = crypto.generate_keypair(seed("corr:amb"))
        other = crypto.generate_keypair(seed("corr:amb2"))
        ledger, tx = self._ledger_with_tx(
            [(key.public_key, 50), (key.public_key, 50),
             (other.public_key, 70)])
        hint = tr.CorrelationHint(tr.HintKind.KEY_AMOUNT,
                                  expected_key=key.public_key,
                                  expected_amount=50)
        payload = tr.build_payload(alice(), "Bob Jones", "B-900", 9, 50, 7, 1,
                                   hint=hint)
        oracle = brute_force_bipartite(
            [payload], [(o.public_key, o.amount) for o in tx.outputs])
        assert len(oracle) == 2, "designed ambiguity"
        with pytest.raises(tr.AmbiguousMatch):
            tr.CorrelationStore().correlate(payload, ledger, (1, ledger.height))

    def test_consumed_output_not_reused(self):
        key = crypto.generate_keypair(seed("corr:reuse"))
        ledger, _ = self._ledger_with_tx([(key.public_key, 50)])
        hint = tr.CorrelationHint(tr.HintKind.KEY_AMOUNT,
                                  expected_key=key.public_key,
                                  expected_amount=50)
        first = tr.build_payload(alice(), "Bob Jones", "B-900", 9, 50, 7, 1,
                                 hint=hint)
        second = tr.build_payload(alice(customer_id="A-002"), "Bob Jones",
                                  "B-900", 9, 50, 7, 2, hint=hint)
        store = tr.CorrelationStore()
        store.correlate(first, ledger, (1, ledger.height))
        with pytest.raises(tr.NoMatch):
            store.correlate(second, ledger, (1, ledger.height))

    def test_window_excludes_heights(self):
        beneficiary = crypto.generate_keypair(seed("corr:window"))
        payload = build()
        ledger, _ = self._ledger_with_tx([(beneficiary.public_key, 125)],
                                         memo=payload.payload_id)
        with pytest.raises(tr.NoMatch):
            tr.CorrelationStore().correlate(payload, ledger, (2, 10))


TX_KEY = bytes(range(32))


@pytest.mark.parametrize("request_payload", [
    build(),
    build(alice(geographic_address=None, national_id="ID-1")),
    build(alice(geographic_address=None,
                birth_info=("1990-01-02", "Springfield"))),
    tr.build_payload(alice(), "Bob Jones", "B-900", 9, 125, 7, 1,
                     tr.CorrelationHint(tr.HintKind.KEY_AMOUNT, TX_KEY, 125)),
], ids=["geographic_address", "national_id", "birth_info", "key_amount"])
def test_answer_rebuilt_from_its_delta(root, member, request_payload):
    # The originator rebuilds the signed answer, byte for byte, from the
    # request it holds, the transaction key it pays and the delta it
    # receives, which carries none of the request's originator data and
    # no hint; rebuilt on another request or key, the answer fails its
    # signature.
    trust = trust_context(root, member)
    signed, _ = tr.sign_payload(member["claims"].private_key,
                                member["claims_cert"].serial,
                                tr.answer_payload(request_payload, "B-901", TX_KEY))
    delta = tr.answer_delta(signed)
    rebuilt = tr.rebuild_answer(request_payload, delta, TX_KEY)
    assert rebuilt == signed
    assert codec.canonical_encode(rebuilt) == codec.canonical_encode(signed)
    assert tr.verify_signed_payload(rebuilt, trust, 7)
    wire = codec.canonical_encode(delta)
    identifying = request_payload.originator_identifying
    assert not any(text.encode() in wire for text in (
        request_payload.originator_name, request_payload.originator_account,
        identifying.value, identifying.extra) if text)
    assert TX_KEY not in wire
    for other in (tr.rebuild_answer(replace(request_payload, amount=126), delta, TX_KEY),
                  tr.rebuild_answer(request_payload, delta, bytes(32))):
        assert not tr.verify_signed_payload(other, trust, 7)


def test_dump_payload_store(root, member):
    signed, _ = tr.sign_payload(member["claims"].private_key,
                                member["claims_cert"].serial, build())
    text = tr.dump_payload_store([("outbound", codec.canonical_encode(signed))])
    assert "outbound" in text and signed.payload.payload_id.hex() in text
