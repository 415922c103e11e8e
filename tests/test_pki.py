"""Certificate hierarchy: issuance, linkage, validation, revocation."""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import issue_member, make_subject, seed
from vasptrust import codec, crypto, pki


def test_fresh_root_state(root):
    assert root.revocation_list.entries == ()
    again = pki.create_consortium_root(seed("root"))
    assert again.public_key == root.public_key
    other = pki.create_consortium_root(seed("other-root"))
    assert other.public_key != root.public_key


def test_first_issuance_serial_one(root):
    key = crypto.generate_keypair(seed("s1")).public_key
    cert = root.issue_identity_cert(make_subject(7, "ACME VASP Ltd"), key, 0, 100)
    assert cert.serial == 1
    assert cert.subject.organization_name == "ACME VASP Ltd"
    assert pki.validate_chain(cert, root.public_key, root.revocation_list,
                              5) is pki.Verdict.VALID


def test_duplicate_vasp_number_rejected(root):
    k1 = crypto.generate_keypair(seed("d1")).public_key
    k2 = crypto.generate_keypair(seed("d2")).public_key
    root.issue_identity_cert(make_subject(7), k1, 0, 100)
    with pytest.raises(pki.DuplicateVaspNumber):
        root.issue_identity_cert(make_subject(7), k2, 0, 100)


def test_key_reuse_rejected_across_all_purposes(root):
    k1 = crypto.generate_keypair(seed("r1")).public_key
    root.issue_identity_cert(make_subject(7), k1, 0, 100)
    with pytest.raises(pki.KeyReuse):
        root.issue_identity_cert(make_subject(8), k1, 0, 100)


def test_invalid_subject_reported(root):
    bad = dataclasses.replace(make_subject(7), organization_name="  ")
    with pytest.raises(pki.InvalidSubject):
        root.issue_identity_cert(bad, crypto.generate_keypair(seed("x")).public_key,
                                 0, 100)
    no_domains = dataclasses.replace(make_subject(7), alt_domain_names=())
    with pytest.raises(pki.InvalidSubject):
        root.issue_identity_cert(no_domains,
                                 crypto.generate_keypair(seed("y")).public_key,
                                 0, 100)


def test_lei_checked_as_20_alnum(root):
    ok = dataclasses.replace(make_subject(7), is_lei=True,
                             incorporation_number_or_lei="5493001KJTIIGC8Y1R12")
    root.issue_identity_cert(ok, crypto.generate_keypair(seed("lei1")).public_key,
                             0, 100)
    bad = dataclasses.replace(make_subject(8), is_lei=True,
                              incorporation_number_or_lei="TOO-SHORT")
    with pytest.raises(pki.InvalidSubject):
        root.issue_identity_cert(bad,
                                 crypto.generate_keypair(seed("lei2")).public_key,
                                 0, 100)


def linkage(root, signing_cert, identity_cert) -> pki.Verdict:
    """The chain check's verdict on ``signing_cert`` linked to
    ``identity_cert``, at a tick inside both windows: VALID or
    BROKEN_LINKAGE."""
    return pki.validate_chain(signing_cert, root.public_key,
                              root.revocation_list, 1,
                              identity_cert=identity_cert)


class TestSigningCerts:
    def test_linkage_holds(self, root, member):
        assert linkage(root, member["tx_cert"], member["identity_cert"]) \
            is pki.Verdict.VALID

    def test_reusing_identity_key_is_keyreuse(self, root, member):
        with pytest.raises(pki.KeyReuse):
            root.issue_signing_cert(member["identity_cert"],
                                    pki.CertPurpose.TRANSACTION_SIGNING,
                                    member["identity"].public_key, 0, 100)

    def test_multiple_transaction_certs_allowed(self, root, member):
        extra = crypto.generate_keypair(seed("extra-tx"))
        cert = root.issue_signing_cert(member["identity_cert"],
                                       pki.CertPurpose.TRANSACTION_SIGNING,
                                       extra.public_key, 0, 10_000)
        for c in (member["tx_cert"], cert):
            verdict = pki.validate_chain(c, root.public_key,
                                         root.revocation_list, 10,
                                         identity_cert=member["identity_cert"])
            assert verdict is pki.Verdict.VALID

    def test_link_target_revoked(self, root, member):
        root.revoke(member["identity_cert"].serial,
                    pki.RevocationReason.KEY_COMPROMISE, now=5)
        with pytest.raises(pki.LinkTargetRevoked):
            root.issue_signing_cert(member["identity_cert"],
                                    pki.CertPurpose.CLAIMS_SIGNING,
                                    crypto.generate_keypair(seed("z")).public_key,
                                    6, 100)

    def test_link_target_expired(self, root):
        key = crypto.generate_keypair(seed("short-id"))
        cert = root.issue_identity_cert(make_subject(42), key.public_key, 0, 10)
        with pytest.raises(pki.LinkTargetExpired):
            root.issue_signing_cert(cert, pki.CertPurpose.CLAIMS_SIGNING,
                                    crypto.generate_keypair(seed("w")).public_key,
                                    10, 100)

    def test_linkage_breaks_on_any_subject_field_change(self, root, member):
        # Re-encoding the identity cert after mutating each EV field in
        # turn must break the digest linkage.
        identity = member["identity_cert"]
        subject = identity.subject
        mutations = {
            "organization_name": "Other Corp",
            "alt_domain_names": ("evil.example",),
            "incorporation_number_or_lei": "INC-XXXXX",
            "is_lei": True,
            "place_of_business": "2 Other Way",
            "jurisdiction": "Elsewhere",
            "vasp_number": 999,
            "regulated_business_activity": pki.BusinessActivity.CUSTODY,
            "policy_object_identifier": "9.9.9",
        }
        assert set(mutations) == {f.name for f in dataclasses.fields(subject)}
        for field_name, new_value in mutations.items():
            mutated = dataclasses.replace(
                identity, subject=dataclasses.replace(subject,
                                                      **{field_name: new_value}))
            assert linkage(root, member["tx_cert"], mutated) \
                is pki.Verdict.BROKEN_LINKAGE, field_name

    def test_linkage_fails_for_other_identity(self, root, member):
        other_key = crypto.generate_keypair(seed("other-id"))
        other = root.issue_identity_cert(make_subject(11), other_key.public_key,
                                         0, 100)
        assert linkage(root, member["tx_cert"], other) \
            is pki.Verdict.BROKEN_LINKAGE


class TestValidation:
    def test_time_window(self, root, member):
        cert = member["identity_cert"]
        for now, verdict in ((0, pki.Verdict.VALID), (9_999, pki.Verdict.VALID),
                             (10_000, pki.Verdict.EXPIRED)):
            assert pki.validate_chain(cert, root.public_key,
                                      root.revocation_list, now) is verdict

    def test_not_yet_valid(self, root):
        key = crypto.generate_keypair(seed("nyv"))
        cert = root.issue_identity_cert(make_subject(12), key.public_key, 50, 100)
        assert pki.validate_chain(cert, root.public_key, root.revocation_list,
                                  10) is pki.Verdict.NOT_YET_VALID

    def test_revoked_cert(self, root, member):
        revocation_list = root.revoke(member["identity_cert"].serial,
                                      pki.RevocationReason.SUPERSEDED, now=7)
        assert pki.validate_chain(member["identity_cert"], root.public_key,
                                  revocation_list, 8) is pki.Verdict.REVOKED

    def test_revocation_dominates_expiry(self, root, member):
        revocation_list = root.revoke(member["identity_cert"].serial,
                                      pki.RevocationReason.SUPERSEDED, now=7)
        for now in (7, 100, 9_999, 50_000):
            assert pki.validate_chain(member["identity_cert"], root.public_key,
                                      revocation_list, now) is pki.Verdict.REVOKED

    def test_every_byte_tamper_rejected(self, root, member):
        # Exhaustive single-byte corruption over the encoded certificate;
        # a blob that no longer decodes cannot verify either.
        cert = member["identity_cert"]
        blob = codec.canonical_encode(cert)
        rng = random.Random(5)
        for index in range(len(blob)):
            tampered = bytearray(blob)
            delta = rng.randint(1, 255)
            tampered[index] ^= delta
            try:
                decoded = codec.canonical_decode(bytes(tampered),
                                                 pki.EvIdentityCertificate)
            except codec.DecodeError:
                continue
            verdict = pki.validate_chain(decoded, root.public_key,
                                         root.revocation_list, 5)
            assert verdict is not pki.Verdict.VALID, f"byte {index}"

    def test_random_single_field_mutations_never_valid(self, root, member):
        rng = random.Random(77)
        certs = [member["identity_cert"], member["tx_cert"],
                 member["claims_cert"]]
        scalar_fields = {
            "serial": lambda v: v + rng.randint(1, 100),
            "not_before": lambda v: v + rng.randint(1, 50),
            "not_after": lambda v: v + rng.randint(1, 50),
            "subject_public_key": lambda v: rng.randbytes(32),
        }
        checked = 0
        for _ in range(10_000):
            cert = rng.choice(certs)
            name = rng.choice(sorted(scalar_fields))
            mutated = dataclasses.replace(cert,
                                          **{name: scalar_fields[name](
                                              getattr(cert, name))})
            if mutated == cert:
                continue
            assert pki.validate_chain(mutated, root.public_key,
                                      root.revocation_list, 5) \
                is not pki.Verdict.VALID
            checked += 1
        assert checked > 9_000


class TestRevocation:
    def test_revoke_records_entry(self, root, member):
        revocation_list = root.revoke(member["tx_cert"].serial,
                                      pki.RevocationReason.KEY_COMPROMISE, now=3)
        assert revocation_list.covers(member["tx_cert"].serial)
        assert crypto.verify(root.public_key, codec.struct_bytes(revocation_list),
                             revocation_list.issuer_signature)

    def test_unknown_serial(self, root):
        with pytest.raises(pki.UnknownSerial):
            root.revoke(999, pki.RevocationReason.SUPERSEDED, now=1)

    def test_revoke_idempotent_keeps_earliest(self, root, member):
        first = root.revoke(member["tx_cert"].serial,
                            pki.RevocationReason.KEY_COMPROMISE, now=3)
        second = root.revoke(member["tx_cert"].serial,
                             pki.RevocationReason.SUPERSEDED, now=9)
        entries = [e for e in second.entries
                   if e.serial == member["tx_cert"].serial]
        assert len(entries) == 1
        assert entries[0] == first.entries[-1]
        assert entries[0].revoked_at == 3

    def test_entries_sorted_and_monotone(self, root, member):
        root.revoke(member["claims_cert"].serial,
                    pki.RevocationReason.SUPERSEDED, now=2)
        revocation_list = root.revoke(member["identity_cert"].serial,
                                      pki.RevocationReason.SUPERSEDED, now=4)
        serials = [e.serial for e in revocation_list.entries]
        assert serials == sorted(serials)
        assert revocation_list.serials == set(serials)
        assert {member["claims_cert"].serial,
                member["identity_cert"].serial} <= set(serials)


def test_registry_has_no_duplicate_keys(root):
    rng = random.Random(31)
    for n in range(20):
        identity = crypto.generate_keypair(rng.randbytes(32))
        cert = root.issue_identity_cert(make_subject(100 + n),
                                        identity.public_key, 0, 100)
        root.issue_signing_cert(cert, pki.CertPurpose.TRANSACTION_SIGNING,
                                crypto.generate_keypair(rng.randbytes(32)).public_key,
                                0, 100)
    keys = [c.subject_public_key for c in root.issued_certificates()]
    assert len(keys) == len(set(keys))


def test_validation_is_pure(root, member):
    args = (member["identity_cert"], root.public_key, root.revocation_list, 5)
    assert pki.validate_chain(*args) == pki.validate_chain(*args)


def test_hex_export_import(member):
    for cert in (member["identity_cert"], member["tx_cert"]):
        data = bytes.fromhex(pki.cert_to_hex(cert))
        assert codec.canonical_decode(data, type(cert)) == cert


# -- the trust context's memo of verified root signatures ----------------------

class TestVerifiedMemo:
    """Each case runs on a certificate the context has already cached."""

    @pytest.fixture
    def clock(self):
        return [1]

    @pytest.fixture
    def trust(self, root, member, clock):
        trust = pki.TrustContext(root.public_key, lambda: root.revocation_list,
                                 lambda: clock[0])
        assert trust.validate(member["claims_cert"], member["identity_cert"]) \
            is pki.Verdict.VALID
        assert member["claims_cert"] in trust.verified
        return trust

    @pytest.fixture
    def verifies(self, monkeypatch):
        calls = []
        real = crypto.verify

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(crypto, "verify", counting)
        return calls

    def test_cached_certificate_is_not_verified_again(self, trust, member, verifies):
        assert trust.validate(member["claims_cert"], member["identity_cert"]) \
            is pki.Verdict.VALID
        assert verifies == []

    def test_revoked_after_caching(self, trust, root, member):
        root.revoke(member["claims_cert"].serial,
                    pki.RevocationReason.KEY_COMPROMISE, now=1)
        assert trust.validate(member["claims_cert"], member["identity_cert"]) \
            is pki.Verdict.REVOKED

    def test_expired_after_caching(self, trust, member, clock):
        clock[0] = member["claims_cert"].not_after
        assert trust.validate(member["claims_cert"], member["identity_cert"]) \
            is pki.Verdict.EXPIRED

    @pytest.mark.parametrize("changes", [
        {"subject_public_key": crypto.generate_keypair(seed("forger")).public_key},
        {"not_after": 99_999},
        {"purpose": pki.CertPurpose.TRANSACTION_SIGNING},
    ])
    def test_forgery_with_a_genuine_serial(self, trust, member, verifies, changes):
        forged = dataclasses.replace(member["claims_cert"], **changes)
        assert forged.serial == member["claims_cert"].serial
        cached = dict(trust.verified)
        for _ in range(2):
            assert trust.validate(forged, member["identity_cert"]) \
                is pki.Verdict.BAD_SIGNATURE
        assert len(verifies) == 2
        assert trust.verified == cached


class TestDecidedOnce:
    """A certificate's signature, revocation and linkage are decided once
    per revocation list; the validity window is checked on every call."""

    @pytest.fixture
    def clock(self):
        return [1]

    @pytest.fixture
    def trust(self, root, member, clock):
        trust = pki.TrustContext(root.public_key, lambda: root.revocation_list,
                                 lambda: clock[0])
        trust.add_member(pki.VaspCerts(member["identity_cert"],
                                       member["tx_cert"], member["claims_cert"]))
        return trust

    @pytest.fixture
    def decided(self, monkeypatch):
        certs = []
        real = pki.validate_chain

        def counting(*args):
            certs.append(args[0])
            return real(*args)

        monkeypatch.setattr(pki, "validate_chain", counting)
        return certs

    def signs(self, trust, member) -> bool:
        sig = crypto.sign(member["claims"].private_key, b"m")
        return trust.verify_member_signature(
            b"m", sig, member["claims_cert"].serial,
            pki.CertPurpose.CLAIMS_SIGNING, 7)

    def test_each_tick_reads_the_kept_decision(self, trust, member, clock,
                                               decided):
        for tick in (1, 2, 2, 5):
            clock[0] = tick
            assert self.signs(trust, member)
            assert trust.validate(member["claims_cert"],
                                  member["identity_cert"]) is pki.Verdict.VALID
        assert decided == [member["identity_cert"], member["claims_cert"]]

    def test_a_new_list_is_decided_anew(self, trust, root, member, decided):
        assert self.signs(trust, member)
        root.revoke(member["tx_cert"].serial,
                    pki.RevocationReason.SUPERSEDED, now=1)
        assert self.signs(trust, member)
        assert len(decided) == 4
        root.revoke(member["identity_cert"].serial,
                    pki.RevocationReason.KEY_COMPROMISE, now=1)
        assert not self.signs(trust, member)
        assert trust.validate(member["identity_cert"]) is pki.Verdict.REVOKED

    def test_window_follows_the_clock(self, trust, member, clock):
        assert self.signs(trust, member)
        clock[0] = member["identity_cert"].not_after
        assert not self.signs(trust, member)
        assert trust.validate(member["identity_cert"]) is pki.Verdict.EXPIRED

    def test_other_identity_is_decided_apart(self, trust, root, member):
        other = issue_member(root, 8, "other")
        assert trust.validate(member["claims_cert"],
                              member["identity_cert"]) is pki.Verdict.VALID
        # An identity certificate that copies the genuine one's signature
        # finds the kept decision's key but not its value.
        copied = dataclasses.replace(other["identity_cert"],
                                     issuer_signature=member["identity_cert"]
                                     .issuer_signature)
        for identity in (other["identity_cert"], copied):
            assert trust.validate(member["claims_cert"], identity) \
                is pki.Verdict.BROKEN_LINKAGE
        assert trust.validate(member["claims_cert"],
                              member["identity_cert"]) is pki.Verdict.VALID
        assert trust.validate(copied) is pki.Verdict.BAD_SIGNATURE
