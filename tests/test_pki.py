"""Certificate hierarchy: issuance, linkage, validation, revocation."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import issue_member, make_subject, seed
from vasptrust import codec, crypto, pki
from vasptrust.netsim.world import build_world
from vasptrust.resolver import ResolverService


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

    def test_identity_this_root_never_drafted(self, root, member):
        other_root = pki.create_consortium_root(seed("other-root"))
        foreign = issue_member(other_root, 8, "foreign")["identity_cert"]
        forged = dataclasses.replace(member["identity_cert"], subject=make_subject(8))
        for identity in (foreign, forged):
            with pytest.raises(pki.UnknownSerial):
                root.draft_signing_cert(identity, pki.CertPurpose.CLAIMS_SIGNING,
                                        crypto.generate_keypair(seed("v")).public_key,
                                        0, 100)

    def test_identity_copy_or_issued_draft_accepted(self, root, member):
        # An equal copy of an issued identity, and a draft whose batch was
        # issued, link by the identity's leaf hash, as the draft's does.
        key = crypto.generate_keypair(seed("later-id")).public_key
        draft = root.draft_identity_cert(make_subject(8), key, 0, 10_000)
        (issued,) = root.issue([draft])
        for identity, target in (
                (dataclasses.replace(member["identity_cert"]),
                 member["identity_cert"]),
                (draft, issued)):
            cert = root.issue_signing_cert(
                identity, pki.CertPurpose.CLAIMS_SIGNING,
                crypto.generate_keypair(seed(f"link:{identity.serial}")).public_key,
                0, 100)
            assert cert.identity_linkage == pki.leaf_hash(identity)
            assert linkage(root, cert, target) is pki.Verdict.VALID

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
        # The member's three certificates share one batch, so each proof
        # has a non-empty audit path to mutate.
        rng = random.Random(77)
        certs = [member["identity_cert"], member["tx_cert"],
                 member["claims_cert"]]
        assert all(c.issuer_proof.audit_path for c in certs)

        def path(hashes):
            i = rng.randrange(len(hashes))
            return rng.choice([
                hashes[:i] + hashes[i + 1:],  # one hash short
                hashes[:i] + (rng.randbytes(32),) + hashes[i:],  # one long
                hashes[:i] + (rng.randbytes(32),) + hashes[i + 1:],
                hashes[::-1]])

        scalar_fields = {
            "serial": lambda v: v + rng.randint(1, 100),
            "not_before": lambda v: v + rng.randint(1, 50),
            "not_after": lambda v: v + rng.randint(1, 50),
            "subject_public_key": lambda v: rng.randbytes(32),
        }
        proof_fields = {
            "tree_size": lambda v: v + rng.randint(1, 100),
            "leaf_index": lambda v: v + rng.randint(1, 100),
            "audit_path": path,
            "head_signature": lambda v: rng.randbytes(64),
        }
        checked, names = 0, set()
        for _ in range(10_000):
            cert = rng.choice(certs)
            name = rng.choice(sorted(scalar_fields) + sorted(proof_fields))
            if name in proof_fields:
                proof = cert.issuer_proof
                mutated = dataclasses.replace(
                    cert, issuer_proof=dataclasses.replace(proof, **{
                        name: proof_fields[name](getattr(proof, name))}))
            else:
                mutated = dataclasses.replace(cert, **{
                    name: scalar_fields[name](getattr(cert, name))})
            if mutated == cert:
                continue
            assert pki.validate_chain(mutated, root.public_key,
                                      root.revocation_list, 5) \
                is not pki.Verdict.VALID, (name, mutated)
            checked += 1
            names.add(name)
        assert checked > 9_000
        assert names == {*scalar_fields, *proof_fields}


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


def test_issue_takes_each_pending_draft_once(root):
    key = crypto.generate_keypair(seed("once")).public_key
    draft = root.draft_identity_cert(make_subject(30), key, 0, 100)
    altered = dataclasses.replace(draft, not_after=10_000)
    for batch in ([draft, draft], [altered]):
        with pytest.raises(pki.UnknownSerial):
            root.issue(batch)
    assert root.issue([]) == [] and root.issued_certificates() == []
    (cert,) = root.issue([draft])
    with pytest.raises(pki.UnknownSerial):
        root.issue([draft])
    assert root.issued_certificates() == [cert]
    assert pki.validate_chain(cert, root.public_key, root.revocation_list,
                              5) is pki.Verdict.VALID


def test_building_a_world_encodes_each_certificate_once(demo_config,
                                                        monkeypatch):
    # A certificate's signing input is encoded once, for its leaf hash when
    # it is drafted: a signing certificate takes its linkage from the leaf
    # hash kept with its identity's draft, and the issued certificate is
    # the draft with its proof. The demo world has 14: three per VASP, and
    # one identity each for Alice's store and authorization server, the
    # insurer, the claims provider and Alice's wallet device.
    encoded = []

    def recording(value, encode=codec.struct_bytes):
        encoded.append(value)
        return encode(value)

    monkeypatch.setattr(codec, "struct_bytes", recording)
    world = build_world(demo_config)
    monkeypatch.undo()
    certs = [v for v in encoded if isinstance(
        v, (pki.EvIdentityCertificate, pki.SigningCertificate))]
    assert len(certs) == len(world.root.issued_certificates()) == 14


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


# -- issuer proofs: a batch's Merkle tree and its signed head --------------------

class TestProof:
    """Each hostile proof is refused BAD_SIGNATURE. A proof that places its
    leaf at no index of its tree, or whose audit path is not exactly as
    long as that index needs, is refused before any verify."""

    @pytest.fixture
    def verifies(self, monkeypatch):
        calls = []
        real = crypto.verify

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(crypto, "verify", counting)
        return calls

    @staticmethod
    def verdict(root, cert, verified=None) -> pki.Verdict:
        return pki.validate_chain(cert, root.public_key, root.revocation_list,
                                  5, verified=verified)

    @staticmethod
    def with_proof(cert, **changes):
        return dataclasses.replace(cert, issuer_proof=dataclasses.replace(
            cert.issuer_proof, **changes))

    def test_the_batch_shares_one_head(self, root, member, verifies):
        certs = [member[k] for k in ("identity_cert", "tx_cert", "claims_cert")]
        assert [c.issuer_proof.leaf_index for c in certs] == [0, 1, 2]
        verified = set()
        assert all(self.verdict(root, c, verified) is pki.Verdict.VALID
                   for c in certs)
        assert len(verifies) == len(verified) == 1

    def test_flipped_byte_in_the_signing_input(self, root, member):
        cert = member["tx_cert"]
        key = bytearray(cert.subject_public_key)
        key[5] ^= 0x01
        forged = dataclasses.replace(cert, subject_public_key=bytes(key))
        assert self.verdict(root, forged) is pki.Verdict.BAD_SIGNATURE

    def test_another_certificate_proof_from_the_same_batch(self, root, member):
        for cert, other in (("tx_cert", "claims_cert"),
                            ("claims_cert", "identity_cert")):
            forged = dataclasses.replace(
                member[cert], issuer_proof=member[other].issuer_proof)
            assert self.verdict(root, forged) is pki.Verdict.BAD_SIGNATURE

    def test_index_past_the_tree(self, root, member, verifies):
        # In a tree of 3, index 4 walks leaf 0's path to the genuine root:
        # only the index check refuses it.
        cert = member["identity_cert"]
        assert cert.issuer_proof.tree_size == 3
        for index in (3, 4):
            forged = self.with_proof(cert, leaf_index=index)
            assert pki.proven_head(forged) is None
            assert self.verdict(root, forged) is pki.Verdict.BAD_SIGNATURE
        assert verifies == []

    @pytest.mark.parametrize("change", ["short", "long"])
    def test_audit_path_one_hash_off(self, root, member, verifies, change):
        for name in ("identity_cert", "claims_cert"):
            path = member[name].issuer_proof.audit_path
            forged = self.with_proof(member[name], audit_path=path[:-1]
                                     if change == "short" else path + path[:1])
            assert pki.proven_head(forged) is None
            assert self.verdict(root, forged) is pki.Verdict.BAD_SIGNATURE
        assert verifies == []

    def test_head_signed_by_a_member_key(self, root, member):
        cert = member["claims_cert"]
        size, root_hash, _ = pki.proven_head(cert)
        head = codec.struct_bytes(pki.TreeHead(size, root_hash, b""))
        forged = self.with_proof(cert, head_signature=crypto.sign(
            member["identity"].private_key, head))
        assert self.verdict(root, forged) is pki.Verdict.BAD_SIGNATURE
        assert pki.validate_chain(forged, member["identity"].public_key,
                                  root.revocation_list, 5) is pki.Verdict.VALID

    def test_forgery_reusing_a_head_in_the_memo(self, root, member, verifies):
        verified = set()
        assert self.verdict(root, member["claims_cert"], verified) \
            is pki.Verdict.VALID
        cached = set(verified)
        forged = dataclasses.replace(
            member["claims_cert"],
            subject_public_key=crypto.generate_keypair(seed("forger")).public_key)
        assert forged.issuer_proof == member["claims_cert"].issuer_proof
        assert self.verdict(root, forged, verified) is pki.Verdict.BAD_SIGNATURE
        assert verified == cached and len(verifies) == 2


def merkle_tree_hash(leaves: list[bytes]) -> bytes:
    """MTH of RFC 6962 §2.1, as defined there, over leaf hashes."""
    if len(leaves) == 1:
        return leaves[0]
    k = 1
    while 2 * k < len(leaves):
        k *= 2
    return crypto.digest(b"\x01" + merkle_tree_hash(leaves[:k])
                         + merkle_tree_hash(leaves[k:]))


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 64), data=st.data())
def test_every_leaf_proves_and_no_changed_proof_does(size, data):
    root = pki.create_consortium_root(seed("batch-root"))
    batch = root.issue([root.draft_identity_cert(
        make_subject(n), n.to_bytes(32, "big"), 0, 100) for n in range(size)])
    verified = set()
    for cert in batch:
        assert pki.validate_chain(cert, root.public_key, root.revocation_list,
                                  1, verified=verified) is pki.Verdict.VALID
    assert verified == {(size, merkle_tree_hash([pki.leaf_hash(c) for c in batch]),
                         batch[0].issuer_proof.head_signature)}
    cert = data.draw(st.sampled_from(batch))
    blob = bytearray(codec.canonical_encode(cert.issuer_proof))
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(
        st.integers(1, 255))
    try:
        proof = codec.canonical_decode(bytes(blob), pki.IssuerProof)
    except codec.DecodeError:
        return  # a proof that does not decode is never checked
    forged = dataclasses.replace(cert, issuer_proof=proof)
    assert pki.validate_chain(forged, root.public_key, root.revocation_list,
                              1, verified=verified) is pki.Verdict.BAD_SIGNATURE


# -- the trust context's memo of verified tree heads ----------------------

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
        assert trust.verified == {pki.proven_head(member["claims_cert"])}
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
        cached = set(trust.verified)
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
        adv = ResolverService(7, set()).build_advertisement(
            member["claims"].private_key, member["claims_cert"].serial, ())
        return trust.verify_member_signature(adv, codec.struct_bytes(adv), 7)

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
        # An identity certificate that copies the genuine one's serial and
        # proof finds the kept decision's key but not its value.
        genuine = member["identity_cert"]
        copied = dataclasses.replace(other["identity_cert"],
                                     serial=genuine.serial,
                                     issuer_proof=genuine.issuer_proof)
        for identity in (other["identity_cert"], copied):
            assert trust.validate(member["claims_cert"], identity) \
                is pki.Verdict.BROKEN_LINKAGE
        assert trust.validate(member["claims_cert"],
                              member["identity_cert"]) is pki.Verdict.VALID
        assert trust.validate(copied) is pki.Verdict.BAD_SIGNATURE
