"""Identifier parsing, registration, lookup, and LSA-style federation."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import carried, issue_member, make_subject, seed, trust_context
from vasptrust import codec, crypto, pki
from vasptrust.resolver import (CustomerIdentifier, IdentifierKind,
                                MergeOutcome, ResolverService,
                                ResolverError, UnknownCustomer, Unparseable,
                                _valid_domain, parse_identifier)


class TestParsing:
    def test_payid(self):
        ident = parse_identifier("alice$acmepay.com")
        assert ident.kind is IdentifierKind.PAY_ID
        assert (ident.local_part, ident.domain_part) == ("alice", "acmepay.com")

    def test_email(self):
        ident = parse_identifier("bob@idp2.com")
        assert ident.kind is IdentifierKind.EMAIL
        assert (ident.local_part, ident.domain_part) == ("bob", "idp2.com")

    def test_empty_string(self):
        with pytest.raises(Unparseable):
            parse_identifier("")

    def test_bare_key_hex(self):
        key = crypto.generate_keypair(seed("bare")).public_key
        ident = parse_identifier(key.hex())
        assert ident.kind is IdentifierKind.BARE_PUBLIC_KEY
        assert ident.key_bytes == key
        assert parse_identifier(ident.render()) == ident

    def test_render_lowercases_domain_only(self):
        a = parse_identifier("Alice@IDP1.COM")
        assert a.render() == "Alice@idp1.com"

    @pytest.mark.parametrize("bad", ["@", "$", "a@", "@b", "a$", "zz", "a b",
                                     "a@b@", "x$y@z", "deadbeef"])
    def test_unparseable_strings(self, bad):
        with pytest.raises(Unparseable):
            parse_identifier(bad)


DOMAIN_CHARS = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                "0123456789.-")


def reference_valid_domain(domain: str) -> bool:
    """A domain is non-empty, opens with no dot, and each of its characters
    is an ASCII letter, a digit, a dot or a hyphen."""
    if not domain or domain[0] == ".":
        return False
    for c in domain:
        if c not in DOMAIN_CHARS:
            return False
    return True


@settings(max_examples=400)
@given(st.one_of(st.text(), st.text(alphabet=DOMAIN_CHARS),
                 st.text(alphabet=DOMAIN_CHARS).map(lambda s: "." + s),
                 st.just("")))
@example(".")
@example(".idp1.com")
@example("IDP1.COM.")
@example("idp 1.com")
@example("idp1.cöm")
@example("idp1.com\n")
def test_valid_domain_agrees_with_a_per_character_check(domain):
    assert _valid_domain(domain) == reference_valid_domain(domain)


def reference_refuses(kind: IdentifierKind, local: str, domain: str,
                      key: bytes) -> bool:
    """The identifier rules: a bare key carries its key bytes and nothing
    else; an email or payment identifier carries a local part and a valid
    domain, and no key bytes."""
    if kind is IdentifierKind.BARE_PUBLIC_KEY:
        return not key or bool(local) or bool(domain)
    return bool(key) or not local or not reference_valid_domain(domain)


def reference_render(kind: IdentifierKind, local: str, domain: str,
                     key: bytes) -> str:
    if kind is IdentifierKind.BARE_PUBLIC_KEY:
        return "key:" + key.hex()
    separator = "@" if kind is IdentifierKind.EMAIL else "$"
    return local + separator + domain.lower()


PARTS = st.one_of(st.just(""), st.text(max_size=6),
                  st.text(alphabet=DOMAIN_CHARS, max_size=10),
                  st.text(alphabet=DOMAIN_CHARS, max_size=10).map(lambda s: "." + s))


@settings(max_examples=400)
@given(st.sampled_from(IdentifierKind), PARTS, PARTS,
       st.one_of(st.just(b""), st.binary(max_size=33)))
@example(IdentifierKind.BARE_PUBLIC_KEY, "", "", b"")
@example(IdentifierKind.BARE_PUBLIC_KEY, "", "x.com", b"k")
@example(IdentifierKind.EMAIL, "bob", "idp2.com", b"k")
@example(IdentifierKind.PAY_ID, "alice", "AcmePay.COM", b"")
@example(IdentifierKind.PAY_ID, "alice", ".acmepay.com", b"")
def test_construction_refuses_what_the_rules_refuse(kind, local, domain, key):
    # Every CustomerIdentifier is valid: construction refuses exactly the
    # combinations the rules refuse, and renders the rest canonically.
    refused = reference_refuses(kind, local, domain, key)
    try:
        ident = CustomerIdentifier(kind, local, domain, key)
    except Unparseable:
        assert refused
        return
    assert not refused
    assert ident.render() == reference_render(kind, local, domain, key)
    assert dataclasses.replace(ident) == ident


@pytest.fixture
def service():
    svc = ResolverService(9, {"bob", "dave"})
    svc.register_identifier("bob", parse_identifier("bob@idp2.com"))
    return svc


class TestRegistration:
    def test_unknown_customer(self, service):
        with pytest.raises(UnknownCustomer):
            service.register_identifier("mallory",
                                        parse_identifier("m$x.com"))

    def test_multiple_identifiers_per_customer(self, service):
        service.register_identifier("bob", parse_identifier("bob$betaex.com"))
        for s in ("bob@idp2.com", "bob$betaex.com"):
            assert service.local_customer_for(parse_identifier(s)) == "bob"
        assert service.local_customer_for(parse_identifier("x$betaex.com")) \
            is None


class FederationWorld:
    """Three resolver services with certified claims keys, and the trust
    context they share at time 1. Member N's certificate lists ``vN.com``
    and ``domains``, so it may advertise PayIDs on them."""

    def __init__(self, root, domains: tuple[str, ...] = ("x.com",)):
        self.root = root
        self.services = {}
        self.creds = {}
        self.tx_keys = {}
        members = []
        for number in (3, 7, 9):
            m = issue_member(root, number, f"fed:{number}",
                             (f"v{number}.com", *domains))
            self.services[number] = ResolverService(number, {f"user{number}"})
            self.creds[number] = (m["identity_cert"], m["claims_cert"],
                                  m["claims"])
            self.tx_keys[number] = m["tx"]
            members.append(m)
        self.trust = trust_context(root, *members)

    def advertise(self, number):
        identity_cert, claims_cert, claims = self.creds[number]
        return self.services[number].build_advertisement(
            claims.private_key, claims_cert.serial,
            identity_cert.subject.alt_domain_names)

    def merge(self, into, adv):
        return self.services[into].merge_advertisement(adv, self.trust)


@pytest.fixture
def federation(root):
    return FederationWorld(root)


def signed_as(fed, origin, **changes):
    """Origin ``origin``'s next advertisement with ``changes``, validly
    signed with its own claims key."""
    _, _, claims = fed.creds[origin]
    unsigned = dataclasses.replace(fed.advertise(origin), **changes)
    return dataclasses.replace(unsigned, signature=crypto.sign(
        claims.private_key, codec.struct_bytes(unsigned)))


class TestLookup:
    def test_single_hit(self, service):
        hits = service.lookup(parse_identifier("bob@idp2.com"))
        assert hits == [9]

    def test_multi_vasp_hit(self, federation):
        fed = federation
        fed.services[3].register_identifier("user3",
                                            parse_identifier("dave@idp2.com"))
        fed.services[9].register_identifier("user9",
                                            parse_identifier("dave@idp2.com"))
        fed.merge(7, fed.advertise(3))
        fed.merge(7, fed.advertise(9))
        hits = fed.services[7].lookup(parse_identifier("dave@idp2.com"))
        assert hits == [3, 9]

    def test_unknown_identifier(self, service):
        assert service.lookup(parse_identifier("nobody@idp2.com")) == []

    def test_lookup_result_carries_numbers_only(self, service):
        hits = service.lookup(parse_identifier("bob@idp2.com"))
        assert all(isinstance(h, int) for h in hits)


class TestAdvertisements:
    def test_contains_all_local_identifiers(self, federation):
        svc = federation.services[3]
        svc.register_identifier("user3", parse_identifier("a$x.com"))
        svc.register_identifier("user3", parse_identifier("b$x.com"))
        svc.register_identifier("user3", parse_identifier("c$x.com"))
        svc.register_identifier("user3", parse_identifier("d@x.com"))
        svc.register_identifier("user3", parse_identifier(KEY_HEX))
        adv = federation.advertise(3)
        # x.com is third on VASP 3's certificate.
        assert adv.payids == ((2, ("a", "b", "c")),)
        assert adv.emails == (("x.com", ("d",)),)
        assert adv.keys == (bytes(range(32)),)
        assert carried(adv, federation.trust) == [
            "a$x.com", "b$x.com", "c$x.com", "d@x.com", f"key:{KEY_HEX}"]

    def test_payid_on_a_domain_not_held_cannot_be_built(self, federation):
        svc = federation.services[3]
        svc.register_identifier("user3", parse_identifier("a$v9.com"))
        with pytest.raises(ResolverError):
            federation.advertise(3)
        assert svc._sequence == 0

    def test_empty_list_still_signed(self, federation):
        adv = federation.advertise(3)
        assert (adv.payids, adv.emails, adv.keys) == ((), (), ())
        assert federation.merge(7, adv) is MergeOutcome.APPLIED

    def test_repeated_identifier_rejected(self, federation):
        # Validly signed by VASP 3, but listing one local part twice.
        adv = signed_as(federation, 3, payids=((2, ("a", "a")),))
        assert federation.merge(7, adv) is MergeOutcome.REJECTED
        assert federation.services[7].resolve_map() == {}

    def test_non_canonical_identifier_answers_no_lookup(self, federation):
        # A lookup renders its argument first, so a non-canonical string
        # could never match: the merge refuses it, and indexes nothing.
        adv = signed_as(federation, 3, emails=(("IDP1.COM", ("Alice",)),))
        assert federation.merge(7, adv) is MergeOutcome.REJECTED
        assert federation.services[7]._remote_index == {}
        for asked in ("Alice@IDP1.COM", "Alice@idp1.com"):
            assert federation.services[7].lookup(parse_identifier(asked)) == []

    def test_sequences_increment(self, federation):
        first = federation.advertise(3)
        second = federation.advertise(3)
        assert (first.sequence, second.sequence) == (1, 2)

    def test_first_merge_applied_replay_stale(self, federation):
        adv = federation.advertise(3)
        assert federation.merge(7, adv) is MergeOutcome.APPLIED
        assert federation.merge(7, adv) is MergeOutcome.STALE

    def test_bad_signature_rejected(self, federation):
        adv = federation.advertise(3)
        forged = dataclasses.replace(adv, sequence=adv.sequence + 1)
        assert federation.merge(7, forged) is MergeOutcome.REJECTED

    def test_stale_forgery_is_stale_before_any_crypto(self, federation,
                                                      monkeypatch):
        fed = federation
        adv = fed.advertise(3)
        assert fed.merge(7, adv) is MergeOutcome.APPLIED
        receiver = fed.services[7]
        view_before = receiver.resolve_map()
        verifies = []
        real_verify = crypto.verify
        monkeypatch.setattr(crypto, "verify", lambda *args: (
            verifies.append(args), real_verify(*args))[1])
        forged = dataclasses.replace(
            adv, payids=((2, ("mallory",)),),
            signature=b"\x00" * 64)
        assert fed.merge(7, forged) is MergeOutcome.STALE
        assert verifies == []
        assert receiver.known_advertisements()[0] is adv
        assert receiver.resolve_map() == view_before
        # The counter does count: a newer forgery is verified and refused.
        newer = dataclasses.replace(forged, sequence=adv.sequence + 1)
        assert fed.merge(7, newer) is MergeOutcome.REJECTED
        assert len(verifies) > 0
        assert receiver.known_advertisements()[0] is adv

    def test_own_origin_never_taken_from_the_federation(self, federation):
        fed = federation
        fed.services[7].register_identifier("user7",
                                            parse_identifier("me$x.com"))
        echo = fed.advertise(7)
        assert fed.merge(7, echo) is MergeOutcome.STALE
        assert 7 not in fed.services[7]._remote

    def test_drop_origin_unindexes(self, federation):
        fed = federation
        fed.services[3].register_identifier("user3",
                                            parse_identifier("gone$x.com"))
        fed.merge(7, fed.advertise(3))
        fed.services[7].drop_origin(3)
        assert fed.services[7].resolve_map() == {}
        assert fed.services[7].known_advertisements() == []

    def test_origin_number_must_match_cert(self, federation):
        # VASP 9 signs, with its own valid claims key, an advertisement
        # that names VASP 3 as its origin.
        _, claims_cert, _ = federation.creds[9]
        adv = signed_as(federation, 9, vasp_number=3)
        assert adv.signer_cert_serial == claims_cert.serial
        assert federation.merge(7, adv) is MergeOutcome.REJECTED

    def test_revoked_origin_rejected(self, federation):
        adv = federation.advertise(3)
        _, claims_cert, _ = federation.creds[3]
        federation.root.revoke(claims_cert.serial,
                               pki.RevocationReason.KEY_COMPROMISE, 2)
        assert federation.merge(7, adv) is MergeOutcome.REJECTED

    def test_revoked_origin_identity_rejected(self, federation):
        # Only the identity certificate is revoked; the claims certificate
        # that signed the advertisement is not.
        adv = federation.advertise(3)
        identity_cert, _, _ = federation.creds[3]
        federation.root.revoke(identity_cert.serial,
                               pki.RevocationReason.CESSATION_OF_BUSINESS, 1)
        assert federation.merge(7, adv) is MergeOutcome.REJECTED

    def test_expired_origin_identity_rejected(self, root):
        # The identity certificate expired at 100; the claims certificate
        # that signs stays valid until 1000. At 500 the member's signature
        # counts for nothing (RFC 5280 §6.1.3: every certificate in the
        # path must be within its validity period).
        identity = crypto.generate_keypair(seed("expiring:id"))
        claims = crypto.generate_keypair(seed("expiring:claims"))
        tx = crypto.generate_keypair(seed("expiring:tx"))
        identity_cert = root.issue_identity_cert(
            make_subject(3), identity.public_key, 0, 100)
        claims_cert, tx_cert = (
            root.issue_signing_cert(identity_cert, purpose, key.public_key,
                                    0, 1000)
            for purpose, key in ((pki.CertPurpose.CLAIMS_SIGNING, claims),
                                 (pki.CertPurpose.TRANSACTION_SIGNING, tx)))
        trust = trust_context(root, {"identity_cert": identity_cert,
                                     "tx_cert": tx_cert,
                                     "claims_cert": claims_cert}, now=500)
        assert trust.validate(identity_cert) is pki.Verdict.EXPIRED
        assert trust.validate(claims_cert, identity_cert) is pki.Verdict.VALID
        adv = ResolverService(3, {"user3"}).build_advertisement(
            claims.private_key, claims_cert.serial, ())
        assert not trust.verify_member_signature(
            codec.struct_bytes(adv), adv.signature, claims_cert.serial,
            pki.CertPurpose.CLAIMS_SIGNING, 3)
        assert ResolverService(7, set()).merge_advertisement(adv, trust) \
            is MergeOutcome.REJECTED

    def test_transaction_key_cannot_sign_advertisements(self, federation):
        # Signed by VASP 3's transaction key under its transaction-signing
        # certificate: authentic, but not a claims-signing certificate.
        tx_cert = federation.trust.members[3].transaction
        unsigned = dataclasses.replace(federation.advertise(3),
                                       signer_cert_serial=tx_cert.serial)
        adv = dataclasses.replace(unsigned, signature=crypto.sign(
            federation.tx_keys[3].private_key, codec.struct_bytes(unsigned)))
        assert federation.merge(7, adv) is MergeOutcome.REJECTED

    def test_newer_advertisement_withdraws_identifier(self, federation):
        fed = federation
        svc = fed.services[3]
        svc.register_identifier("user3", parse_identifier("old$x.com"))
        fed.merge(7, fed.advertise(3))
        assert fed.services[7].lookup(parse_identifier("old$x.com")) == [3]
        # Withdraw by advertising a fresh full state without the identifier.
        svc._local.pop("old$x.com")
        fed.merge(7, fed.advertise(3))
        assert fed.services[7].lookup(parse_identifier("old$x.com")) == []


def from_scratch_table(advertisements, trust):
    """Oracle: rebuild remote state using only the highest-sequence
    advertisement per origin."""
    newest = {}
    for adv in advertisements:
        held = newest.get(adv.vasp_number)
        if held is None or adv.sequence > held.sequence:
            newest[adv.vasp_number] = adv
    table = {}
    for origin, adv in newest.items():
        for rendered in carried(adv, trust):
            table.setdefault(rendered, set()).add(origin)
    return {k: sorted(v) for k, v in sorted(table.items())}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([3, 9]), st.integers(0, 4)),
                min_size=1, max_size=20), st.randoms(use_true_random=False))
def test_incremental_merge_equals_from_scratch(schedule, rng):
    root = pki.create_consortium_root(seed("lsa-root"))
    fed = FederationWorld(root)
    # Pre-generate advertisement versions per origin: each version adds an
    # identifier, so sequence k has k identifiers.
    versions = {}
    for origin in (3, 9):
        versions[origin] = []
        for k in range(5):
            fed.services[origin].register_identifier(
                f"user{origin}", parse_identifier(f"u{k}$v{origin}.com"))
            versions[origin].append(fed.advertise(origin))

    receiver = fed.services[7]
    seen = []
    for origin, version in schedule:
        adv = versions[origin][version]
        seen.append(adv)
        outcome = fed.merge(7, adv)
        assert outcome in (MergeOutcome.APPLIED, MergeOutcome.STALE)
        if rng.random() < 0.3:  # duplicate delivery
            assert fed.merge(7, adv) is MergeOutcome.STALE

    expected = from_scratch_table(seen, fed.trust)
    remote_view = {}
    for adv in receiver.known_advertisements():
        for rendered in carried(adv, fed.trust):
            remote_view.setdefault(rendered, set()).add(adv.vasp_number)
    remote_view = {k: sorted(v) for k, v in sorted(remote_view.items())}
    assert remote_view == expected
    # The incrementally maintained lookup index must agree as well.
    assert receiver.resolve_map() == expected


KEY_HEX = bytes(range(32)).hex()


NON_CANONICAL = {  # name -> fields build_advertisement never makes
    # VASP 3's certificate lists vasp3.example, v3.com and x.com: PayID
    # indexes 0, 1 and 2.
    "groups_unsorted": {"payids": ((2, ("a",)), (1, ("b",)))},
    "suffix_twice": {"payids": ((2, ("a",)), (2, ("b",)))},
    "index_past_the_certificate": {"payids": ((3, ("a",)),)},
    "locals_unsorted": {"payids": ((2, ("b", "a")),)},
    "no_local_part": {"payids": ((2, ()),)},
    "empty_local": {"payids": ((2, ("",)),)},
    "email_groups_unsorted": {"emails": (("y.com", ("a",)), ("x.com", ("a",)))},
    "email_domain_twice": {"emails": (("x.com", ("a",)), ("x.com", ("b",)))},
    "email_locals_unsorted": {"emails": (("x.com", ("b", "a")),)},
    "empty_group": {"emails": (("x.com", ()),)},
    "email_empty_local": {"emails": (("x.com", ("",)),)},
    "dollar_under_at": {"emails": (("x.com", ("a$b",)),)},
    "domain_not_lowercase": {"emails": (("X.COM", ("a",)),)},
    "invalid_domain": {"emails": ((".x.com", ("a",)),)},
    "no_domain": {"emails": (("", ("a",)),)},
    "suffix_split_at_the_wrong_separator": {"emails": (("a$x.com", ("b",)),)},
    "key_of_31_bytes": {"keys": (bytes(31),)},
    "key_of_33_bytes": {"keys": (bytes(33),)},
    "keys_unsorted": {"keys": (bytes([1]) * 32, bytes(32))},
    "key_twice": {"keys": (bytes(32), bytes(32))},
    # A named identifier, a key's hex text, and no key at all where a
    # key's 32 bytes go.
    "named_under_bare_key_suffix": {"keys": (b"a$x.com",)},
    "key_without_prefix": {"keys": (KEY_HEX.encode(),)},
    "bare_key_not_hex": {"keys": (b"zz",)},
}


def assert_refused_whole(fed, changes):
    """VASP 7 holds VASP 3's advertisement of kept$x.com; a newer one with
    ``changes``, validly signed by VASP 3, is refused, and VASP 7 keeps the
    advertisement and index it had."""
    fed.services[3].register_identifier("user3", parse_identifier("kept$x.com"))
    held = fed.advertise(3)
    assert fed.merge(7, held) is MergeOutcome.APPLIED
    receiver = fed.services[7]
    assert fed.merge(7, signed_as(fed, 3, **changes)) is MergeOutcome.REJECTED
    assert receiver.known_advertisements() == [held]
    assert receiver._remote_index == {"kept$x.com": {3}}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_non_canonical_grouping_rejected(federation, name):
    assert_refused_whole(federation, NON_CANONICAL[name])


@pytest.mark.parametrize("domains", [("x.com", "X.COM"), ("x.com", "no such.com")])
def test_payid_index_of_a_repeated_or_invalid_domain_rejected(root, domains):
    # VASP 3's certificate lists vasp3.example, v3.com, x.com and a fourth
    # domain: x.com again in upper case, whose PayIDs have index 2, or a
    # domain no PayID renders on. Index 3 names neither.
    assert_refused_whole(FederationWorld(root, domains),
                         {"payids": ((3, ("a",)),)})


@pytest.mark.parametrize("domain", ["v9.com", "nobody.com"])
def test_payid_on_a_domain_the_origin_does_not_hold_rejected(federation,
                                                             domain):
    # VASP 3 registers a PayID on a domain its identity certificate does
    # not list (VASP 9's, or no member's) and builds as if the certificate
    # listed it fourth: every receiver reads index 3 against VASP 3's own
    # certificate, which lists three domains, and refuses the advertisement
    # whole.
    fed = federation
    fed.services[3].register_identifier("user3", parse_identifier("kept$x.com"))
    held = fed.advertise(3)
    assert fed.merge(7, held) is MergeOutcome.APPLIED
    identity_cert, claims_cert, claims = fed.creds[3]
    fed.services[3].register_identifier("user3", parse_identifier(f"bob${domain}"))
    squat = fed.services[3].build_advertisement(
        claims.private_key, claims_cert.serial,
        (*identity_cert.subject.alt_domain_names, domain))
    assert squat.payids == ((2, ("kept",)), (3, ("bob",)))
    assert fed.merge(7, squat) is MergeOutcome.REJECTED
    assert fed.services[7].known_advertisements() == [held]
    assert fed.services[7]._remote_index == {"kept$x.com": {3}}


def test_payid_domain_held_in_another_case_is_applied(root):
    # A certificate's domains compare in lower case, as rendered PayIDs do,
    # and a domain listed twice is grouped under its first index.
    fed = FederationWorld(root, domains=("X.Com", "x.COM"))
    fed.services[3].register_identifier("user3", parse_identifier("a$x.COM"))
    adv = fed.advertise(3)
    assert adv.payids == ((2, ("a",)),)
    assert fed.merge(7, adv) is MergeOutcome.APPLIED
    assert fed.services[7].lookup(parse_identifier("a$x.com")) == [3]


_LOCAL = st.text("abAB09._-@$", min_size=1, max_size=6)
_DOMAIN = st.text("ab0.-", min_size=1, max_size=5).filter(
    lambda d: not d.startswith("."))
# The domains on VASP 3's certificate in the round trip, as listed: PayIDs
# are drawn on them in any case.
_HELD = ("v3.com", "X.Com", "a-0.B", "x.com", "b")
_CANONICAL = st.one_of(
    st.builds(lambda local, domain: f"{local}${domain}", _LOCAL,
              st.sampled_from(_HELD).flatmap(lambda d: st.sampled_from(
                  [d, d.lower(), d.upper()]))),
    st.builds(lambda local, domain: f"{local}@{domain}",
              _LOCAL.filter(lambda local: "$" not in local), _DOMAIN),
    st.binary(min_size=32, max_size=32).map(lambda key: key.hex()),
)


@pytest.fixture(scope="module")
def round_trip_world():
    return FederationWorld(pki.create_consortium_root(seed("round-trip-root")),
                           _HELD[1:])


@settings(max_examples=300, deadline=None)
@given(st.sets(_CANONICAL, max_size=12))
def test_any_canonical_identifiers_build_merge_and_resolve_back(round_trip_world,
                                                                 written):
    # Whatever canonical identifiers an origin registers, on a domain of
    # its certificate in any case, it advertises, and a receiver resolves
    # exactly those.
    fed = round_trip_world
    origin, receiver = ResolverService(3, {"u"}), ResolverService(7, set())
    for s in written:
        origin.register_identifier("u", parse_identifier(s))
    identity_cert, claims_cert, claims = fed.creds[3]
    adv = origin.build_advertisement(claims.private_key, claims_cert.serial,
                                     identity_cert.subject.alt_domain_names)
    assert receiver.merge_advertisement(adv, fed.trust) is MergeOutcome.APPLIED
    assert receiver.resolve_map() == {
        parse_identifier(s).render(): [3] for s in written}
    receiver.drop_origin(3)
    assert receiver.resolve_map() == {} and receiver._remote_index == {}


@settings(max_examples=60, deadline=None)
@given(st.sets(_CANONICAL, max_size=12))
def test_grouping_expands_back_and_costs_at_most_a_suffix_per_group(round_trip_world,
                                                                    written):
    fed = round_trip_world
    service = ResolverService(3, {"u"})
    for s in written:
        service.register_identifier("u", parse_identifier(s))
    identity_cert, claims_cert, claims = fed.creds[3]
    adv = service.build_advertisement(claims.private_key, claims_cert.serial,
                                      identity_cert.subject.alt_domain_names)
    rendered = {parse_identifier(s).render() for s in written}
    expanded = carried(adv, fed.trust)
    assert len(expanded) == len(rendered) and set(expanded) == rendered

    # A PayID group pays 1 B for its domain, its index, where its strings
    # paid their suffix each; an e-mail group pays its domain once. Each
    # group also pays its own length and its local parts' (1 B each under
    # 128 B). A bare key is its 32 bytes and their length.
    def size(values):
        return sum(len(codec.canonical_encode(v)) for v in values)

    for key, locals_ in adv.payids + adv.emails:
        items = size(locals_)
        group = len(codec.canonical_encode((key, locals_), tuple[
            type(key), tuple[str, ...]]))
        assert group - items == 2 + size([key]) or items >= 127
        assert size([key]) == 1 or isinstance(key, str)
    assert size(adv.keys) == 33 * len(adv.keys)
