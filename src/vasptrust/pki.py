"""Consortium-rooted certificate hierarchy.

One root authority per consortium issues extended-validation identity
certificates carrying verified business fields, plus purpose-bound signing
certificates (transaction signing, claims signing) linked back to the
identity certificate by digest. The hierarchy is one level deep: root over
leaves, no intermediates. The root enforces that every public key appears
in at most one certificate, ever, so an entity's identity, transaction and
claims keys are provably distinct.

One root issues every certificate and the revocation list, so none of
them names an issuer: RFC 5280 §6.1.3's name check has nothing to compare.

Certificates use the package's canonical encoding rather than ASN.1 DER;
``codec.seal`` signs the canonical struct of every field before the
signature, the last.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import codec, crypto
from .crypto import KeyPair


class PkiError(Exception):
    pass


class DuplicateVaspNumber(PkiError):
    pass


class KeyReuse(PkiError):
    """Public key already appears in another certificate of any purpose."""


class InvalidSubject(PkiError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))


class LinkTargetRevoked(PkiError):
    pass


class LinkTargetExpired(PkiError):
    pass


class UnknownSerial(PkiError):
    pass


class InvalidCert(PkiError):
    """A certificate a protocol step relies on does not validate."""


class BusinessActivity(Enum):
    # Provisional taxonomy; no formal VASP activity definition exists yet.
    EXCHANGE = "Exchange"
    TRANSFER = "Transfer"
    CUSTODY = "Custody"
    FINANCIAL_SERVICES = "FinancialServices"
    FUND_MANAGER = "FundManager"
    STABLECOIN_ISSUER = "StablecoinIssuer"


class CertPurpose(Enum):
    TRANSACTION_SIGNING = "TransactionSigning"
    CLAIMS_SIGNING = "ClaimsSigning"


class RevocationReason(Enum):
    KEY_COMPROMISE = "KeyCompromise"
    CESSATION_OF_BUSINESS = "CessationOfBusiness"
    SUPERSEDED = "Superseded"


class Verdict(Enum):
    VALID = "Valid"
    EXPIRED = "Expired"
    NOT_YET_VALID = "NotYetValid"
    REVOKED = "Revoked"
    BAD_SIGNATURE = "BadSignature"
    BROKEN_LINKAGE = "BrokenLinkage"


class Refusal(Enum):
    """Why a member refuses a transfer, a request, an answer or a channel:
    the one vocabulary of refusal events, wire answers and audit rows.
    The wire carries a member's declaration index: new members go last."""

    ORIGINATOR_CONSENT_MISSING = "originator_consent_missing"
    INVALID_PAYLOAD = "invalid_payload"
    MISADDRESSED_PAYLOAD = "misaddressed_payload"
    UNPARSEABLE_BENEFICIARY = "unparseable_beneficiary"
    BENEFICIARY_UNKNOWN = "beneficiary_unknown"
    MULTIPLE_VASPS = "multiple_vasps"
    BENEFICIARY_NAME_MISMATCH = "beneficiary_name_mismatch"
    BENEFICIARY_CONSENT_MISSING = "beneficiary_consent_missing"
    BENEFICIARY_TX_CERT_INVALID = "beneficiary_tx_cert_invalid"
    INSUFFICIENT_FUNDS = "insufficient_funds"
    UNPARSEABLE_IDENTIFIER = "unparseable_identifier"
    INVALID_CALLER = "invalid_caller"  # caller's certificate is not VALID
    NOT_ALLOWED = "NotAllowed"
    SCOPE_EXCEEDED = "ScopeExceeded"
    PURPOSE_MISMATCH = "PurposeMismatch"
    POLICY_INACTIVE = "PolicyInactive"
    TOKEN_SCOPE_MISMATCH = "token_scope_mismatch"
    TOKEN_AUDIENCE_MISMATCH = "token_audience_mismatch"
    TERMS_NOT_COUNTERSIGNED = "terms_not_countersigned"
    BAD_TOKEN = "BadToken"
    TOKEN_EXPIRED = "TokenExpired"
    CONSENT_WITHDRAWN = "ConsentWithdrawn"
    UNKNOWN_DEVICE = "unknown_device"
    ATTESTATION_REFUSED = "attestation_refused"
    NO_EVIDENCE = "no_evidence"
    UNSOLICITED_ANSWER = "unsolicited_answer"
    PARTITIONED = "partitioned"
    POSSESSION_PROOF_FAILED = "PossessionProofFailed"
    UNEXPECTED_MESSAGE = "unexpected_message"
    PEER_REFUSED = "peer_refused"
    EVIDENCE_INVALID = "evidence_invalid"  # its signature or nonce fails
    WALLET_SUPERVISED_ELSEWHERE = "wallet_supervised_elsewhere"
    KEY_HISTORY_INVALID = "key_history_invalid"
    FUNDED_KEY_NOT_MIGRATED = "funded_key_not_migrated"


LEI_LENGTH = 20


@dataclass(frozen=True)
class EvSubjectInfo:
    """Verified business fields of a consortium member.

    ``incorporation_number_or_lei`` holds the LEI when ``is_lei`` is set
    (checked as 20 alphanumerics, no checksum validation), otherwise the
    incorporation number assigned by the incorporating agency.
    """

    organization_name: str
    alt_domain_names: tuple[str, ...]
    incorporation_number_or_lei: str
    is_lei: bool
    place_of_business: str
    jurisdiction: str
    vasp_number: int
    regulated_business_activity: BusinessActivity
    policy_object_identifier: str


@dataclass(frozen=True)
class EvIdentityCertificate:
    serial: int
    subject: EvSubjectInfo
    subject_public_key: bytes
    not_before: int
    not_after: int
    issuer_signature: bytes


@dataclass(frozen=True)
class SigningCertificate:
    serial: int
    purpose: CertPurpose
    subject_public_key: bytes
    identity_linkage: bytes
    not_before: int
    not_after: int
    issuer_signature: bytes


Certificate = EvIdentityCertificate | SigningCertificate


@dataclass(frozen=True)
class RevocationEntry:
    serial: int
    reason: RevocationReason
    revoked_at: int


@dataclass(frozen=True)
class RevocationList:
    entries: tuple[RevocationEntry, ...]
    issued_at: int
    issuer_signature: bytes

    @cached_property
    def serials(self) -> frozenset[int]:
        """Serials of every entry; kept on the list, which never changes."""
        return frozenset(e.serial for e in self.entries)

    def covers(self, serial: int) -> bool:
        return serial in self.serials


def check_subject(subject: EvSubjectInfo) -> list[str]:
    """Collect subject invariant violations; empty list means acceptable."""
    problems = []
    if not subject.organization_name.strip():
        problems.append("organization_name must be the full legal entity name")
    if not subject.alt_domain_names:
        problems.append("at least one alternative domain name is required")
    if any(not d.strip() for d in subject.alt_domain_names):
        problems.append("blank domain name")
    if subject.is_lei:
        lei = subject.incorporation_number_or_lei
        if len(lei) != LEI_LENGTH or not lei.isalnum():
            problems.append("LEI must be 20 alphanumeric characters")
    elif not subject.incorporation_number_or_lei.strip():
        problems.append("incorporation number or LEI is required")
    if not subject.jurisdiction.strip():
        problems.append("jurisdiction of incorporation or registration is required")
    if subject.vasp_number < 0:
        problems.append("vasp_number must be unsigned")
    return problems


def cert_digest(cert: Certificate) -> bytes:
    return crypto.digest(codec.canonical_encode(cert))


def validate_chain(cert: Certificate,
                   root_public_key: bytes,
                   revocation_list: RevocationList,
                   now: int,
                   identity_cert: EvIdentityCertificate | None = None,
                   verified: dict[Certificate, bytes] | None = None) -> Verdict:
    """The verdict on one certificate against the consortium root at tick
    ``now``: VALID, or the first check that fails (RFC 5280 §6.1.6). Pure
    unless a ``verified`` memo is given.

    For a SigningCertificate, pass the candidate identity certificate to
    have the linkage digest checked as part of the chain. ``verified`` maps
    certificates whose root signature verified under ``root_public_key`` to
    their digest; it is read in place of a verify and gains each
    certificate that verifies.
    """
    if verified is None or cert not in verified:
        if not crypto.verify(root_public_key, *codec.unseal(cert)):
            return Verdict.BAD_SIGNATURE
        if verified is not None:
            verified[cert] = cert_digest(cert)
    if revocation_list.covers(cert.serial):
        return Verdict.REVOKED
    standing = Verdict.VALID
    if identity_cert is not None and isinstance(cert, SigningCertificate):
        digest = verified.get(identity_cert) if verified is not None else None
        if cert.identity_linkage != (digest or cert_digest(identity_cert)):
            standing = Verdict.BROKEN_LINKAGE
    return at_tick(cert, now, standing)


def at_tick(signed, now: int, standing: Verdict = Verdict.VALID) -> Verdict:
    """The verdict at tick ``now`` on ``signed`` (a certificate, a claim:
    anything with a validity window [not_before, not_after) whose signature
    verified), given ``standing``, the verdict of its other checks.
    Revocation outranks the window, which outranks linkage."""
    if standing is Verdict.REVOKED:
        return standing
    if now < signed.not_before:
        return Verdict.NOT_YET_VALID
    if now >= signed.not_after:
        return Verdict.EXPIRED
    return standing


# The verdicts that hold at every tick inside the validity window.
_KEPT = frozenset({Verdict.VALID, Verdict.REVOKED, Verdict.BROKEN_LINKAGE})


@dataclass
class VaspCerts:
    identity: EvIdentityCertificate
    transaction: SigningCertificate
    claims: SigningCertificate


class TrustContext:
    """What a node trusts: the root key, the revocation list, the clock,
    member certificates, provider and device attestation keys.

    Every certificate decision a node makes (on a channel peer, a caller,
    a signer, a held origin) goes through its context, which one world's
    nodes share today: ``validate``, which returns a ``Verdict``, or
    ``verify_member_signature``. Certificates are distributed by consortium
    operations; their authenticity rests on the root signature inside each.

    A certificate's root signature is verified once per context and kept
    in ``verified``. Its revocation and its linkage to the identity
    certificate given are decided once per (certificate, identity
    certificate) under the revocation list the context reads: the object
    ``revocations`` returns, so a new list (the root issues one on each
    revocation) drops every kept decision. Only the validity window is
    checked on every call, against ``clock``. A verdict that rests on the
    signature or on the window is never kept: a certificate whose signature
    fails is verified, and refused, anew, and one outside its window is
    decided anew.
    """

    def __init__(self, root_public_key: bytes,
                 revocations: Callable[[], RevocationList],
                 clock: Callable[[], int]):
        self.root_public_key = root_public_key
        self._revocations = revocations
        self.clock = clock
        self.certs: dict[int, Certificate] = {}
        self.members: dict[int, VaspCerts] = {}  # entity number -> certs
        self.provider_keys: dict[str, bytes] = {}
        self.device_attestation_keys: dict[str, bytes] = {}
        # Certificates whose root signature verified -> canonical digest.
        # Keyed by value, signature included, so a forgery never hits.
        self.verified: dict[Certificate, bytes] = {}
        # The signatures of a (certificate, identity certificate) pair ->
        # that pair and its verdict apart from the window, under the
        # revocation list ``_decided_under``. Signatures keep their hashes,
        # where hashing a certificate walks every field; the pair itself is
        # compared, so a forgery that copies a genuine signature never hits.
        self._decided: dict[tuple[bytes, bytes | None], tuple[
            tuple[Certificate, EvIdentityCertificate | None], Verdict]] = {}
        self._decided_under: RevocationList | None = None

    @property
    def revocation_list(self) -> RevocationList:
        return self._revocations()

    def add_member(self, certs: VaspCerts) -> None:
        self.members[certs.identity.subject.vasp_number] = certs
        for cert in (certs.identity, certs.transaction, certs.claims):
            self.certs[cert.serial] = cert

    def validate(self, cert: Certificate,
                 identity_cert: EvIdentityCertificate | None = None
                 ) -> Verdict:
        revocations = self._revocations()
        now = self.clock()
        if revocations is not self._decided_under:
            self._decided = {}
            self._decided_under = revocations
        pair = (cert, identity_cert)
        key = (cert.issuer_signature,
               None if identity_cert is None else identity_cert.issuer_signature)
        kept = self._decided.get(key)
        if kept is not None and kept[0] == pair:
            return at_tick(cert, now, kept[1])
        verdict = validate_chain(cert, self.root_public_key, revocations,
                                 now, identity_cert, self.verified)
        if verdict in _KEPT:
            self._decided[key] = (pair, verdict)
        return verdict

    def verify_member_signature(self, msg: bytes, sig: bytes, serial: int,
                                purpose: CertPurpose,
                                expected_entity: int) -> bool:
        """True iff ``sig`` over ``msg`` verifies under the valid ``purpose``
        certificate ``serial``, linked to the valid identity of member
        ``expected_entity``: every certificate in the path is checked for
        revocation and its validity window (RFC 5280 §6.1.3, narrowed to
        one level)."""
        cert = self.certs.get(serial)
        member = self.members.get(expected_entity)
        if (member is None or not isinstance(cert, SigningCertificate)
                or cert.purpose is not purpose
                or self.validate(member.identity) is not Verdict.VALID
                or self.validate(cert, member.identity) is not Verdict.VALID):
            return False
        return crypto.verify(cert.subject_public_key, msg, sig)


class RootAuthority:
    """Single-writer consortium root: issues, links and revokes certificates.

    The serial registry is shared across identity and signing certificates;
    the used-key registry spans every certificate (and the root key itself)
    so key reuse is refused at issuance.
    """

    def __init__(self, keypair: KeyPair):
        self._keypair = keypair
        self._next_serial = 1
        self._certs: dict[int, Certificate] = {}
        self._vasp_numbers: set[int] = set()
        self._used_keys: set[bytes] = {keypair.public_key}
        self._revocations: dict[int, RevocationEntry] = {}
        self._revocation_list = self._signed(RevocationList, entries=(),
                                             issued_at=0)

    @property
    def public_key(self) -> bytes:
        return self._keypair.public_key

    @property
    def revocation_list(self) -> RevocationList:
        return self._revocation_list

    def issued_certificates(self) -> list[Certificate]:
        return [self._certs[s] for s in sorted(self._certs)]

    def _signed(self, kind: type, **fields):
        """A ``kind`` of ``fields`` issued and signed by this root. A
        certificate takes the next serial and is kept on record."""
        numbered = kind is not RevocationList
        if numbered:
            fields["serial"] = self._next_serial
            self._next_serial += 1
        signed, _ = codec.seal(
            kind(issuer_signature=b"", **fields),
            lambda tbs: crypto.sign(self._keypair.private_key, tbs))
        if numbered:
            self._certs[signed.serial] = signed
        return signed

    def _claim_key(self, public_key: bytes) -> None:
        if public_key in self._used_keys:
            raise KeyReuse("public key already bound to another certificate")
        self._used_keys.add(public_key)

    def issue_identity_cert(self, subject: EvSubjectInfo, subject_public_key: bytes,
                            not_before: int, not_after: int) -> EvIdentityCertificate:
        problems = check_subject(subject)
        if problems:
            raise InvalidSubject(problems)
        if not_before >= not_after:
            raise InvalidSubject(["validity interval is empty"])
        if subject.vasp_number in self._vasp_numbers:
            raise DuplicateVaspNumber(f"vasp_number {subject.vasp_number} already issued")
        self._claim_key(subject_public_key)
        self._vasp_numbers.add(subject.vasp_number)
        return self._signed(EvIdentityCertificate, subject=subject,
                            subject_public_key=subject_public_key,
                            not_before=not_before, not_after=not_after)

    def issue_signing_cert(self, identity_cert: EvIdentityCertificate,
                           purpose: CertPurpose, subject_public_key: bytes,
                           not_before: int, not_after: int) -> SigningCertificate:
        registered = self._certs.get(identity_cert.serial)
        if registered != identity_cert:
            raise UnknownSerial("identity certificate was not issued by this root")
        if identity_cert.serial in self._revocations:
            raise LinkTargetRevoked(f"identity serial {identity_cert.serial} is revoked")
        if identity_cert.not_after <= not_before:
            raise LinkTargetExpired("identity certificate expires before this one begins")
        if not_before >= not_after:
            raise InvalidSubject(["validity interval is empty"])
        self._claim_key(subject_public_key)
        return self._signed(SigningCertificate, purpose=purpose,
                            subject_public_key=subject_public_key,
                            identity_linkage=cert_digest(identity_cert),
                            not_before=not_before, not_after=not_after)

    def revoke(self, serial: int, reason: RevocationReason, now: int) -> RevocationList:
        """Add a revocation entry; idempotent, the earliest entry wins."""
        if serial not in self._certs:
            raise UnknownSerial(f"serial {serial} was never issued")
        if serial not in self._revocations:
            self._revocations[serial] = RevocationEntry(serial, reason, now)
        self._revocation_list = self._signed(RevocationList, entries=tuple(
            self._revocations[s] for s in sorted(self._revocations)),
            issued_at=now)
        return self._revocation_list


def create_consortium_root(seed: bytes) -> RootAuthority:
    return RootAuthority(crypto.generate_keypair(seed))


def cert_to_hex(cert: Certificate) -> str:
    return codec.canonical_encode(cert).hex()
