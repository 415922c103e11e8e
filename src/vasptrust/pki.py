"""Consortium-rooted certificate hierarchy.

One root authority per consortium issues extended-validation identity
certificates carrying verified business fields, plus purpose-bound signing
certificates (transaction signing, claims signing) linked back to the
identity certificate by its leaf hash. The hierarchy is one level deep:
root over leaves, no intermediates. The root enforces that every public key
appears in at most one certificate, ever, so an entity's identity,
transaction and claims keys are provably distinct.

One root issues every certificate and the revocation list, so none of
them names an issuer: RFC 5280 §6.1.3's name check has nothing to compare.

The root issues certificates in batches, as a Merkle tree certificate
authority does (draft-davidben-tls-merkle-tree-certs). It drafts each
certificate, then ``RootAuthority.issue`` hashes the batch into one tree
(RFC 6962 §2.1: a leaf is SHA-256(0x00 ‖ signing input), a node
SHA-256(0x01 ‖ left ‖ right)) and signs one ``TreeHead``. A certificate's
last field, its ``IssuerProof``, holds its leaf's index, its audit path and
the head signature: a verifier recomputes the root hash from the leaf and
the path (RFC 9162 §2.1.3.2) and verifies the head, once per head where it
keeps the heads it verified.

Certificates use the package's canonical encoding rather than ASN.1 DER;
a certificate's signing input is ``codec.struct_bytes``: its type's
label, then the canonical struct of every field before its proof, the
last.
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
    """Why a member refuses a transfer, a request, an answer, a channel, a
    claims fetch or a wallet's boarding or checkpoint: the one vocabulary
    of refusal events, wire answers and audit rows, returned by the check
    that refuses, never raised. The wire carries a member's declaration
    index: new members go last."""

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
    OWN_CERT_INVALID = "own_cert_invalid"  # this member may not sign now
    ERASURE_NOT_PROVEN = "erasure_not_proven"  # a supervised key is live
    RECEIPT_INVALID = "receipt_invalid"  # a claims answer's receipt fails


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
class IssuerProof:
    """A certificate's proof of issue: its leaf's index in a batch of
    ``tree_size``, the audit path from that leaf to the batch's root hash
    (RFC 6962 §2.1.1), leaf side first, and the root's signature over the
    batch's ``TreeHead``."""

    tree_size: int
    leaf_index: int
    audit_path: tuple[bytes, ...]
    head_signature: bytes


@dataclass(frozen=True)
class TreeHead:
    """What the root signs for a batch; its signature travels in each
    certificate's ``IssuerProof``."""

    tree_size: int
    root_hash: bytes
    signature: bytes


@dataclass(frozen=True)
class EvIdentityCertificate:
    serial: int
    subject: EvSubjectInfo
    subject_public_key: bytes
    not_before: int
    not_after: int
    issuer_proof: IssuerProof


@dataclass(frozen=True)
class SigningCertificate:
    serial: int
    purpose: CertPurpose
    subject_public_key: bytes
    identity_linkage: bytes  # the identity certificate's leaf hash
    not_before: int
    not_after: int
    issuer_proof: IssuerProof


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


def leaf_hash(cert: Certificate) -> bytes:
    """The Merkle leaf hash of ``cert``'s signing input, every field but
    its proof (RFC 6962 §2.1)."""
    return crypto.digest(b"\x00" + codec.struct_bytes(cert))


def _node_hash(left: bytes, right: bytes) -> bytes:
    return crypto.digest(b"\x01" + left + right)


def _tree(leaves: list[bytes]) -> tuple[bytes, list[list[bytes]]]:
    """The Merkle tree hash of ``leaves`` and each leaf's audit path, leaf
    side first (RFC 6962 §2.1), hashing each node once."""
    if len(leaves) == 1:
        return leaves[0], [[]]
    split = 1 << ((len(leaves) - 1).bit_length() - 1)  # largest power of 2 below
    left, left_paths = _tree(leaves[:split])
    right, right_paths = _tree(leaves[split:])
    for path in left_paths:
        path.append(right)
    for path in right_paths:
        path.append(left)
    return _node_hash(left, right), left_paths + right_paths


def proven_head(cert: Certificate) -> tuple[int, bytes, bytes] | None:
    """The head ``cert``'s proof places it under: (tree size, the root hash
    recomputed from its leaf and audit path, head signature); or None where
    the index lies outside the tree or the path is not exactly as long as
    that index needs (RFC 9162 §2.1.3.2)."""
    proof = cert.issuer_proof
    index, last = proof.leaf_index, proof.tree_size - 1
    if not 0 <= index <= last:
        return None
    node = leaf_hash(cert)
    for sibling in proof.audit_path:
        if last == 0:
            return None  # a hash past the root
        if index & 1 or index == last:
            node = _node_hash(sibling, node)
            while not index & 1 and index:
                index, last = index >> 1, last >> 1
        else:
            node = _node_hash(node, sibling)
        index, last = index >> 1, last >> 1
    if last:
        return None  # a hash short of the root
    return proof.tree_size, node, proof.head_signature


def validate_chain(cert: Certificate,
                   root_public_key: bytes,
                   revocation_list: RevocationList,
                   now: int,
                   identity_cert: EvIdentityCertificate | None = None,
                   verified: set[tuple[int, bytes, bytes]] | None = None
                   ) -> Verdict:
    """The verdict on one certificate against the consortium root at tick
    ``now``: VALID, or the first check that fails (RFC 5280 §6.1.6). A
    proof that places the certificate under no head the root signed is
    BAD_SIGNATURE. Pure unless a ``verified`` memo is given.

    For a SigningCertificate, pass the candidate identity certificate to
    have the linkage checked as part of the chain. ``verified`` holds the
    heads, as ``proven_head`` gives them, whose signature verified under
    ``root_public_key``; it is read in place of a verify and gains each
    head that verifies. A head is found by the root hash recomputed from
    the certificate at hand, so a certificate that copies a genuine proof
    never finds one.
    """
    head = proven_head(cert)
    if head is None:
        return Verdict.BAD_SIGNATURE
    if verified is None or head not in verified:
        if not crypto.verify(root_public_key, *codec.unseal(TreeHead(*head))):
            return Verdict.BAD_SIGNATURE
        if verified is not None:
            verified.add(head)
    if revocation_list.covers(cert.serial):
        return Verdict.REVOKED
    standing = Verdict.VALID
    if identity_cert is not None and isinstance(cert, SigningCertificate) \
            and cert.identity_linkage != leaf_hash(identity_cert):
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

    def signing(self, purpose: CertPurpose) -> SigningCertificate:
        return self.claims if purpose is CertPurpose.CLAIMS_SIGNING else self.transaction


class TrustContext:
    """What a node trusts: the root key, the revocation list, the clock,
    member certificates, and every other party's identity certificate by
    the name it certifies (``cp:dmv``, ``wdev:alice@7``, ``store:alice``,
    ``authsrv:alice``, ``insurer:…``). Every key a signature is checked
    under is a certificate's subject key, looked up at each use.

    Every certificate decision a node makes goes through its context,
    which one world's nodes share today. ``validate`` gives the ``Verdict``
    on a channel peer's identity; ``standing`` makes every member-as-signer
    check, and ``verify_member_signature``, the one check of every value a
    member signs, rests on it; ``certified_key`` gives any other party's
    key. Certificates are distributed by consortium operations; their
    authenticity rests on the root's signed tree head their proofs lead to.

    A tree head's signature is verified once per context and kept in
    ``verified``, so a batch costs one verify. A certificate's revocation
    and its linkage to the identity certificate given are decided once per
    (certificate, identity certificate) under the revocation list the
    context reads: the object ``revocations`` returns, so a new list (the
    root issues one on each revocation) drops every kept decision. Only the
    validity window is checked on every call, against ``clock``. A verdict
    that rests on the proof or on the window is never kept: a certificate
    whose proof fails is checked, and refused, anew, and one outside its
    window is decided anew.
    """

    def __init__(self, root_public_key: bytes,
                 revocations: Callable[[], RevocationList],
                 clock: Callable[[], int]):
        self.root_public_key = root_public_key
        self._revocations = revocations
        self.clock = clock
        self.members: dict[int, VaspCerts] = {}  # entity number -> certs
        self.identities: dict[str, EvIdentityCertificate] = {}  # by name
        # Tree heads whose signature verified, as ``proven_head`` gives
        # them: keyed by the recomputed root hash and the signature, so a
        # forgery that copies a genuine proof never hits.
        self.verified: set[tuple[int, bytes, bytes]] = set()
        # The serials of a (certificate, identity certificate) pair -> that
        # pair and its verdict apart from the window, under the revocation
        # list ``_decided_under``. Serials keep their hashes, where hashing
        # a certificate walks every field; the pair itself is compared, so
        # a forgery that copies a genuine serial never hits.
        self._decided: dict[tuple[int, int | None], tuple[
            tuple[Certificate, EvIdentityCertificate | None], Verdict]] = {}
        self._decided_under: RevocationList | None = None

    @property
    def revocation_list(self) -> RevocationList:
        return self._revocations()

    def add_member(self, certs: VaspCerts) -> None:
        self.members[certs.identity.subject.vasp_number] = certs

    def validate(self, cert: Certificate,
                 identity_cert: EvIdentityCertificate | None = None
                 ) -> Verdict:
        revocations = self._revocations()
        now = self.clock()
        if revocations is not self._decided_under:
            self._decided = {}
            self._decided_under = revocations
        pair = (cert, identity_cert)
        key = (cert.serial, None if identity_cert is None else identity_cert.serial)
        kept = self._decided.get(key)
        if kept is not None and kept[0] == pair:
            return at_tick(cert, now, kept[1])
        verdict = validate_chain(cert, self.root_public_key, revocations,
                                 now, identity_cert, self.verified)
        if verdict in _KEPT:
            self._decided[key] = (pair, verdict)
        return verdict

    def certified_key(self, name: str) -> bytes:
        """The key ``name``'s identity certificate certifies while it is
        VALID now; else b"", under which nothing verifies."""
        cert = self.identities.get(name)
        valid = cert is not None and self.validate(cert) is Verdict.VALID
        return cert.subject_public_key if valid else b""

    def standing(self, member: VaspCerts, purpose: CertPurpose) -> Verdict:
        """Whether ``member`` may sign as ``purpose`` now, checking each
        certificate on its path at each use (RFC 5280 §6.1.3): the verdict
        on its linked ``purpose`` certificate unless that is VALID, then its
        identity certificate's; a revoked identity comes first."""
        identity = self.validate(member.identity)
        if identity is Verdict.REVOKED:
            return identity
        verdict = self.validate(member.signing(purpose), member.identity)
        return identity if verdict is Verdict.VALID else verdict

    def verify_member_signature(self, value, tbs: bytes, member: int) -> bool:
        """True iff signed ``value``'s ``signature`` over ``tbs``, its
        signing input, verifies under its ``signer_cert_serial``, which
        names the claims-signing certificate of ``member``, whose
        ``standing`` as a claims signer is VALID."""
        certs = self.members.get(member)
        return (certs is not None and certs.claims.serial == value.signer_cert_serial
                and self.standing(certs, CertPurpose.CLAIMS_SIGNING) is Verdict.VALID
                and crypto.verify(certs.claims.subject_public_key, tbs, value.signature))


class RootAuthority:
    """Single-writer consortium root: drafts, issues and revokes
    certificates.

    A certificate is drafted first, under the next serial, and issued in a
    batch of drafts under one signed tree head. The serial registry is
    shared across identity and signing certificates; the used-key registry
    spans every certificate (and the root key itself) so key reuse is
    refused when a certificate is drafted.
    """

    def __init__(self, keypair: KeyPair):
        self._keypair = keypair
        self._certs: dict[int, Certificate] = {}  # issued, by serial
        self._drafted: dict[int, tuple[Certificate, bytes]] = {}  # draft, leaf
        self._vasp_numbers: set[int] = set()
        self._used_keys: set[bytes] = {keypair.public_key}
        self._revocations: dict[int, RevocationEntry] = {}
        self._revocation_list = self._signed_list((), issued_at=0)

    @property
    def public_key(self) -> bytes:
        return self._keypair.public_key

    @property
    def revocation_list(self) -> RevocationList:
        return self._revocation_list

    def issued_certificates(self) -> list[Certificate]:
        return [self._certs[s] for s in sorted(self._certs)]

    def _signed_list(self, entries: tuple[RevocationEntry, ...],
                     issued_at: int) -> RevocationList:
        return codec.seal(RevocationList(entries, issued_at, b""), lambda tbs:
                          crypto.sign(self._keypair.private_key, tbs))[0]

    def _draft(self, kind: type, **fields) -> Certificate:
        """A ``kind`` of ``fields`` under the next serial, with no proof
        yet, kept as a draft with its leaf hash."""
        draft = kind(serial=len(self._drafted) + 1, issuer_proof=None, **fields)
        self._drafted[draft.serial] = draft, leaf_hash(draft)
        return draft

    def _claim_key(self, public_key: bytes) -> None:
        if public_key in self._used_keys:
            raise KeyReuse("public key already bound to another certificate")
        self._used_keys.add(public_key)

    def draft_identity_cert(self, subject: EvSubjectInfo,
                            subject_public_key: bytes, not_before: int,
                            not_after: int) -> EvIdentityCertificate:
        problems = check_subject(subject)
        if problems:
            raise InvalidSubject(problems)
        if not_before >= not_after:
            raise InvalidSubject(["validity interval is empty"])
        if subject.vasp_number in self._vasp_numbers:
            raise DuplicateVaspNumber(f"vasp_number {subject.vasp_number} already issued")
        self._claim_key(subject_public_key)
        self._vasp_numbers.add(subject.vasp_number)
        return self._draft(EvIdentityCertificate, subject=subject,
                           subject_public_key=subject_public_key,
                           not_before=not_before, not_after=not_after)

    def draft_signing_cert(self, identity_cert: EvIdentityCertificate,
                           purpose: CertPurpose, subject_public_key: bytes,
                           not_before: int, not_after: int) -> SigningCertificate:
        """A signing certificate linked to ``identity_cert``, issued or
        drafted by this root. The linkage is the leaf hash kept with the
        draft; any other object than that draft is hashed to compare."""
        draft, linkage = self._drafted.get(identity_cert.serial, (None, None))
        if identity_cert is not draft and leaf_hash(identity_cert) != linkage:
            raise UnknownSerial("identity certificate was not issued by this root")
        if identity_cert.serial in self._revocations:
            raise LinkTargetRevoked(f"identity serial {identity_cert.serial} is revoked")
        if identity_cert.not_after <= not_before:
            raise LinkTargetExpired("identity certificate expires before this one begins")
        if not_before >= not_after:
            raise InvalidSubject(["validity interval is empty"])
        self._claim_key(subject_public_key)
        return self._draft(SigningCertificate, purpose=purpose,
                           subject_public_key=subject_public_key,
                           identity_linkage=linkage,
                           not_before=not_before, not_after=not_after)

    def issue(self, drafts: list[Certificate]) -> list[Certificate]:
        """Issue ``drafts``, each a draft of this root not yet issued, as
        one batch, in their order: one Merkle tree over their leaves, each
        node hashed once, and one signed head."""
        if len({d.serial for d in drafts}) < len(drafts) or any(
                d.serial in self._certs
                or self._drafted.get(d.serial, (None,))[0] != d for d in drafts):
            raise UnknownSerial("a batch holds each of its drafts once, "
                                "each drafted by this root and not issued")
        if not drafts:
            return []
        root_hash, paths = _tree([self._drafted[d.serial][1] for d in drafts])
        size = len(drafts)
        head = codec.seal(TreeHead(size, root_hash, b""), lambda tbs:
                          crypto.sign(self._keypair.private_key, tbs))[0]
        for index, (draft, path) in enumerate(zip(drafts, paths)):
            self._certs[draft.serial] = codec.with_last(
                draft, IssuerProof(size, index, tuple(path), head.signature))
        return [self._certs[d.serial] for d in drafts]

    def issue_identity_cert(self, *draft_args) -> EvIdentityCertificate:
        """``draft_identity_cert(*draft_args)``, issued as a batch of one."""
        return self.issue([self.draft_identity_cert(*draft_args)])[0]

    def issue_signing_cert(self, *draft_args) -> SigningCertificate:
        """``draft_signing_cert(*draft_args)``, issued as a batch of one."""
        return self.issue([self.draft_signing_cert(*draft_args)])[0]

    def revoke(self, serial: int, reason: RevocationReason, now: int) -> RevocationList:
        """Add a revocation entry; idempotent, the earliest entry wins."""
        if serial not in self._certs:
            raise UnknownSerial(f"serial {serial} was never issued")
        if serial not in self._revocations:
            self._revocations[serial] = RevocationEntry(serial, reason, now)
        self._revocation_list = self._signed_list(tuple(
            self._revocations[s] for s in sorted(self._revocations)), now)
        return self._revocation_list


def create_consortium_root(seed: bytes) -> RootAuthority:
    return RootAuthority(crypto.generate_keypair(seed))


def cert_to_hex(cert: Certificate) -> str:
    return codec.canonical_encode(cert).hex()
