"""Customer-managed claims store with authorization tokens and consent receipts.

A claims provider issues signed attribute assertions (for example a driving
license number) with a validity window. The customer keeps them in a
personal claims store and controls access through a single active policy:
which VASPs may read, which attributes, and for what purpose. A VASP first
obtains an authorization token scoped by that policy, then presents it to
the store; every successful retrieval atomically produces a consent receipt
naming the released attributes, which the VASP keeps as exculpatory
evidence. The customer can withdraw consent at any time, after which
fetches release nothing; previously issued receipts remain on record.
The store and the authorization server return a refusal as the
``pki.Refusal`` member naming it, never as an exception.

Claims share the consortium PKI's verdicts: ``verify_claim`` returns a
``pki.Verdict``, and judges a claim's window by certificates' rule,
``pki.at_tick``. ``codec.seal`` signs a claim, token or receipt over every
field but its signature, its last; its id is the digest of those bytes,
derived from the value and never carried in it, so no id can disagree
with the content it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import codec, crypto, pki
from .pki import Refusal

TOKEN_LIFETIME = 300  # simulated seconds; short so expiry paths get exercised


class ClaimsError(Exception):
    """A claims operation called wrongly: by someone not the store's owner,
    on a server bound to no store, or with no token held."""


class NotOwner(ClaimsError):
    pass


@dataclass(frozen=True)
class SignedClaim:
    subject_customer_ref: str
    attribute_name: str
    attribute_value: str
    issuer: str
    not_before: int
    not_after: int
    issuer_signature: bytes


class ClaimsProvider:
    """Authoritative issuer of signed attribute claims."""

    def __init__(self, name: str, seed: bytes):
        self.name = name
        self._keypair = crypto.generate_keypair(seed)

    @property
    def public_key(self) -> bytes:
        return self._keypair.public_key

    def issue_claim(self, subject: str, attribute: str, value: str,
                    not_before: int, not_after: int) -> SignedClaim:
        if not_before >= not_after:
            raise ValueError("claim validity interval is empty")
        return codec.seal(
            SignedClaim(subject, attribute, value, self.name, not_before,
                        not_after, b""),
            lambda tbs: crypto.sign(self._keypair.private_key, tbs))[0]


def verify_claim(claim: SignedClaim, provider_public_key: bytes,
                 now: int) -> pki.Verdict:
    """BAD_SIGNATURE, or the verdict of the claim's window at ``now``."""
    if not crypto.verify(provider_public_key, *codec.unseal(claim)):
        return pki.Verdict.BAD_SIGNATURE
    return pki.at_tick(claim, now)


@dataclass
class AccessPolicy:
    owner_customer_ref: str
    allowed_vasp_numbers: frozenset[int]
    readable_attributes: frozenset[str]
    usage_purpose: str
    active: bool = True


@dataclass(frozen=True)
class AuthorizationToken:
    audience_vasp_number: int
    permitted_attributes: tuple[str, ...]
    purpose: str
    expires_at: int
    signature: bytes

    @cached_property
    def token_id(self) -> bytes:
        return crypto.digest(codec.struct_bytes(self))


def terms_bytes(token: AuthorizationToken) -> bytes:
    """The terms of ``token`` that its audience VASP signs with its claims
    key to present the token to the claims store."""
    return codec.canonical_encode(("claims-terms", token.token_id,
                                   token.purpose))


@dataclass(frozen=True)
class ConsentReceipt:
    token_id: bytes
    vasp_number: int
    attributes_released: tuple[str, ...]
    purpose: str
    issued_at: int
    signature: bytes

    @cached_property
    def receipt_id(self) -> bytes:
        return crypto.digest(codec.struct_bytes(self))


@dataclass(frozen=True)
class AuditEntry:
    """One audit row; ``fields`` are ordered ``(key, value)`` pairs."""

    at: int
    event: str
    fields: tuple[tuple[str, object], ...] = ()


class ClaimsStore:
    """One customer's claims plus the audit trail of every access."""

    def __init__(self, owner: str, seed: bytes, authorization_server_key: bytes):
        self.owner = owner
        self._keypair = crypto.generate_keypair(seed)
        self._auth_server_key = authorization_server_key
        self._claims: list[SignedClaim] = []
        self._policy: AccessPolicy | None = None
        self._receipts: list[ConsentReceipt] = []
        self._audit: list[AuditEntry] = []

    @property
    def policy(self) -> AccessPolicy | None:
        return self._policy

    @property
    def receipts(self) -> list[ConsentReceipt]:
        return list(self._receipts)

    @property
    def audit_log(self) -> list[AuditEntry]:
        return list(self._audit)

    def add_claim(self, claim: SignedClaim) -> None:
        self._claims.append(claim)

    def set_policy(self, owner: str, policy: AccessPolicy, now: int = 0) -> None:
        """Replace the active policy; only the store owner may do this."""
        if owner != self.owner or policy.owner_customer_ref != self.owner:
            raise NotOwner(f"{owner!r} does not own this store")
        self._policy = policy
        self._audit.append(AuditEntry(now, "policy_set", (
            ("attrs", tuple(sorted(policy.readable_attributes))),
            ("vasps", tuple(sorted(policy.allowed_vasp_numbers))))))

    def revoke_consent(self, owner: str, now: int) -> None:
        if owner != self.owner:
            raise NotOwner(f"{owner!r} does not own this store")
        if self._policy is not None and self._policy.active:
            self._policy.active = False
            self._audit.append(AuditEntry(now, "consent_revoked"))

    def fetch_claims(self, token: AuthorizationToken, now: int
                     ) -> tuple[list[SignedClaim], ConsentReceipt] | Refusal:
        """Release the permitted, currently valid claims and issue a receipt;
        or why nothing is released: BAD_TOKEN, TOKEN_EXPIRED or, with a
        ``fetch_refused`` audit row, CONSENT_WITHDRAWN.

        The receipt is created atomically with the release; no attribute
        ever leaves the store without a receipt row and an audit entry.
        """
        if not crypto.verify(self._auth_server_key, *codec.unseal(token)):
            return Refusal.BAD_TOKEN
        if now >= token.expires_at:
            return Refusal.TOKEN_EXPIRED
        if self._policy is None or not self._policy.active:
            self._audit.append(AuditEntry(now, "fetch_refused",
                                          (("reason", Refusal.CONSENT_WITHDRAWN),)))
            return Refusal.CONSENT_WITHDRAWN

        permitted = set(token.permitted_attributes)
        released = [
            c for c in self._claims
            if c.attribute_name in permitted
            and pki.at_tick(c, now) is pki.Verdict.VALID
        ]
        receipt, _ = codec.seal(ConsentReceipt(
            token_id=token.token_id,
            vasp_number=token.audience_vasp_number,
            attributes_released=tuple(sorted({c.attribute_name for c in released})),
            purpose=token.purpose,
            issued_at=now,
            signature=b"",
        ), lambda tbs: crypto.sign(self._keypair.private_key, tbs))
        self._receipts.append(receipt)
        self._audit.append(AuditEntry(now, "claims_released", (
            ("token", token.token_id), ("attrs", receipt.attributes_released))))
        return released, receipt

    def verify_receipt(self, receipt: ConsentReceipt) -> bool:
        return crypto.verify(self._keypair.public_key, *codec.unseal(receipt))


class AuthorizationServer:
    """Issues policy-scoped authorization tokens to authenticated VASPs."""

    def __init__(self, seed: bytes):
        self._keypair = crypto.generate_keypair(seed)
        self._store: ClaimsStore | None = None

    def bind_store(self, store: ClaimsStore) -> None:
        self._store = store

    @property
    def public_key(self) -> bytes:
        return self._keypair.public_key

    def request_authorization(self, vasp_number: int, attributes: set[str],
                              purpose: str, now: int
                              ) -> AuthorizationToken | Refusal:
        """A token for member ``vasp_number``, which the server's node has
        authenticated, issued at tick ``now``; or why none is."""
        if self._store is None:
            raise ClaimsError("no claims store bound to this server")
        policy = self._store.policy
        if policy is None or not policy.active:
            return Refusal.POLICY_INACTIVE
        if vasp_number not in policy.allowed_vasp_numbers:
            return Refusal.NOT_ALLOWED
        if not attributes <= policy.readable_attributes:
            return Refusal.SCOPE_EXCEEDED
        if purpose != policy.usage_purpose:
            return Refusal.PURPOSE_MISMATCH
        return codec.seal(AuthorizationToken(
            audience_vasp_number=vasp_number,
            permitted_attributes=tuple(sorted(attributes)),
            purpose=purpose,
            expires_at=now + TOKEN_LIFETIME,
            signature=b"",
        ), lambda tbs: crypto.sign(self._keypair.private_key, tbs))[0]
