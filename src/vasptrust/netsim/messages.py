"""Protocol message bodies carried over authenticated channels.

Every body is a frozen dataclass with a canonical encoding; the envelope
body field is the tagged union of all of them. An answer says why it
refuses with a ``pki.Refusal`` and nothing else: the codec refuses to
encode anything but a member there, and ``canonical_decode`` refuses
anything but a member's declaration index, so no peer text reaches the
receiver's trace; the trace's rendering rule (``netsim.trace``) keeps its
parsing exact. An answer whose ``refusal`` is None is not refused.

An answer's first field, ``answers``, is the ``seq`` of its request's
envelope on the same channel, as a DNS response names its query by ID
(RFC 1035 §4.1.1); ``ANSWER`` gives each request type its answer type,
whose other fields default to none; ``Node.handle`` refuses any other
answer once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..claims import AuthorizationToken, ConsentReceipt, SignedClaim
from ..pki import Refusal
from ..resolver import IdentifierAdvertisement
from ..travel_rule import SignedAnswer, SignedPayload
from ..wallet import AttestationEvidence


@dataclass(frozen=True)
class TravelRuleRequest:
    signed: SignedPayload


@dataclass(frozen=True)
class TravelRuleResponse:
    """Only the answer's account travels: the originator rebuilds the rest
    from its request, the hint from the certificate it pays."""

    answers: int
    refusal: Refusal | None = None
    answer: SignedAnswer | None = None


@dataclass(frozen=True)
class LookupRequest:
    identifier: str


@dataclass(frozen=True)
class LookupResponse:
    # Numbers only: the shape of this message cannot carry key material.
    answers: int
    vasp_numbers: tuple[int, ...] = ()
    refusal: Refusal | None = None


@dataclass(frozen=True)
class AdvertisementFlood:
    """Every advertisement one flooding round sends over one channel, in
    the order they are merged: many advertisements in one update, as OSPF
    bundles the LSAs due on an interface into one Link State Update
    packet (RFC 2328 §A.3.5)."""

    advertisements: tuple[IdentifierAdvertisement, ...]


@dataclass(frozen=True)
class ClaimsAuthRequest:
    attributes: tuple[str, ...]
    purpose: str


@dataclass(frozen=True)
class ClaimsAuthResponse:
    answers: int
    token: AuthorizationToken | None = None
    refusal: Refusal | None = None


@dataclass(frozen=True)
class ClaimsFetchRequest:
    token: AuthorizationToken
    # The requesting VASP countersigns the usage purpose with its
    # claims-signing key: its agreement to the terms of use.
    terms_signature: bytes
    vasp_claims_cert_serial: int


@dataclass(frozen=True)
class ClaimsFetchResponse:
    answers: int
    claims: tuple[SignedClaim, ...] = ()
    receipt: ConsentReceipt | None = None
    refusal: Refusal | None = None


@dataclass(frozen=True)
class AttestationChallenge:
    device_id: str
    nonce: bytes


@dataclass(frozen=True)
class AttestationResponse:
    answers: int
    evidence: AttestationEvidence | None = None
    refusal: Refusal | None = None


# The wire tags a body by its index in this list: a new type goes at the end.
MessageBody = Union[
    TravelRuleRequest,
    TravelRuleResponse,
    LookupRequest,
    LookupResponse,
    AdvertisementFlood,
    ClaimsAuthRequest,
    ClaimsAuthResponse,
    ClaimsFetchRequest,
    ClaimsFetchResponse,
    AttestationChallenge,
    AttestationResponse,
]

ANSWER = {TravelRuleRequest: TravelRuleResponse, LookupRequest: LookupResponse,
          ClaimsAuthRequest: ClaimsAuthResponse,
          ClaimsFetchRequest: ClaimsFetchResponse,
          AttestationChallenge: AttestationResponse}
